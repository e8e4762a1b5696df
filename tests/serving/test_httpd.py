"""Tests for the JSON routes of repro.serving.httpd, over a live socket."""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import Ranker
from repro.graphgen import generate_synthetic_web
from repro.ir import synthesize_corpus
from repro.serving import AsyncRankingServer, RankingService, serve_frontend


def layered_docrank(web):
    return Ranker().fit(web).ranking


@pytest.fixture(scope="module")
def server():
    web = generate_synthetic_web(n_sites=6, n_documents=200, seed=9)
    service = RankingService.from_ranking(layered_docrank(web), web,
                                          corpus=synthesize_corpus(web))
    server = serve_frontend(service)
    yield server
    server.close()


def get_json(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return json.load(response)


def get_error(server, path):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(server.url + path, timeout=10)
    body = json.load(excinfo.value)
    return excinfo.value.code, body


class TestEndpoints:
    def test_health(self, server):
        assert get_json(server, "/health") == {"status": "ok"}

    def test_top_matches_service(self, server):
        payload = get_json(server, "/top?k=5")
        expected = server.service.engine.top_k_ids(5)
        assert [entry["doc_id"] for entry in payload["results"]] == expected
        assert all({"url", "site", "score"} <= set(entry)
                   for entry in payload["results"])

    def test_top_defaults_to_k_10(self, server):
        assert len(get_json(server, "/top")["results"]) == 10

    def test_top_per_site(self, server):
        site = server.service.store.sites()[0]
        payload = get_json(server, f"/top?k=3&site={site}")
        assert all(entry["site"] == site for entry in payload["results"])

    def test_query_single(self, server):
        payload = get_json(server, "/query?q=research+database&k=3")
        [result] = payload["results"]
        assert result["query"] == "research database"
        assert len(result["hits"]) == 3
        hit = result["hits"][0]
        assert {"doc_id", "combined_score", "query_score",
                "link_score", "url", "site"} <= set(hit)

    def test_query_batch(self, server):
        payload = get_json(server,
                           "/query?q=research+database&q=teaching+course")
        assert [r["query"] for r in payload["results"]] == [
            "research database", "teaching course"]

    def test_score_point_lookup(self, server):
        payload = get_json(server, "/score?doc=0")
        assert payload["doc_id"] == 0
        assert payload["score"] == pytest.approx(
            server.service.score_of(0))

    def test_stats(self, server):
        payload = get_json(server, "/stats")
        assert payload["shards"] == 6
        assert "cache" in payload and "hit_rate" in payload["cache"]

    def test_readyz_single_service_always_ready(self, server):
        payload = get_json(server, "/readyz")
        assert payload["status"] == "ready"
        assert payload["ready"] is True
        assert payload["generation"] == server.service.store.generation


class TestErrors:
    def test_unknown_path_is_404(self, server):
        code, body = get_error(server, "/nope")
        assert code == 404
        assert "error" in body

    def test_missing_query_parameter_is_400(self, server):
        code, body = get_error(server, "/query?k=3")
        assert code == 400
        assert "q" in body["error"]

    def test_bad_k_is_400(self, server):
        code, _body = get_error(server, "/top?k=banana")
        assert code == 400

    def test_negative_k_is_400(self, server):
        code, _body = get_error(server, "/top?k=-2")
        assert code == 400

    def test_unknown_site_is_404(self, server):
        code, _body = get_error(server, "/top?k=3&site=nowhere.example.org")
        assert code == 404

    def test_unknown_document_is_404(self, server):
        code, _body = get_error(server, "/score?doc=123456")
        assert code == 404

    def test_bad_rule_is_400(self, server):
        code, _body = get_error(server, "/query?q=research&rule=bogus")
        assert code == 400


class TestServerLifecycle:
    def test_ephemeral_port_bound(self, server):
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")

    def test_explicit_construction_and_close(self):
        web = generate_synthetic_web(n_sites=4, n_documents=80, seed=1)
        service = RankingService.from_ranking(layered_docrank(web), web)
        explicit = AsyncRankingServer(service, port=0)
        assert get_json(explicit, "/health") == {"status": "ok"}
        explicit.close()
