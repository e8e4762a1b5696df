"""E13: online serving throughput (the :mod:`repro.serving` subsystem).

Three claims are measured on a ≥50k-document synthetic web:

* **top-k** — the sharded :class:`TopKEngine`, which slices one global
  order kept per store generation, answers global top-10 queries faster
  than serving from a flat score vector, whether the baseline re-sorts
  the full vector (``WebRankingResult.top_k``) or fully materialises and
  sorts all documents (:func:`naive_top_k`);
* **cache** — on a repeated-query workload the warmed
  :class:`QueryCache` reaches a ≥90% hit rate and multiplies query
  throughput accordingly;
* **consistency** — a :class:`RankingService` attached to an
  :class:`IncrementalLayeredRanker` returns the same top-k as a
  from-scratch recomposition after a single-site update applied through
  the update-notification hook — and, over a live socket, global and
  per-site ``/top`` bodies equal ``json.dumps(route_request(...))`` before
  and after that update (the bodies are joined from cached fragments).

A fourth check rides along for CI: the HTTP front-end's observability
surface (``/metrics`` Prometheus exposition and the ``/healthz`` probe)
is scraped over a real socket and the payloads validated, so a malformed
exposition line fails the build.  In smoke mode (``REPRO_BENCH_SMOKE=1``)
the web shrinks so the whole module runs in CI.
"""

import json
import time
import urllib.request
from urllib.parse import parse_qs, urlsplit

import pytest

from conftest import SMOKE, IncrementalLayeredRanker, layered_docrank, write_result
from repro import obs
from repro.graphgen import generate_synthetic_web
from repro.ir import synthesize_corpus
from repro.serving import (
    RankingService,
    ShardedScoreStore,
    TopKEngine,
    naive_top_k,
    route_request,
    serve_frontend,
)

N_DOCUMENTS = 3_000 if SMOKE else 50_000
N_SITES = 24 if SMOKE else 120
TOP_K = 10


@pytest.fixture(scope="module")
def serving_web():
    web = generate_synthetic_web(n_sites=N_SITES, n_documents=N_DOCUMENTS,
                                 seed=13)
    ranking = layered_docrank(web)
    store = ShardedScoreStore.from_ranking(ranking, web)
    return web, ranking, store


def _mean_seconds(callable_, repetitions: int) -> float:
    start = time.perf_counter()
    for _ in range(repetitions):
        callable_()
    return (time.perf_counter() - start) / repetitions


@pytest.mark.benchmark(group="E13 serving throughput")
def test_e13_cached_order_topk_vs_full_sort(benchmark, serving_web):
    web, ranking, store = serving_web
    engine = TopKEngine(store)

    answer = benchmark(engine.top_k, TOP_K)
    assert [d.doc_id for d in answer] == ranking.top_k(TOP_K)
    assert answer == naive_top_k(store, TOP_K)

    order_seconds = _mean_seconds(lambda: engine.top_k(TOP_K), 50)
    flat_sort_seconds = _mean_seconds(lambda: ranking.top_k(TOP_K), 20)
    naive_seconds = _mean_seconds(lambda: naive_top_k(store, TOP_K), 5)

    rows = [
        {"engine": "sharded cached order", "mean_ms": round(order_seconds * 1e3, 4),
         "queries_per_s": round(1.0 / order_seconds)},
        {"engine": "flat vector re-sort", "mean_ms": round(flat_sort_seconds * 1e3, 4),
         "queries_per_s": round(1.0 / flat_sort_seconds)},
        {"engine": "naive materialise+sort", "mean_ms": round(naive_seconds * 1e3, 4),
         "queries_per_s": round(1.0 / naive_seconds)},
    ]
    write_result("E13a_topk_engines", rows,
                 ["engine", "mean_ms", "queries_per_s"],
                 caption=f"Top-{TOP_K} query latency over "
                         f"{web.n_documents} documents / {web.n_sites} "
                         f"sites: a slice of the order sorted once per "
                         f"store generation vs. full-sort serving.")
    # The acceptance bar: the cached order beats naive full-vector sorting.
    assert order_seconds < naive_seconds
    assert order_seconds < flat_sort_seconds


@pytest.mark.benchmark(group="E13 serving throughput")
def test_e13_cache_hit_rate_on_repeated_workload(benchmark, serving_web):
    web, ranking, _store = serving_web
    service = RankingService.from_ranking(
        ranking, web, corpus=synthesize_corpus(web, seed=13))

    unique_queries = ["research database", "teaching course",
                      "campus map", "library catalogue",
                      "software documentation", "news event"]
    workload = unique_queries * 50          # 300 requests, 6 unique

    # One query per request (not query_many, which dedups repeats inside
    # the batch before they ever reach the cache): this workload measures
    # the *cache's* effect on a stream of repeated requests.
    def run_workload():
        return [service.query(text, k=TOP_K) for text in workload]

    cold_start = time.perf_counter()
    answers = run_workload()
    cold_seconds = time.perf_counter() - cold_start
    assert len(answers) == len(workload)

    warm_seconds = _mean_seconds(
        lambda: service.query_many(workload, k=TOP_K), 3)
    benchmark(run_workload)

    stats = service.cache_stats
    rows = [{"workload": f"{len(workload)} requests, "
                         f"{len(unique_queries)} unique",
             "hit_rate": round(stats.hit_rate, 4),
             "cold_s": round(cold_seconds, 4),
             "warm_s": round(warm_seconds, 4),
             "speedup": round(cold_seconds / warm_seconds, 1)}]
    write_result("E13b_cache_hit_rate", rows,
                 ["workload", "hit_rate", "cold_s", "warm_s", "speedup"],
                 caption="Result-cache effect on a repeated-query workload "
                         f"over {web.n_documents} documents: hit rate and "
                         "whole-workload latency, cold vs. warmed cache.")
    assert stats.hit_rate >= 0.90
    assert warm_seconds < cold_seconds


@pytest.mark.benchmark(group="E13 serving throughput")
def test_e13_consistency_across_incremental_update(benchmark):
    web = generate_synthetic_web(n_sites=24, n_documents=3_000, seed=13)
    ranker = IncrementalLayeredRanker(web)
    service = RankingService.from_incremental(
        ranker, corpus=synthesize_corpus(web, seed=13))

    before_served = [d.doc_id for d in service.top(TOP_K)]
    assert before_served == ranker.ranking().top_k(TOP_K)

    site = web.sites()[0]
    docs = web.documents_of_site(site)
    generations = {s: service.store.shard_generation(s)
                   for s in service.store.sites()}

    def update_and_query():
        ranker.add_link(web.document(docs[-1]).url, web.document(docs[0]).url)
        return service.top(TOP_K)

    def assert_live_bodies_match(server):
        for path in (f"/top?k={TOP_K}", f"/top?k=40&site={site}"):
            split = urlsplit(path)
            payload, _status = route_request(service, split.path,
                                             parse_qs(split.query))
            with urllib.request.urlopen(server.url + path,
                                        timeout=10) as response:
                assert response.read() == \
                    json.dumps(payload).encode("utf-8"), path

    with serve_frontend(service) as server:
        assert_live_bodies_match(server)
        served = benchmark(update_and_query)
        assert_live_bodies_match(server)

    changed = [s for s in service.store.sites()
               if service.store.shard_generation(s) != generations[s]]
    fresh = ranker.ranking().top_k(TOP_K)
    consistent = [d.doc_id for d in served] == fresh

    rows = [{"check": "single-site update touches one shard",
             "value": str(changed == [site])},
            {"check": "served top-k equals from-scratch recomposition",
             "value": str(consistent)},
            {"check": "cache invalidations recorded",
             "value": str(service.cache_stats.invalidations > 0)}]
    write_result("E13c_incremental_consistency", rows, ["check", "value"],
                 caption="Serving stays consistent under live incremental "
                         "updates delivered through the ranker's "
                         "update-notification hook.")
    assert changed == [site]
    assert consistent


@pytest.mark.benchmark(group="E13 serving throughput")
def test_e13_metrics_scrape(benchmark, serving_web):
    """Scrape /metrics and /healthz over a real socket; validate both."""
    web, ranking, _store = serving_web
    service = RankingService.from_ranking(
        ranking, web, corpus=synthesize_corpus(web, seed=13))
    server = serve_frontend(service)
    try:
        def scrape(path):
            with urllib.request.urlopen(server.url + path,
                                        timeout=10) as response:
                return response.read().decode("utf-8")

        scrape(f"/top?k={TOP_K}")       # populate request metrics
        scrape("/query?q=research+database")
        exposition = benchmark(scrape, "/metrics")
        obs.validate_exposition(exposition)     # malformed text raises
        health = json.loads(scrape("/healthz"))
    finally:
        server.close()

    lines = [line for line in exposition.splitlines()
             if line and not line.startswith("#")]
    families = {line.split("{")[0].split(" ")[0] for line in lines}
    rows = [{"check": "exposition validates", "value": "True",
             "detail": f"{len(lines)} samples, {len(families)} series"},
            {"check": "healthz status ok",
             "value": str(health["status"] == "ok"),
             "detail": f"generation={health['generation']}, "
                       f"shards={health['shards']}"},
            {"check": "serving samples exported",
             "value": str("repro_serving_queries_served_total" in families),
             "detail": "scrape-time collector"}]
    write_result("E13d_metrics_scrape", rows, ["check", "value", "detail"],
                 caption="The /metrics Prometheus exposition and /healthz "
                         "probe scraped from a live AsyncRankingServer "
                         f"serving {web.n_documents} documents.")
    assert health["status"] == "ok"
    assert health["shards"] == web.n_sites
    assert "repro_http_requests_total" in families
    assert "repro_serving_queries_served_total" in families
