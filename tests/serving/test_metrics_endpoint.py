"""Tests for the serving observability surface: /metrics, /healthz, access log."""

import io
import json
import logging
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.api import Ranker
from repro.graphgen import generate_synthetic_web
from repro.serving import RankingService, serve_frontend
from repro.serving.httpd import ACCESS_LOGGER, enable_access_log


@pytest.fixture()
def server():
    web = generate_synthetic_web(n_sites=5, n_documents=150, seed=3)
    service = RankingService.from_ranking(Ranker().fit(web).ranking, web)
    server = serve_frontend(service)
    yield server
    server.close()


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


def wait_until(predicate, timeout=5.0):
    """Poll *predicate* until true.

    The handler records its request metrics and access-log line *after*
    writing the response, so a client can observe the response before the
    bookkeeping lands; telemetry assertions poll instead of racing.
    """
    deadline = time.monotonic() + timeout
    while True:
        result = predicate()
        if result or time.monotonic() >= deadline:
            return result
        time.sleep(0.01)


class TestMetricsEndpoint:
    def test_serves_valid_prometheus_exposition(self, server):
        # touch a few endpoints so request metrics exist
        get(server, "/top?k=3")
        get(server, "/health")
        assert wait_until(lambda: obs.registry().counter_value(
            "http_requests_total", path="/health", status="200") >= 1)
        status, headers, body = get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        text = body.decode("utf-8")
        obs.validate_exposition(text)
        assert "repro_http_requests_total" in text
        assert "repro_http_request_seconds_bucket" in text
        assert "repro_serving_queries_served_total" in text
        assert "repro_serving_cache_hit_rate" in text
        assert "repro_serving_store_shards 5" in text
        assert "rebuild_dispatch_bytes" not in text

    def test_unknown_paths_fold_into_other_label(self, server):
        try:
            get(server, "/definitely-not-a-route")
        except urllib.error.HTTPError:
            pass
        assert wait_until(lambda: obs.registry().counter_value(
            "http_requests_total", path="other", status="404") >= 1)
        _status, _headers, body = get(server, "/metrics")
        assert 'path="other"' in body.decode("utf-8")
        assert "definitely-not-a-route" not in body.decode("utf-8")

    def test_collector_removed_on_close(self):
        web = generate_synthetic_web(n_sites=4, n_documents=80, seed=5)
        service = RankingService.from_ranking(Ranker().fit(web).ranking, web)
        server = serve_frontend(service)
        names = {e["name"] for e in obs.snapshot()["gauges"]}
        assert "serving_uptime_seconds" in names
        server.close()
        names = {e["name"] for e in obs.snapshot()["gauges"]}
        assert "serving_uptime_seconds" not in names


class TestHealthz:
    def test_healthz_payload(self, server):
        status, _headers, body = get(server, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["shards"] == 5
        assert payload["documents"] == 150
        assert payload["generation"] >= 0
        assert payload["uptime_seconds"] >= 0.0
        assert payload["queries_served"] >= 0


class TestAccessLog:
    def test_silent_by_default(self, server):
        # the logger sits at WARNING, so INFO access lines never reach
        # handlers until enable_access_log() lifts the level
        assert ACCESS_LOGGER.level == logging.WARNING
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        ACCESS_LOGGER.addHandler(handler)
        try:
            get(server, "/health")
            time.sleep(0.05)  # give the handler's finally block time to log
        finally:
            ACCESS_LOGGER.removeHandler(handler)
        assert stream.getvalue() == ""

    def test_enabled_log_carries_method_path_status_duration(self, server):
        stream = io.StringIO()
        previous_level = ACCESS_LOGGER.level
        previous_handlers = list(ACCESS_LOGGER.handlers)
        try:
            ACCESS_LOGGER.handlers.clear()
            enable_access_log(stream)
            get(server, "/health")
            assert wait_until(lambda: "GET /health" in stream.getvalue())
            line = stream.getvalue()
            assert "GET /health 200" in line
            assert "ms" in line
        finally:
            ACCESS_LOGGER.handlers.clear()
            ACCESS_LOGGER.handlers.extend(previous_handlers)
            ACCESS_LOGGER.setLevel(previous_level)


class TestServiceStats:
    def test_stats_aggregates_engine_counters(self, server):
        stats = server.service.stats()
        engine = stats["engine"]
        assert set(engine) == {"rebuilds", "shards_rebuilt", "swaps",
                               "last_rebuild_seconds"}
        assert "cache" in stats
