"""Tests for repro.serving.frontend (the asyncio HTTP server).

The server's contract has four legs the suite leans on:

* responses are byte-identical to ``json.dumps`` of what
  :func:`repro.serving.httpd.route_request` returns for the same request;
* overload never hangs: past ``max_inflight`` a request is answered
  ``429 + Retry-After`` immediately, and a request outliving its
  deadline budget is answered ``504``;
* hostile request heads (oversized lines, header floods, bodies on a
  keep-alive connection) get a JSON error and a closed connection;
* queries keep succeeding continuously through a rolling rebuild of a
  replica set, with the drain visible on ``/readyz``.
"""

import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import parse_qs, urlsplit

import pytest

from repro import obs
from repro.api import Ranker
from repro.exceptions import ValidationError
from repro.graphgen import generate_synthetic_web
from repro.ir import synthesize_corpus
from repro.serving import (
    AsyncRankingServer,
    FrontendConfig,
    RankingService,
    ReplicaSet,
    ShardedScoreStore,
    route_request,
    serve_frontend,
)
from repro.serving.frontend import INLINE_TOP_MAX_K


def layered_docrank(web):
    return Ranker().fit(web).ranking


@pytest.fixture(scope="module")
def web():
    return generate_synthetic_web(n_sites=6, n_documents=200, seed=9)


@pytest.fixture(scope="module")
def corpus(web):
    return synthesize_corpus(web)


@pytest.fixture
def service(web, corpus):
    return RankingService.from_ranking(layered_docrank(web), web,
                                       corpus=corpus)


def get_raw(url, path, timeout=30, headers=None):
    request = urllib.request.Request(url + path, headers=headers or {})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read()


def get_json(url, path, timeout=30):
    _status, body = get_raw(url, path, timeout=timeout)
    return json.loads(body)


class TestByteIdenticalResponses:
    PATHS = [
        "/query?q=research+database&k=3",
        "/query?q=research+database&q=teaching+course&k=5",
        "/query?q=research+database&k=4&rule=rrf",
        "/top?k=5",
        "/top?k=0",
        "/top?k=7&site=site001.example.org",
        f"/top?k={INLINE_TOP_MAX_K + 1}",
        "/top?k=99999999999999999999999",
        "/top?k=99999999999999999999999&site=site001.example.org",
        "/score?doc=0",
        "/stats",
        "/health",
        "/readyz",
    ]

    def test_frontend_matches_route_request(self, service):
        with serve_frontend(service) as frontend:
            for path in self.PATHS:
                split = urlsplit(path)
                payload, status = route_request(service, split.path,
                                                parse_qs(split.query))
                assert get_raw(frontend.url, path) == \
                    (status, json.dumps(payload).encode("utf-8")), path

    def test_healthz_matches_up_to_uptime(self, service):
        with serve_frontend(service) as frontend:
            payload, _status = route_request(service, "/healthz", {})
            served = get_json(frontend.url, "/healthz")
            assert served.pop("uptime_seconds") > 0.0
            payload.pop("uptime_seconds")
            assert served == payload

    def test_replica_set_top_matches_route_request(self, web):
        replica_set = ReplicaSet.from_ranking(layered_docrank(web), web,
                                              n_replicas=2)
        with serve_frontend(replica_set) as frontend:
            for path in ("/top?k=9", "/top?k=4&site=site002.example.org"):
                split = urlsplit(path)
                payload, status = route_request(replica_set, split.path,
                                                parse_qs(split.query))
                assert get_raw(frontend.url, path) == \
                    (status, json.dumps(payload).encode("utf-8")), path


class _ThreadLog:
    """Wraps a service, logging which thread each ``top_body`` ran on."""

    def __init__(self, service):
        self._service = service
        self.threads = []

    def __getattr__(self, name):
        return getattr(self._service, name)

    def top_body(self, *args, **kwargs):
        self.threads.append(threading.current_thread().name)
        return self._service.top_body(*args, **kwargs)


class TestInlineRoutes:
    def test_small_top_runs_on_the_loop_and_large_on_the_pool(self, service):
        """Same body either side of the bound; only the thread differs."""
        logged = _ThreadLog(service)
        with serve_frontend(logged) as frontend:
            for k in (INLINE_TOP_MAX_K, INLINE_TOP_MAX_K + 1):
                payload, _status = route_request(service, "/top",
                                                 {"k": [str(k)]})
                assert get_raw(frontend.url, f"/top?k={k}")[1] == \
                    json.dumps(payload).encode("utf-8")
        assert logged.threads[0] == "repro-frontend"
        assert logged.threads[1].startswith("repro-frontend-worker")

    def test_slow_rebuild_does_not_stall_inline_routes(self, web,
                                                       monkeypatch):
        """The loop waits on the service lock for the swap only: while a
        rebuild sits in the back buffer, ``/score`` and ``/top`` answer."""
        ranker = Ranker().incremental(web)
        service = RankingService.from_incremental(ranker)
        service._owns_ranker = True
        rebuilding, release = threading.Event(), threading.Event()
        rebuilt = ShardedScoreStore.rebuilt

        def slow_rebuilt(store, replacements, **kwargs):
            rebuilding.set()
            release.wait(30.0)
            return rebuilt(store, replacements, **kwargs)

        monkeypatch.setattr(ShardedScoreStore, "rebuilt", slow_rebuilt)
        generation = service.store.generation
        source, target = web.document(0).url, web.document(1).url
        updater = threading.Thread(target=ranker.add_link,
                                   args=(source, target))
        with serve_frontend(service) as frontend:
            try:
                updater.start()
                assert rebuilding.wait(30.0)
                for path in ("/score?doc=1", "/top?k=5", "/healthz"):
                    status, _body = get_raw(frontend.url, path, timeout=5)
                    assert status == 200
                # Still the old generation: the rebuild has not swapped.
                assert updater.is_alive()
                assert service.store.generation == generation
            finally:
                release.set()
                updater.join(30.0)
            assert not updater.is_alive()
            assert service.store.generation > generation
            payload, _status = route_request(service, "/top", {"k": ["5"]})
            assert get_raw(frontend.url, "/top?k=5")[1] == \
                json.dumps(payload).encode("utf-8")
        service.close()


class TestSingleFlight:
    def test_identical_concurrent_queries_compute_once(self, service,
                                                       monkeypatch):
        """Eight cache-cold requests for one text, released together:
        one body, one retrieval — the rest wait on the leader's flight or
        hit the entry it stored."""
        match = service.index.match
        computations = []

        def slow_match(text, **kwargs):
            computations.append(text)
            time.sleep(0.2)          # keep the flight open for the burst
            return match(text, **kwargs)

        monkeypatch.setattr(service.index, "match", slow_match)
        bodies = []
        barrier = threading.Barrier(8)

        def fire():
            barrier.wait(10.0)
            bodies.append(get_raw(frontend.url,
                                  "/query?q=research+database&k=3")[1])

        threads = [threading.Thread(target=fire) for _ in range(8)]
        with serve_frontend(service) as frontend:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        assert len(bodies) == 8
        assert len(set(bodies)) == 1
        assert computations == ["research database"]
        stats = service.cache_stats
        assert stats.lookups == 8
        assert stats.flights_coalesced >= 1
        # Every request that missed and did not lead the flight waited.
        assert stats.misses - stats.flights_coalesced == 1

    def test_mixed_bursts_answered_correctly(self, service):
        frontend = serve_frontend(service)
        expected = {
            "research": service.query("research", 3),
            "teaching": service.query("teaching", 3),
            "home": service.query("home", 3),
        }
        service.cache.clear()
        results = {}

        def fire(text):
            results[text] = get_json(frontend.url, f"/query?q={text}&k=3")

        threads = [threading.Thread(target=fire, args=(text,))
                   for text in expected for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            for text, hits in expected.items():
                payload = results[text]["results"][0]
                assert payload["query"] == text
                assert [hit["doc_id"] for hit in payload["hits"]] == \
                    [hit.doc_id for hit in hits]
        finally:
            frontend.close()


class _GatedService:
    """Wraps a service so query_body (the server's ``/query`` call) blocks
    until released, logging the texts of every call that reached it."""

    def __init__(self, service):
        self._service = service
        self.gate = threading.Event()
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._service, name)

    def query_body(self, texts, *args, **kwargs):
        self.calls.append(list(texts))
        self.gate.wait(30.0)
        return self._service.query_body(texts, *args, **kwargs)


class TestBackpressure:
    def test_overload_sheds_with_429_and_retry_after(self, service):
        gated = _GatedService(service)
        frontend = serve_frontend(gated, max_inflight=1)
        results = []

        def slow_request():
            results.append(get_raw(frontend.url,
                                   "/query?q=research&k=3")[0])

        blocker = threading.Thread(target=slow_request)
        try:
            blocker.start()
            time.sleep(0.3)          # let it get admitted and block
            started = time.monotonic()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(frontend.url + "/query?q=other",
                                       timeout=10)
            elapsed = time.monotonic() - started
            assert excinfo.value.code == 429
            assert elapsed < 5.0     # shed fast, no queueing
            retry_after = excinfo.value.headers["Retry-After"]
            assert retry_after is not None and int(retry_after) >= 0
            body = json.load(excinfo.value)
            assert "retry_after" in body
            assert frontend.admission.shed == 1
            gated.gate.set()
            blocker.join(30.0)
            assert results == [200]  # the admitted request completed
        finally:
            gated.gate.set()
            frontend.close()

    def test_deadline_exceeded_is_504(self, service):
        gated = _GatedService(service)
        frontend = serve_frontend(gated)
        try:
            started = time.monotonic()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_raw(frontend.url, "/query?q=research&k=3",
                        headers={"X-Request-Deadline": "0.2"})
            assert excinfo.value.code == 504
            assert time.monotonic() - started < 10.0
        finally:
            gated.gate.set()
            frontend.close()

    def test_request_expiring_in_the_queue_never_reaches_the_service(
            self, service):
        """One worker, held by a gated request: the next request's
        deadline lapses while it waits for the worker — 504, and the
        service never sees it, not even after the worker frees up."""
        gated = _GatedService(service)
        frontend = serve_frontend(gated, workers=1)
        statuses = []

        def held_request():
            statuses.append(get_raw(frontend.url,
                                    "/query?q=research&k=3")[0])

        holder = threading.Thread(target=held_request)
        try:
            holder.start()
            time.sleep(0.3)          # let it occupy the only worker
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_raw(frontend.url, "/query?q=teaching&k=3",
                        headers={"X-Request-Deadline": "0.2"})
            assert excinfo.value.code == 504
            gated.gate.set()
            holder.join(30.0)
            assert statuses == [200]
            # /stats runs on the same single worker, so once it answers
            # the pool has drained whatever was still queued.
            assert get_json(frontend.url, "/stats")["queries_served"] >= 1
            assert gated.calls == [["research"]]
        finally:
            gated.gate.set()
            frontend.close()

    def test_malformed_request_is_400_even_under_overload(self, service):
        gated = _GatedService(service)
        frontend = serve_frontend(gated, max_inflight=1)
        blocker = threading.Thread(
            target=lambda: get_raw(frontend.url, "/query?q=research&k=3"))
        try:
            blocker.start()
            time.sleep(0.3)          # budget exhausted from here on
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_raw(frontend.url, "/query?k=3")
            assert excinfo.value.code == 400
            assert frontend.admission.shed == 0
        finally:
            gated.gate.set()
            blocker.join(30.0)
            frontend.close()

    def test_bad_deadline_header_is_400(self, service):
        frontend = serve_frontend(service)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_raw(frontend.url, "/query?q=research",
                        headers={"X-Request-Deadline": "soon"})
            assert excinfo.value.code == 400
        finally:
            frontend.close()

    def test_admission_recovers_after_load_drains(self, service):
        frontend = serve_frontend(service, max_inflight=2)
        try:
            for _ in range(5):       # sequential: never over budget
                status, _body = get_raw(frontend.url, "/query?q=research")
                assert status == 200
            assert frontend.admission.shed == 0
            assert frontend.admission.inflight == 0
        finally:
            frontend.close()


class TestErrors:
    def test_missing_query_parameter_is_400(self, service):
        frontend = serve_frontend(service)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_raw(frontend.url, "/query?k=3")
            assert excinfo.value.code == 400
            assert "q" in json.load(excinfo.value)["error"]
        finally:
            frontend.close()

    def test_unknown_path_is_404(self, service):
        frontend = serve_frontend(service)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_raw(frontend.url, "/nope")
            assert excinfo.value.code == 404
        finally:
            frontend.close()

    def test_post_is_405(self, service):
        frontend = serve_frontend(service)
        try:
            request = urllib.request.Request(frontend.url + "/query",
                                             data=b"{}", method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 405
        finally:
            frontend.close()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            FrontendConfig(max_inflight=0)
        with pytest.raises(ValidationError):
            FrontendConfig(deadline=0.0)
        with pytest.raises(ValidationError):
            FrontendConfig(workers=0)

    def test_config_has_exactly_the_four_documented_knobs(self):
        assert list(FrontendConfig.__dataclass_fields__) == [
            "max_inflight", "deadline", "retry_after", "workers"]


def exchange(frontend, request: bytes) -> bytes:
    """Send raw bytes, return everything the server answers until it
    closes the connection."""
    with socket.create_connection((frontend.host, frontend.port),
                                  timeout=10) as connection:
        connection.sendall(request)
        chunks = []
        while True:
            chunk = connection.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def parse_response(raw: bytes):
    head, _sep, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    return int(lines[0].split()[1]), [line.lower() for line in lines[1:]], \
        body


class TestRequestLimits:
    """The limits ``http.server`` enforced, ported to the asyncio reader:
    a JSON error and a closed connection, never a traceback."""

    @pytest.fixture
    def frontend(self, service, caplog):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with serve_frontend(service) as frontend:
                yield frontend
        assert [record.getMessage() for record in caplog.records] == []

    def test_oversized_request_line_is_414(self, frontend):
        raw = exchange(frontend, b"GET /top?pad=" + b"a" * 70000
                       + b" HTTP/1.1\r\nHost: x\r\n\r\n")
        status, headers, body = parse_response(raw)
        assert status == 414
        assert "connection: close" in headers
        assert "error" in json.loads(body)

    def test_oversized_header_line_is_431(self, frontend):
        raw = exchange(frontend, b"GET /health HTTP/1.1\r\nX-Pad: "
                       + b"a" * 70000 + b"\r\n\r\n")
        status, headers, body = parse_response(raw)
        assert status == 431
        assert "connection: close" in headers
        assert "error" in json.loads(body)

    def test_more_than_100_headers_is_431(self, frontend):
        flood = b"".join(b"X-Pad-%d: 1\r\n" % number
                         for number in range(150))
        raw = exchange(frontend,
                       b"GET /health HTTP/1.1\r\n" + flood + b"\r\n")
        status, headers, body = parse_response(raw)
        assert status == 431
        assert "connection: close" in headers
        assert "headers" in json.loads(body)["error"]

    def test_100_headers_are_still_served(self, frontend):
        flood = b"".join(b"X-Pad-%d: 1\r\n" % number
                         for number in range(99))
        raw = exchange(frontend, b"GET /health HTTP/1.1\r\n" + flood
                       + b"Connection: close\r\n\r\n")
        status, _headers, body = parse_response(raw)
        assert (status, json.loads(body)) == (200, {"status": "ok"})

    def test_malformed_request_line_is_400(self, frontend):
        status, headers, _body = parse_response(
            exchange(frontend, b"NONSENSE\r\n\r\n"))
        assert status == 400
        assert "connection: close" in headers

    @pytest.mark.parametrize("target", [b"//[", b"http://[::1/top",
                                        b"//[?k=1"])
    def test_malformed_request_target_is_400(self, frontend, target):
        """``urlsplit`` raises on an unbalanced IPv6 bracket; that used to
        kill the handler task with a traceback and no response."""
        raw = exchange(frontend,
                       b"GET " + target + b" HTTP/1.1\r\nHost: x\r\n\r\n")
        status, headers, body = parse_response(raw)
        assert status == 400
        assert "connection: close" in headers
        assert "target" in json.loads(body)["error"]

    def test_request_body_is_not_parsed_as_the_next_request(self, frontend):
        """A POST with a body, pipelined before a GET: one 405 that closes
        the connection — the body must not come back as a spurious 400."""
        raw = exchange(frontend,
                       b"POST /top HTTP/1.1\r\nHost: x\r\n"
                       b"Content-Length: 11\r\n\r\nhello world"
                       b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert raw.count(b"HTTP/1.1 ") == 1
        status, headers, body = parse_response(raw)
        assert status == 405
        assert "connection: close" in headers
        assert json.loads(body) == {"error": "method POST not allowed"}

    @pytest.mark.parametrize("value", [b"nan", b"inf", b"Infinity", b"1e999",
                                       b"-inf", b"0"])
    def test_non_finite_deadline_is_400(self, frontend, value):
        """``nan <= 0`` is false and ``inf`` is an unbounded budget: both
        must be refused, not handed to ``asyncio.wait_for``."""
        raw = exchange(frontend,
                       b"GET /query?q=research&k=3 HTTP/1.1\r\nHost: x\r\n"
                       b"X-Request-Deadline: " + value + b"\r\n"
                       b"Connection: close\r\n\r\n")
        status, _headers, body = parse_response(raw)
        assert status == 400
        assert "X-Request-Deadline" in json.loads(body)["error"]


class TestMetrics:
    def test_metrics_exposes_frontend_and_serving_samples(self, service):
        gated = _GatedService(service)
        frontend = serve_frontend(gated)
        expired = obs.registry().counter_value(
            "frontend_deadline_exceeded_total")
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_raw(frontend.url, "/query?q=research&k=3",
                        headers={"X-Request-Deadline": "0.1"})
            assert excinfo.value.code == 504
            gated.gate.set()
            get_raw(frontend.url, "/query?q=research&k=3")
            _status, body = get_raw(frontend.url, "/metrics")
            text = body.decode("utf-8")
            # Every 504 is counted, and counted once.
            assert obs.registry().counter_value(
                "frontend_deadline_exceeded_total") == expired + 1
            assert "repro_frontend_deadline_exceeded_total" in text
            assert "repro_frontend_inflight" in text
            assert "repro_serving_store_generation" in text
            assert "repro_http_requests_total" in text
        finally:
            gated.gate.set()
            frontend.close()


class TestRollingRebuildThroughFrontend:
    def test_queries_survive_rolling_rebuild_of_replica_set(self, web,
                                                            corpus):
        ranker = Ranker().incremental(web)
        replica_set = ReplicaSet.from_incremental(ranker, corpus=corpus,
                                                  n_replicas=3,
                                                  drain_grace=0.05)
        replica_set._owns_ranker = True
        frontend = serve_frontend(replica_set)
        stop = threading.Event()
        failures = []
        drains_seen = []

        def hammer():
            while not stop.is_set():
                try:
                    status, _body = get_raw(frontend.url,
                                            "/query?q=research+database&k=3")
                    if status != 200:
                        failures.append(status)
                    readyz = get_json(frontend.url, "/readyz")
                    drains_seen.append(tuple(readyz["draining"]))
                except Exception as error:  # noqa: BLE001
                    failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            for number in range(3):
                ranker.add_document(
                    f"http://site000.example.org/live{number}.html")
            stop.set()
            for thread in threads:
                thread.join(60.0)
            assert failures == []
            assert replica_set.rolling_rebuilds == 3
            # Zero failed queries even though drains were observable.
            assert any(drained for drained in drains_seen)
            # After the dust settles every replica serves the new store.
            generations = {replica.service.store.generation
                           for replica in replica_set.replicas}
            assert len(generations) == 1
        finally:
            stop.set()
            frontend.close()
            replica_set.close()

    def test_readyz_reports_draining_replica_through_frontend(self, web,
                                                              corpus):
        ranking = layered_docrank(web)
        replica_set = ReplicaSet.from_ranking(ranking, web, n_replicas=2,
                                              corpus=corpus)
        frontend = serve_frontend(replica_set)
        try:
            replica_set.replicas[0].ready = False
            payload = get_json(frontend.url, "/readyz")
            assert payload["status"] == "ready"      # one replica remains
            assert payload["draining"] == ["replica-0"]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_raw(frontend.url, "/readyz?replica=replica-0")
            assert excinfo.value.code == 503
            status, _body = get_raw(frontend.url,
                                    "/readyz?replica=replica-1")
            assert status == 200
        finally:
            frontend.close()
            replica_set.close()


class TestLifecycle:
    def test_close_is_idempotent_and_releases_port(self, service):
        frontend = serve_frontend(service)
        assert frontend.port > 0
        url = frontend.url
        frontend.close()
        frontend.close()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(url + "/health", timeout=2)

    def test_context_manager(self, service):
        with serve_frontend(service) as frontend:
            assert get_json(frontend.url, "/health") == {"status": "ok"}

    def test_keep_alive_reuses_connection(self, service):
        import http.client

        frontend = serve_frontend(service)
        try:
            connection = http.client.HTTPConnection(frontend.host,
                                                    frontend.port,
                                                    timeout=10)
            for _ in range(3):
                connection.request("GET", "/query?q=research&k=2")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            connection.close()
        finally:
            frontend.close()

    def test_close_after_client_disconnect_destroys_no_pending_task(
            self, service, caplog):
        """Closing right after a keep-alive client hung up (its handler
        is still finishing) and with another connection idle must leave
        no task behind for the loop to destroy."""
        import gc
        import http.client
        import logging

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            for _ in range(10):
                frontend = serve_frontend(service)
                connections = [http.client.HTTPConnection(
                    frontend.host, frontend.port, timeout=10)
                    for _ in range(2)]
                for connection in connections:
                    connection.request("GET", "/query?q=research&k=2")
                    connection.getresponse().read()
                connections[0].close()  # connections[1] stays idle
                frontend.close()
                connections[1].close()
                del frontend
                gc.collect()
        assert [record.getMessage() for record in caplog.records
                if record.levelno >= logging.ERROR] == []
