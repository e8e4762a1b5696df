"""The asyncio high-QPS serving front end: coalescing + admission control.

The threaded :class:`~repro.serving.httpd.RankingHTTPServer` spends one OS
thread per connection and answers every ``/query`` with its own service
call; under a concurrent burst that means thread thrash and N identical
cache misses racing each other.  This front end replaces that edge with a
single-threaded asyncio server plus three load-shaping mechanisms:

* **request coalescing** — concurrent ``/query`` requests arriving while a
  previous batch is still in flight (or within an optional window) merge into
  one deduplicated :meth:`RankingService.query_many` call; a burst of
  duplicate queries costs one retrieval, and engine/cache/lock work is
  amortised across the whole batch.  Coalescing is invisible to
  correctness: responses are byte-identical to the per-request path.
* **admission control and backpressure** — a bounded in-flight budget; a
  request beyond it is shed *immediately* with ``429`` and a
  ``Retry-After`` hint instead of queueing without bound, and every
  admitted request carries a deadline budget — one that expires while
  still coalescing is answered ``504`` without ever reaching the engine.
* **replica awareness** — fronting a
  :class:`~repro.serving.replicas.ReplicaSet` (anything with the
  ``RankingService`` query surface works), queries keep flowing through
  rolling zero-downtime rebuilds, and ``/readyz`` exposes the drain state.

The HTTP surface is identical to the threaded server (same routes, same
JSON bytes — both route through :func:`repro.serving.httpd.route_request`),
so clients cannot tell the front ends apart except by throughput.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import ceil
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import obs
from ..exceptions import GraphStructureError, ValidationError
from .httpd import (
    _KNOWN_ENDPOINTS,
    ACCESS_LOGGER,
    _ClientError,
    enable_access_log,
    parse_query_request,
    query_response,
    route_request,
    serving_samples,
)

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}


class Overloaded(Exception):
    """The in-flight budget is exhausted; shed with 429 + Retry-After."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceeded(Exception):
    """A request's deadline budget expired before it could be served."""


@dataclass(frozen=True)
class FrontendConfig:
    """Tuning knobs of the async front end.

    Attributes
    ----------
    coalesce:
        Whether concurrent ``/query`` requests are batched at all; off,
        every request issues its own ``query_many`` call (the
        benchmark's per-request baseline).
    coalesce_window:
        Seconds the batcher waits after the first request of a burst
        before flushing, letting the rest of the burst pile in.  At the
        default ``0`` a lone request pays no wait, and requests arriving
        while a batch is *in flight* still coalesce into the next one.
    max_batch:
        Most queries sent to the backend in one ``query_many`` call;
        larger coalesced batches are chunked.
    max_inflight:
        Admission-control bound on concurrently admitted ``/query``
        requests; beyond it requests are shed with ``429``.
    deadline:
        Default per-request budget in seconds (clients may override per
        request with an ``X-Request-Deadline`` header); a request still
        waiting for a batch slot past its deadline is answered ``504``.
    retry_after:
        The ``Retry-After`` hint (seconds) sent with ``429`` responses.
    workers:
        Threads of the backend executor the event loop dispatches
        service calls to (service calls release the loop, not the GIL).
    """

    coalesce: bool = True
    coalesce_window: float = 0.0
    max_batch: int = 128
    max_inflight: int = 256
    deadline: float = 5.0
    retry_after: float = 0.05
    workers: int = 4

    def __post_init__(self) -> None:
        if self.coalesce_window < 0:
            raise ValidationError("coalesce_window must be non-negative")
        if self.max_batch < 1:
            raise ValidationError("max_batch must be at least 1")
        if self.max_inflight < 1:
            raise ValidationError("max_inflight must be at least 1")
        if self.deadline <= 0:
            raise ValidationError("deadline must be positive")
        if self.retry_after < 0:
            raise ValidationError("retry_after must be non-negative")
        if self.workers < 1:
            raise ValidationError("workers must be at least 1")


class AdmissionController:
    """Bounded in-flight budget with fast shedding (single-threaded).

    Lives on the event loop: no locks, just counters.  ``admit`` raises
    :class:`Overloaded` the moment the budget is exhausted — the cheap
    "fail fast at the edge" half of backpressure — and the gauge/counter
    pair (``frontend_inflight``, ``frontend_shed_total``) makes shedding
    visible on ``/metrics``.
    """

    def __init__(self, max_inflight: int, retry_after: float) -> None:
        self._max_inflight = max_inflight
        self._retry_after = retry_after
        self.inflight = 0
        self.shed = 0
        self.admitted = 0

    def admit(self) -> None:
        if self.inflight >= self._max_inflight:
            self.shed += 1
            obs.inc("frontend_shed_total")
            raise Overloaded(
                f"too many in-flight requests "
                f"({self.inflight}/{self._max_inflight})",
                self._retry_after)
        self.inflight += 1
        self.admitted += 1
        obs.set_gauge("frontend_inflight", float(self.inflight))

    def release(self) -> None:
        self.inflight -= 1
        obs.set_gauge("frontend_inflight", float(self.inflight))


class QueryCoalescer:
    """Merges concurrent query requests into deduplicated backend batches.

    Requests accumulate in a pending map keyed by their option tuple and
    text; one batcher task flushes the map as soon as the previous flush's
    backend call returns (plus ``coalesce_window`` seconds, when set), so a
    saturated backend coalesces *by itself*: everything that arrived
    during flight N forms flight N+1.  Duplicate texts fan one result
    out to every waiter — together with the batch-level deduplication in
    :meth:`RankingService.query_many` a burst of identical queries costs
    exactly one retrieval.
    """

    def __init__(self, service, config: FrontendConfig, *,
                 loop: asyncio.AbstractEventLoop,
                 executor: ThreadPoolExecutor) -> None:
        self._service = service
        self._config = config
        self._loop = loop
        self._executor = executor
        #: {(k, rule, weight, segment): {text: [(future, deadline_ts)]}}
        self._pending: Dict[Tuple, Dict[str, List[Tuple[asyncio.Future,
                                                        float]]]] = {}
        self._pending_count = 0
        self._wakeup = asyncio.Event()
        self.batches = 0
        self.coalesced_requests = 0
        self.dedup_hits = 0
        self._task = loop.create_task(self._run())

    async def submit(self, text: str, k: Optional[int],
                     rule: Optional[str], weight: Optional[float],
                     segment: Optional[str], deadline_ts: float):
        """Enqueue one query; resolves with its hits tuple."""
        future: asyncio.Future = self._loop.create_future()
        options = (k, rule, weight, segment)
        self._pending.setdefault(options, {}) \
            .setdefault(text, []).append((future, deadline_ts))
        self._pending_count += 1
        obs.set_gauge("frontend_queue_depth", float(self._pending_count))
        self._wakeup.set()
        return await future

    async def _run(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._pending:
                continue
            if self._config.coalesce_window > 0:
                # Let the rest of the burst pile in.  While the backend
                # call below is awaited, further arrivals buffer too —
                # in-flight coalescing needs no window at all.
                await asyncio.sleep(self._config.coalesce_window)
            pending, self._pending = self._pending, {}
            batch_size, self._pending_count = self._pending_count, 0
            obs.set_gauge("frontend_queue_depth", 0.0)
            self.batches += 1
            self.coalesced_requests += batch_size
            obs.inc("frontend_batches_total")
            obs.inc("frontend_coalesced_requests_total", float(batch_size))
            obs.observe("frontend_coalesce_batch_size", float(batch_size))
            await asyncio.gather(*[self._flush_group(options, groups)
                                   for options, groups in pending.items()])

    async def _flush_group(self, options: Tuple,
                           groups: Dict[str, List[Tuple[asyncio.Future,
                                                        float]]]) -> None:
        k, rule, weight, segment = options
        now = self._loop.time()
        texts: List[str] = []
        for text, waiters in groups.items():
            live = []
            for future, deadline_ts in waiters:
                if deadline_ts < now:
                    # Expired while coalescing: fail fast, never touch
                    # the engine on its behalf.
                    if not future.done():
                        future.set_exception(DeadlineExceeded(
                            "deadline exceeded while queued"))
                    obs.inc("frontend_deadline_exceeded_total")
                else:
                    live.append((future, deadline_ts))
            groups[text] = live
            if live:
                texts.append(text)
        self.dedup_hits += sum(len(groups[text]) - 1 for text in texts)
        if not texts:
            return
        # Spread the deduplicated texts over the worker pool: one chunk
        # per worker (capped at max_batch), dispatched concurrently, so a
        # coalesced burst gets batch-level dedup AND executor parallelism.
        chunk_size = max(1, min(self._config.max_batch,
                                -(-len(texts) // self._config.workers)))
        chunks = [texts[start:start + chunk_size]
                  for start in range(0, len(texts), chunk_size)]

        async def run_chunk(chunk: List[str]) -> None:
            call = partial(self._service.query_many, chunk, k,
                           rule=rule, weight=weight, segment=segment)
            try:
                batches = await self._loop.run_in_executor(self._executor,
                                                           call)
            except BaseException as error:  # noqa: BLE001 - fan out as-is
                for text in chunk:
                    for future, _deadline in groups[text]:
                        if not future.done():
                            future.set_exception(error)
            else:
                for text, hits in zip(chunk, batches):
                    for future, _deadline in groups[text]:
                        if not future.done():
                            future.set_result(hits)

        await asyncio.gather(*[run_chunk(chunk) for chunk in chunks])

    async def close(self) -> None:
        """Stop the batcher task and fail every still-queued request."""
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)
        for groups in self._pending.values():
            for waiters in groups.values():
                for future, _deadline in waiters:
                    if not future.done():
                        future.set_exception(
                            ConnectionError("front end shutting down"))
        self._pending.clear()
        self._pending_count = 0


class AsyncRankingServer:
    """An asyncio JSON/HTTP front end over a service or replica set.

    Speaks the same routes (and emits byte-identical JSON) as
    :class:`~repro.serving.httpd.RankingHTTPServer`, plus the
    load-shaping of :class:`FrontendConfig`: coalesced ``/query``
    handling, bounded admission with fast ``429`` shedding, per-request
    deadlines, and ``/readyz`` readiness during rolling rebuilds.

    The event loop runs in a dedicated daemon thread, so the constructor
    returns with the socket bound (``port=0`` picks a free port) and the
    server already answering — mirroring
    :func:`~repro.serving.httpd.serve_ranking`'s contract for drop-in use
    from synchronous code; call :meth:`close` to tear everything down.
    """

    def __init__(self, service, *, host: str = "127.0.0.1", port: int = 0,
                 config: Optional[FrontendConfig] = None,
                 verbose: bool = False) -> None:
        self.service = service
        self.config = config or FrontendConfig()
        self.started_at = monotonic()
        self._closed = False
        if verbose:
            enable_access_log()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-frontend", daemon=True)
        self._thread.start()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-frontend-worker")
        self._admission = AdmissionController(self.config.max_inflight,
                                              self.config.retry_after)
        #: Handler task -> writer of every open connection (touched on
        #: the loop thread only).
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        obs.registry().add_collector(self._collect_serving_samples)
        bound = asyncio.run_coroutine_threadsafe(self._start(host, port),
                                                 self._loop)
        self._host, self._port = bound.result(timeout=10.0)

    def _collect_serving_samples(self):
        """Scrape-time samples of the backing service's own counters."""
        return serving_samples(self.service, self.uptime_seconds)

    async def _start(self, host: str, port: int) -> Tuple[str, int]:
        self._coalescer = QueryCoalescer(self.service, self.config,
                                         loop=self._loop,
                                         executor=self._executor)
        self._server = await asyncio.start_server(self._handle_client,
                                                  host, port)
        address = self._server.sockets[0].getsockname()
        return address[0], address[1]

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        """Bound host."""
        return self._host

    @property
    def port(self) -> int:
        """Bound port (useful with ``port=0``)."""
        return self._port

    @property
    def url(self) -> str:
        """Base URL of the endpoint."""
        return f"http://{self._host}:{self._port}"

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the server object was created."""
        return monotonic() - self.started_at

    @property
    def admission(self) -> AdmissionController:
        """The admission controller (inflight/shed counters)."""
        return self._admission

    @property
    def coalescer(self) -> QueryCoalescer:
        """The query coalescer (batch/dedup counters)."""
        return self._coalescer

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            while True:
                request = await reader.readline()
                if not request:
                    break
                parts = request.decode("latin-1").strip().split()
                if len(parts) != 3:
                    writer.write(self._encode(400, json.dumps(
                        {"error": "malformed request line"}).encode()))
                    break
                method, target, version = parts
                headers = await self._read_headers(reader)
                keep_alive = (version == "HTTP/1.1" and
                              headers.get("connection", "").lower()
                              != "close")
                started = perf_counter()
                status, body, content_type, extra = \
                    await self._respond(method, target, headers)
                writer.write(self._encode(status, body,
                                          content_type=content_type,
                                          extra=extra,
                                          keep_alive=keep_alive))
                await writer.drain()
                duration = perf_counter() - started
                path = urlsplit(target).path
                endpoint = path if path in _KNOWN_ENDPOINTS else "other"
                obs.inc("http_requests_total", path=endpoint,
                        status=str(status))
                obs.observe("http_request_seconds", duration, path=endpoint)
                ACCESS_LOGGER.info("%s %s %d %.2fms", method, target,
                                   status, duration * 1000.0)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):  # pragma: no cover - client
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            finally:
                del self._connections[handler]

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    @staticmethod
    def _encode(status: int, body: bytes, *,
                content_type: str = "application/json",
                extra: Tuple[str, ...] = (),
                keep_alive: bool = True) -> bytes:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}"]
        lines.extend(extra)
        if not keep_alive:
            lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #
    async def _respond(self, method: str, target: str,
                       headers: Dict[str, str]
                       ) -> Tuple[int, bytes, str, Tuple[str, ...]]:
        if method != "GET":
            return (405, json.dumps({"error": f"method {method} not "
                                              f"allowed"}).encode("utf-8"),
                    "application/json", ())
        split = urlsplit(target)
        params = parse_qs(split.query)
        try:
            if split.path == "/metrics":
                return (200, obs.render_prometheus().encode("utf-8"),
                        "text/plain; version=0.0.4; charset=utf-8", ())
            if split.path == "/query":
                payload, status = await self._respond_query(params, headers)
            else:
                payload, status = await self._loop.run_in_executor(
                    self._executor, partial(route_request, self.service,
                                            split.path, params,
                                            uptime_seconds=
                                            self.uptime_seconds))
        except _ClientError as error:
            payload, status = {"error": str(error)}, error.status
        except Overloaded as error:
            retry_after = max(1, ceil(error.retry_after))
            return (429, json.dumps({"error": str(error),
                                     "retry_after":
                                         error.retry_after}).encode("utf-8"),
                    "application/json", (f"Retry-After: {retry_after}",))
        except DeadlineExceeded as error:
            payload, status = {"error": str(error)}, 504
        except (ValidationError, GraphStructureError) as error:
            payload, status = {"error": str(error)}, 400
        except Exception as error:  # noqa: BLE001 - surface as 500
            payload, status = {"error": f"internal error: {error}"}, 500
        return (status, json.dumps(payload).encode("utf-8"),
                "application/json", ())

    async def _respond_query(self, params: Dict[str, List[str]],
                             headers: Dict[str, str]
                             ) -> Tuple[Dict[str, Any], int]:
        queries, k, rule, weight, segment = parse_query_request(params)
        deadline = self.config.deadline
        raw_deadline = headers.get("x-request-deadline")
        if raw_deadline is not None:
            try:
                deadline = float(raw_deadline)
            except ValueError:
                raise _ClientError(400, "X-Request-Deadline must be a "
                                        f"number, got {raw_deadline!r}") \
                    from None
            if deadline <= 0:
                raise _ClientError(400,
                                   "X-Request-Deadline must be positive")
        self._admission.admit()
        try:
            if self.config.coalesce:
                deadline_ts = self._loop.time() + deadline
                # wait_for bounds the whole wait (queue time AND backend
                # flight); the coalescer's own expiry check just avoids
                # dispatching work for requests already past due.
                batches = await asyncio.wait_for(
                    asyncio.gather(*[
                        self._coalescer.submit(text, k, rule, weight,
                                               segment, deadline_ts)
                        for text in queries]),
                    timeout=deadline)
            else:
                call = partial(self.service.query_many, queries, k,
                               rule=rule, weight=weight, segment=segment)
                batches = await asyncio.wait_for(
                    self._loop.run_in_executor(self._executor, call),
                    timeout=deadline)
            payload = await self._loop.run_in_executor(
                self._executor, partial(query_response, self.service,
                                        queries, batches, k, segment))
            return payload, 200
        except asyncio.TimeoutError:
            raise DeadlineExceeded("deadline exceeded") from None
        finally:
            self._admission.release()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop serving, drain the loop and release every resource."""
        if self._closed:
            return
        self._closed = True
        obs.registry().remove_collector(self._collect_serving_samples)

        async def _shutdown() -> None:
            # Stop listening, then finish every task the loop still owns
            # — the batcher and the open (idle keep-alive, or just
            # disconnected) connections — so stopping the loop destroys
            # no pending task.  Closing a connection's transport ends its
            # handler at the next read; one still inside a backend call
            # gets a bounded wait.
            self._server.close()
            await self._coalescer.close()
            for writer in self._connections.values():
                writer.close()
            if self._connections:
                await asyncio.wait(list(self._connections), timeout=5.0)
            await self._server.wait_closed()

        asyncio.run_coroutine_threadsafe(_shutdown(),
                                         self._loop).result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "AsyncRankingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_frontend(service, *, host: str = "127.0.0.1", port: int = 0,
                   config: Optional[FrontendConfig] = None,
                   verbose: bool = False, **overrides) -> AsyncRankingServer:
    """Convenience constructor: build and start an async front end.

    Keyword *overrides* build a :class:`FrontendConfig` when *config* is
    not given (``serve_frontend(service, max_inflight=64)``).
    """
    if config is None:
        config = FrontendConfig(**overrides)
    elif overrides:
        raise ValidationError("pass either config or field overrides, "
                              "not both")
    return AsyncRankingServer(service, host=host, port=port, config=config,
                              verbose=verbose)
