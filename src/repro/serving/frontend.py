"""The HTTP server of the serving layer: asyncio + admission control.

:class:`AsyncRankingServer` is the one HTTP front end.  A single-threaded
asyncio loop parses requests and answers each with
:func:`repro.serving.httpd.route_body`, so the JSON a client reads is
exactly ``json.dumps`` of what the router returns.  Where that call runs
depends on what it can cost:

* ``/score``, ``/health``, ``/healthz``, ``/readyz`` and ``/top`` for at
  most :data:`INLINE_TOP_MAX_K` results run **on the event loop**: each
  is a bounded read (a dictionary lookup, a counter read, ``k`` cached
  JSON fragments joined; the first global ``/top`` of a store generation
  also sorts its global order, ~1 ms per 10k documents), cheaper than
  the hand-off to a worker thread.  The loop can wait on the service lock only for a
  store swap's critical section — rebuilds are double-buffered and never
  hold it.  The bound is a module constant because no deployment has a
  reason to move it: a ``/top`` page is tens of results, and beyond the
  bound the only change is which thread answers.
* ``/query`` (text scoring, milliseconds), ``/stats`` and larger ``/top``
  requests run on a small worker pool.

Around the ``/query`` call it shapes load:

* **admission control and backpressure** — a bounded in-flight budget; a
  request beyond it is shed *immediately* with ``429`` and a
  ``Retry-After`` hint instead of queueing without bound, and every
  admitted request carries a deadline budget — one that expires while
  still queued for a worker is answered ``504`` without ever reaching
  the service.
* **no duplicate work** — concurrent requests for the same text compute
  once: the service's :meth:`~repro.serving.cache.QueryCache.single_flight`
  makes the others wait for the first one's result.
* **replica awareness** — fronting a
  :class:`~repro.serving.replicas.ReplicaSet` (anything with the
  ``RankingService`` query surface works), queries keep flowing through
  rolling zero-downtime rebuilds, and ``/readyz`` exposes the drain state.

The hand-rolled HTTP/1.1 reader enforces the limits of the stdlib
``http.server``: a request line over 64 KiB is answered ``414``, an
oversized header line or more than 100 headers ``431``, and a request
with a method other than ``GET`` closes the connection (its body is never
parsed as the next request).
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import ceil, isfinite
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import obs
from ..exceptions import GraphStructureError, ValidationError
from .httpd import (
    _KNOWN_ENDPOINTS,
    ACCESS_LOGGER,
    _ClientError,
    _str_param,
    enable_access_log,
    parse_query_request,
    route_body,
    serving_samples,
)

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 414: "Request-URI Too Long",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}

#: Request-parsing limits, the ones ``http.server`` enforces: the longest
#: request or header line accepted, and the most headers per request.
_MAX_LINE = 65536
_MAX_HEADERS = 100


#: Routes answered on the event loop instead of the worker pool (see the
#: module docstring): a dictionary lookup or a counter read each.
_INLINE_ROUTES = frozenset({"/score", "/health", "/healthz", "/readyz"})

#: ``/top`` joins them up to this many results: ~0.1 ms to join that many
#: cached fragments, about a millisecond the one time none of the
#: documents has been served (and so JSON-encoded) before.
INLINE_TOP_MAX_K = 256


def _runs_inline(path: str, params: Dict[str, List[str]]) -> bool:
    """Whether a non-``/query`` request is answered on the event loop."""
    if path != "/top":
        return path in _INLINE_ROUTES
    raw = _str_param(params, "k")
    try:
        return raw is None or int(raw) <= INLINE_TOP_MAX_K
    except ValueError:
        return True  # the router's 400 costs nothing


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
    max_inflight:
        Admission-control bound on concurrently admitted ``/query``
        requests; beyond it requests are shed with ``429``.
    deadline:
        Default per-request budget in seconds (clients may override per
        request with an ``X-Request-Deadline`` header); a request not
        answered within it gets ``504``, and one still queued for a
        worker by then never reaches the service.
    retry_after:
        The ``Retry-After`` hint (seconds) sent with ``429`` responses.
    workers:
        Threads of the backend executor the event loop dispatches
        service calls to (service calls release the loop, not the GIL).
    """

    max_inflight: int = 256
    deadline: float = 5.0
    retry_after: float = 0.05
    workers: int = 4

    def __post_init__(self) -> None:
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


class AsyncRankingServer:
    """An asyncio JSON/HTTP server over a service or replica set.

    Serves the routes of :func:`~repro.serving.httpd.route_request` (and
    emits exactly its JSON), plus ``/metrics`` and the load-shaping of
    :class:`FrontendConfig` on ``/query``: bounded admission with fast
    ``429`` shedding and per-request deadlines.

    The event loop runs in a dedicated daemon thread, so the constructor
    returns with the socket bound (``port=0`` picks a free port) and the
    server already answering — drop-in use from synchronous code; call
    :meth:`close` to tear everything down.

    While the server lives, a collector is registered with the telemetry
    registry so ``/metrics`` scrapes also expose the service's own state
    (cache hit rate, store generation, uptime) without double accounting;
    :meth:`close` removes it.
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
        self._server = await asyncio.start_server(self._handle_client,
                                                  host, port,
                                                  limit=_MAX_LINE)
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

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _ClientError as error:
                    # Unparseable or over a limit: say why, then hang up
                    # — whatever follows on the wire cannot be trusted.
                    obs.inc("http_requests_total", path="other",
                            status=str(error.status))
                    writer.write(self._encode(
                        error.status,
                        json.dumps({"error": str(error)}).encode("utf-8"),
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, version, headers, path, params = request
                # A non-GET request may carry a body this server never
                # reads; closing keeps it from being parsed as a request.
                keep_alive = (method == "GET" and version == "HTTP/1.1" and
                              headers.get("connection", "").lower()
                              != "close")
                started = perf_counter()
                status, body, content_type, extra = \
                    await self._respond(method, path, params, headers)
                writer.write(self._encode(status, body,
                                          content_type=content_type,
                                          extra=extra,
                                          keep_alive=keep_alive))
                await writer.drain()
                duration = perf_counter() - started
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
    async def _read_request(reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, str,
                                                Dict[str, str], str,
                                                Dict[str, List[str]]]]:
        """Read one request head: ``(method, target, version, headers,
        path, params)`` — the target and its one parse.

        ``None`` at end of stream; :class:`_ClientError` (400/414/431) for
        a head that is malformed or over ``_MAX_LINE`` / ``_MAX_HEADERS``
        (``readline`` raises ``ValueError`` past the stream limit, and
        ``urlsplit`` on a target like ``//[``).
        """
        try:
            request = await reader.readline()
        except ValueError:
            raise _ClientError(414, "request line too long") from None
        if not request:
            return None
        parts = request.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _ClientError(400, "malformed request line")
        try:
            split = urlsplit(parts[1])
            params = parse_qs(split.query)
        except ValueError as error:
            raise _ClientError(400, f"malformed request target: {error}") \
                from None
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                raise _ClientError(431, "header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                return (parts[0], parts[1], parts[2], headers, split.path,
                        params)
            if len(headers) >= _MAX_HEADERS:
                raise _ClientError(431, "too many headers")
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
    async def _respond(self, method: str, path: str,
                       params: Dict[str, List[str]], headers: Dict[str, str]
                       ) -> Tuple[int, bytes, str, Tuple[str, ...]]:
        if method != "GET":
            return (405, json.dumps({"error": f"method {method} not "
                                              f"allowed"}).encode("utf-8"),
                    "application/json", ())
        try:
            if path == "/metrics":
                return (200, obs.render_prometheus().encode("utf-8"),
                        "text/plain; version=0.0.4; charset=utf-8", ())
            call = partial(route_body, self.service, path, params,
                           uptime_seconds=self.uptime_seconds)
            if path == "/query":
                body, status = await self._admitted(call, params, headers)
            elif _runs_inline(path, params):
                body, status = call()
            else:
                body, status = await self._loop.run_in_executor(
                    self._executor, call)
            return status, body, "application/json", ()
        except _ClientError as error:
            payload, status = {"error": str(error)}, error.status
        except Overloaded as error:
            retry_after = max(1, ceil(error.retry_after))
            return (429, json.dumps({"error": str(error),
                                     "retry_after":
                                         error.retry_after}).encode("utf-8"),
                    "application/json", (f"Retry-After: {retry_after}",))
        except DeadlineExceeded as error:
            obs.inc("frontend_deadline_exceeded_total")
            payload, status = {"error": str(error)}, 504
        except (ValidationError, GraphStructureError) as error:
            payload, status = {"error": str(error)}, 400
        except Exception as error:  # noqa: BLE001 - surface as 500
            payload, status = {"error": f"internal error: {error}"}, 500
        return (status, json.dumps(payload).encode("utf-8"),
                "application/json", ())

    async def _admitted(self, call, params: Dict[str, List[str]],
                        headers: Dict[str, str]):
        """Run a ``/query`` router *call* under admission and a deadline.

        Malformed requests are rejected (400) before they can be shed
        (429).  ``wait_for`` bounds queue time and service time together;
        on expiry it cancels the executor future, so a request still
        waiting for a worker is dropped from the pool's queue and never
        reaches the service.
        """
        parse_query_request(params)
        deadline = self.config.deadline
        raw_deadline = headers.get("x-request-deadline")
        if raw_deadline is not None:
            try:
                deadline = float(raw_deadline)
            except ValueError:
                raise _ClientError(400, "X-Request-Deadline must be a "
                                        f"number, got {raw_deadline!r}") \
                    from None
            # NaN fails every comparison and inf is no budget at all:
            # either would slip past the configured deadline.
            if not (isfinite(deadline) and deadline > 0):
                raise _ClientError(400, "X-Request-Deadline must be "
                                        "positive and finite")
        self._admission.admit()
        try:
            return await asyncio.wait_for(
                self._loop.run_in_executor(self._executor, call),
                timeout=deadline)
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
            # — the open (idle keep-alive, or just disconnected)
            # connections — so stopping the loop destroys no pending task.
            # Closing a connection's transport ends its handler at the
            # next read; one still inside a backend call gets a bounded
            # wait.
            self._server.close()
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
