"""The JSON routes of a :class:`~repro.serving.service.RankingService`.

This module is the transport-free half of the HTTP endpoint:
:func:`route_request` turns a path and its parsed query string into
service calls and a JSON-ready payload, :func:`route_body` into the encoded
body (``json.dumps`` of that payload, except that ``/top`` is assembled
from cached per-document fragments), and
:class:`~repro.serving.frontend.AsyncRankingServer` is the one server that
puts it on a socket.  Tests and benchmarks call :func:`route_request`
directly as the oracle for what the server must answer, byte for byte.

Routes (all ``GET``, all returning ``application/json``):

``/top?k=10[&site=example.org][&segment=researchers]``
    Current global (or per-site) top-k documents, optionally ranked by a
    personalisation segment's score column (``400`` on unknown segments).
``/query?q=research+database[&q=more+queries][&k=10][&rule=linear|rrf][&weight=0.5][&segment=researchers]``
    Combined text+link search; repeated ``q`` parameters form a batch
    answered through :meth:`RankingService.query_many`.  With ``segment``
    the link component is the segment's score column.
``/score?doc=42``
    O(1) point lookup of one document's score.
``/stats``
    Service / cache / rebuild statistics.
``/health``
    Liveness probe.
``/healthz``
    Structured health: store generation, shard count, uptime.
``/readyz[?replica=name]``
    Readiness (distinct from liveness): ``503`` while the queried replica
    is draining for a rolling rebuild; always ``200`` for a single
    (double-buffered) service.  Backed by ``ReplicaSet.readiness()`` when
    the server fronts a replica set.
``/metrics``
    The process telemetry registry (:mod:`repro.obs`) in Prometheus text
    exposition format — the one non-JSON route, answered by the server
    itself rather than the router.

Errors are JSON too: ``400`` for bad parameters, ``404`` for unknown paths
or unknown sites/documents.

Every request is timed into the ``http_request_seconds`` histogram and
counted in ``http_requests_total`` (labelled by endpoint and status), and
emits a structured access line (method, path, status, duration_ms) on the
``repro.serving`` logger — silent by default (the logger sits at
``WARNING``), enabled with :func:`enable_access_log` or
``repro serve --access-log``.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..exceptions import GraphStructureError
from .store import _document_payload

#: The serving access/error logger.  Pinned to WARNING at import so the
#: per-request INFO access lines stay silent even under a root logger
#: configured at INFO; :func:`enable_access_log` opts in.
ACCESS_LOGGER = logging.getLogger("repro.serving")
ACCESS_LOGGER.setLevel(logging.WARNING)

#: Endpoints the per-request metrics label by path; anything else (404s,
#: scanners) is folded into ``other`` to bound label cardinality.
_KNOWN_ENDPOINTS = frozenset(
    {"/health", "/healthz", "/readyz", "/stats", "/top", "/query", "/score",
     "/metrics"})


def enable_access_log(stream=None) -> logging.Logger:
    """Switch the ``repro.serving`` access log on (one line per request).

    Sets the logger to ``INFO`` and attaches a stderr (or *stream*)
    handler if it has none.  Returns the logger.
    """
    ACCESS_LOGGER.setLevel(logging.INFO)
    if not ACCESS_LOGGER.handlers:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(message)s"))
        ACCESS_LOGGER.addHandler(handler)
    return ACCESS_LOGGER


class _ClientError(Exception):
    """A request error mapped to a 4xx JSON response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# --------------------------------------------------------------------- #
# Parameter parsing
# --------------------------------------------------------------------- #
def _str_param(params: Dict[str, List[str]], name: str) -> Optional[str]:
    values = params.get(name)
    return values[-1] if values else None


def _int_param(params: Dict[str, List[str]], name: str, *,
               default: Optional[int] = None,
               required: bool = False) -> Optional[int]:
    raw = _str_param(params, name)
    if raw is None:
        if required:
            raise _ClientError(400, f"missing required parameter {name!r}")
        return default
    try:
        return int(raw)
    except ValueError:
        raise _ClientError(400,
                           f"parameter {name!r} must be an integer, "
                           f"got {raw!r}") from None


def _float_param(params: Dict[str, List[str]],
                 name: str) -> Optional[float]:
    raw = _str_param(params, name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise _ClientError(400,
                           f"parameter {name!r} must be a number, "
                           f"got {raw!r}") from None


def _hit_payload(service, hit) -> Dict[str, Any]:
    payload = {"doc_id": hit.doc_id,
               "combined_score": hit.combined_score,
               "query_score": hit.query_score,
               "link_score": hit.link_score}
    record = service.describe(hit.doc_id)
    if record is not None:
        payload["url"] = record.url
        payload["site"] = record.site
    return payload


def _parse_top_request(params: Dict[str, List[str]]
                       ) -> Tuple[int, Optional[str], Optional[str]]:
    """``(k, site, segment)`` of a ``/top`` request."""
    return (_int_param(params, "k", default=10), _str_param(params, "site"),
            _str_param(params, "segment"))


def parse_query_request(params: Dict[str, List[str]]
                        ) -> Tuple[List[str], Optional[int], Optional[str],
                                   Optional[float], Optional[str]]:
    """Validate a ``/query`` request's parameters.

    Returns ``(queries, k, rule, weight, segment)``; raises
    :class:`_ClientError` on malformed input.  The server calls it ahead
    of admission control, so a malformed request is a ``400`` even under
    overload.
    """
    queries = params.get("q")
    if not queries:
        raise _ClientError(400, "missing required parameter 'q'")
    k = _int_param(params, "k", default=10)
    rule = _str_param(params, "rule")
    if rule not in (None, "linear", "rrf"):
        raise _ClientError(400, f"unknown rule {rule!r}")
    weight = _float_param(params, "weight")
    segment = _str_param(params, "segment")
    return queries, k, rule, weight, segment


def query_response(service, queries: List[str], batches,
                   k: Optional[int],
                   segment: Optional[str]) -> Dict[str, Any]:
    """The ``/query`` response body for already-computed result batches."""
    results = [{"query": text,
                "hits": [_hit_payload(service, hit) for hit in hits]}
               for text, hits in zip(queries, batches)]
    payload: Dict[str, Any] = {"k": k, "results": results}
    if segment is not None:
        payload["segment"] = segment
    return payload


def route_request(service, path: str, params: Dict[str, List[str]], *,
                  uptime_seconds: float = 0.0
                  ) -> Tuple[Dict[str, Any], int]:
    """Translate one GET request into service calls; the shared router.

    *service* is anything with the :class:`RankingService` query surface —
    a single service or a :class:`~repro.serving.replicas.ReplicaSet`.
    The server sends ``json.dumps`` of the returned payload unchanged;
    raises :class:`_ClientError` for 4xx/5xx conditions.
    """
    if path == "/health":
        return {"status": "ok"}, 200
    if path == "/healthz":
        store = service.store
        return {"status": "ok",
                "generation": store.generation,
                "shards": store.n_shards,
                "documents": store.n_documents,
                "queries_served": service.queries_served,
                "uptime_seconds": uptime_seconds}, 200
    if path == "/readyz":
        # Readiness is distinct from liveness: a healthy process may
        # still be draining replicas for a rolling rebuild.  A single
        # service is always ready (its rebuilds are double-buffered); a
        # ReplicaSet reports its per-replica drain state.
        readiness_of = getattr(service, "readiness", None)
        if readiness_of is None:
            payload: Dict[str, Any] = {"status": "ready", "ready": True,
                                       "generation":
                                           service.store.generation}
            return payload, 200
        readiness = readiness_of()
        replica = _str_param(params, "replica")
        if replica is not None:
            detail = next((entry for entry in readiness["replicas"]
                           if entry["name"] == replica), None)
            if detail is None:
                raise _ClientError(404, f"unknown replica {replica!r}")
            status = 200 if detail["ready"] else 503
            return {"status": "ready" if detail["ready"] else "draining",
                    "ready": detail["ready"], "replica": detail}, status
        status = 200 if readiness["ready"] else 503
        return {"status": "ready" if readiness["ready"] else "draining",
                "ready": readiness["ready"],
                "draining": readiness["draining"],
                "replicas": readiness["replicas"]}, status
    if path == "/stats":
        return service.stats(), 200
    if path == "/top":
        k, site, segment = _parse_top_request(params)
        try:
            documents = service.top(k, site=site, segment=segment)
        except GraphStructureError as error:
            raise _ClientError(404, str(error)) from None
        payload = {"k": k, "site": site,
                   "results": [_document_payload(d) for d in documents]}
        # Only segment-qualified requests mention the segment — the
        # segment-less response body stays byte-identical to 1.3.
        if segment is not None:
            payload["segment"] = segment
        return payload, 200
    if path == "/query":
        queries, k, rule, weight, segment = parse_query_request(params)
        batches = service.query_many(queries, k, rule=rule,
                                     weight=weight, segment=segment)
        return query_response(service, queries, batches, k, segment), 200
    if path == "/score":
        doc_id = _int_param(params, "doc", required=True)
        document = service.describe(doc_id)
        if document is None:
            raise _ClientError(404, f"unknown document id {doc_id}")
        return _document_payload(document), 200
    raise _ClientError(404, f"unknown path {path!r}")


def route_body(service, path: str, params: Dict[str, List[str]], *,
               uptime_seconds: float = 0.0) -> Tuple[bytes, int]:
    """The encoded response body of one GET request — what the server calls.

    Always ``json.dumps(route_request(...)[0])`` byte for byte; ``/top``
    gets there through :meth:`RankingService.top_body`, which joins cached
    per-document fragments instead of building and dumping a payload.
    """
    if path == "/top":
        k, site, segment = _parse_top_request(params)
        try:
            return service.top_body(k, site=site, segment=segment), 200
        except GraphStructureError as error:
            raise _ClientError(404, str(error)) from None
    payload, status = route_request(service, path, params,
                                    uptime_seconds=uptime_seconds)
    return json.dumps(payload).encode("utf-8"), status


def serving_samples(service, uptime_seconds: float
                    ) -> Iterable[Tuple[str, str, Dict[str, str], float]]:
    """Scrape-time ``serving_*`` samples of one service's own counters.

    Feeds the server's metrics collector; *service* is a single
    :class:`RankingService` or a :class:`~repro.serving.replicas.ReplicaSet`
    (whose aggregate :meth:`stats` keeps the single-service shape).
    """
    stats = service.stats()
    cache = stats["cache"]
    return [
        ("counter", "serving_queries_served_total", {},
         float(stats["queries_served"])),
        ("counter", "serving_cache_hits_total", {},
         float(cache["hits"])),
        ("counter", "serving_cache_misses_total", {},
         float(cache["misses"])),
        ("counter", "serving_cache_evictions_total", {},
         float(cache["evictions"])),
        ("counter", "serving_cache_invalidations_total", {},
         float(cache["invalidations"])),
        ("gauge", "serving_cache_hit_rate", {},
         float(cache["hit_rate"])),
        ("gauge", "serving_cache_entries", {},
         float(stats["cache_entries"])),
        ("gauge", "serving_store_generation", {},
         float(stats["generation"])),
        ("gauge", "serving_store_shards", {}, float(stats["shards"])),
        ("gauge", "serving_store_documents", {},
         float(stats["documents"])),
        ("gauge", "serving_uptime_seconds", {}, uptime_seconds),
    ]
