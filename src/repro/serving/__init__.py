"""Online query serving over computed rankings.

The offline half of the package turns a web graph into a global DocRank;
this subsystem turns that DocRank into a service.  It mirrors the paper's
partition at serving time:

* :mod:`repro.serving.store` — :class:`ShardedScoreStore`, document scores
  partitioned by web site with O(1) point lookup and score-ordered shards;
* :mod:`repro.serving.topk` — :class:`TopKEngine`, global top-k as a
  prefix of one order sorted per store generation (not per query),
  per-site top-k as a shard-local prefix read;
* :mod:`repro.serving.cache` — :class:`QueryCache`, a bounded LRU with
  hit/miss statistics and per-site tagged invalidation;
* :mod:`repro.serving.service` — :class:`RankingService`, the facade wiring
  store, engine, cache and the :mod:`repro.ir` text substrate together,
  including a batched ``query_many`` and a subscription to
  :class:`~repro.web.incremental.IncrementalLayeredRanker` updates
  (changed shards are recomposed inline — the subsystem uses no
  :mod:`repro.engine` executor);
* :mod:`repro.serving.httpd` — :func:`route_request`, the JSON routes as
  a transport-free function (path + parameters -> payload), and
  :func:`route_body`, the same answer as encoded bytes;
* :mod:`repro.serving.replicas` — :class:`ReplicaSet`, N service replicas
  behind a consistent-hash ring with rolling zero-downtime rebuilds;
* :mod:`repro.serving.frontend` — :class:`AsyncRankingServer`, the one
  HTTP server: asyncio, admission control (``429``) and deadlines
  (``504``) around the router;
* :mod:`repro.serving.mmapstore` — :class:`MmapScoreStore`, the same shard
  protocol served straight off a published ranked generation's mmap'd
  files (``repro serve --store``), replicas sharing one mapping.

Quickstart::

    from repro.api import Ranker
    from repro.graphgen import generate_synthetic_web
    from repro.ir import synthesize_corpus

    web = generate_synthetic_web(n_sites=10, n_documents=500)
    ranker = Ranker()
    ranker.fit(web)
    service = ranker.serve(corpus=synthesize_corpus(web))
    print(service.top(5))
    print(service.query("research database", k=5))
"""

from .cache import GLOBAL_TAG, CacheStats, QueryCache
from .frontend import (
    AdmissionController,
    AsyncRankingServer,
    DeadlineExceeded,
    FrontendConfig,
    Overloaded,
    serve_frontend,
)
from .httpd import enable_access_log, route_body, route_request
from .mmapstore import MmapScoreStore
from .replicas import HashRing, Replica, ReplicaSet
from .service import RankingService
from .store import ScoredDocument, ShardedScoreStore
from .topk import TopKEngine, naive_top_k

__all__ = [
    "GLOBAL_TAG",
    "CacheStats",
    "QueryCache",
    "AdmissionController",
    "AsyncRankingServer",
    "DeadlineExceeded",
    "FrontendConfig",
    "Overloaded",
    "serve_frontend",
    "enable_access_log",
    "route_body",
    "route_request",
    "MmapScoreStore",
    "HashRing",
    "Replica",
    "ReplicaSet",
    "RankingService",
    "ScoredDocument",
    "ShardedScoreStore",
    "TopKEngine",
    "naive_top_k",
]
