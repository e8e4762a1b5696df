"""repro — a reproduction of "Using a Layered Markov Model for Distributed
Web Ranking Computation" (Wu & Aberer, ICDCS 2005).

The package is organised as a set of substrates under a single core
contribution:

* :mod:`repro.core` — the Layered Markov Model, its four ranking approaches,
  the Partition Theorem checks, personalisation, and the multi-layer
  generalisation;
* :mod:`repro.web` — the web application of the model: DocGraph / SiteGraph,
  SiteRank, DocRank and the 5-step layered ranking pipeline;
* :mod:`repro.pagerank` — flat-ranking baselines (PageRank, HITS, BlockRank,
  accelerated variants);
* :mod:`repro.markov`, :mod:`repro.linalg` — Markov-chain and stochastic
  linear-algebra substrates;
* :mod:`repro.graphgen` — synthetic web-graph generators, including the
  campus-web generator used in place of the paper's 2003 EPFL crawl;
* :mod:`repro.distributed` — a simulated peer-to-peer deployment of the
  layered computation;
* :mod:`repro.engine` — the parallel execution engine: serial and
  threaded executors and the :class:`RankingPlan` task graph every compute
  layer schedules its rank work through;
* :mod:`repro.metrics`, :mod:`repro.ir`, :mod:`repro.io` — ranking-comparison
  metrics, a small IR substrate, and serialisation helpers;
* :mod:`repro.obs` — dependency-free telemetry: the process-local metrics
  registry, trace spans and Prometheus text exposition;
* :mod:`repro.serving` — the online query-serving layer: sharded score
  store, lazy top-k engine, LRU result cache, the :class:`RankingService`
  facade and a JSON-over-HTTP endpoint;
* :mod:`repro.api` — the unified public surface: the declarative
  :class:`RankingConfig`, the pluggable method registry, and the
  :class:`Ranker` facade whose adapters drive all of the above from one
  config object.

Quickstart::

    from repro import Ranker, RankingConfig
    from repro.graphgen import generate_synthetic_web

    web = generate_synthetic_web(n_sites=10, n_documents=500)
    result = Ranker(RankingConfig(method="layered")).fit(web)
    print(result.top_k_urls(3))
"""

from .core import (
    LayeredMarkovModel,
    Phase,
    approach_1,
    approach_2,
    approach_3,
    approach_4,
    example_lmm,
    layered_ranking,
    verify_partition_theorem,
)
from .engine import (
    RankingPlan,
    SerialExecutor,
    ThreadedExecutor,
    WarmStartState,
)
from .pagerank import hits, pagerank
from .serving import (
    QueryCache,
    RankingService,
    ShardedScoreStore,
    TopKEngine,
)

__version__ = "1.4.0"

from .api import (  # noqa: E402  (api imports the layers above)
    Ranker,
    RankingConfig,
    RankingResult,
    available_methods,
    register_method,
)

__all__ = [
    "Ranker",
    "RankingConfig",
    "RankingResult",
    "available_methods",
    "register_method",
    "LayeredMarkovModel",
    "Phase",
    "approach_1",
    "approach_2",
    "approach_3",
    "approach_4",
    "example_lmm",
    "layered_ranking",
    "verify_partition_theorem",
    "RankingPlan",
    "SerialExecutor",
    "ThreadedExecutor",
    "WarmStartState",
    "hits",
    "pagerank",
    "QueryCache",
    "RankingService",
    "ShardedScoreStore",
    "TopKEngine",
    "__version__",
]
