"""Parallel execution engine for the layered ranking computation.

The paper proves the layered decomposition is *decentralizable*: per-site
DocRanks are mutually independent and independent of the SiteRank.  This
package turns that theorem into scheduling machinery shared by every
compute layer of the repository:

* :mod:`repro.engine.executor` — the :class:`Executor` protocol with
  serial, thread-pool and process-pool backends;
* :mod:`repro.engine.plan` — the :class:`RankingPlan` task graph encoding
  the 5-step layered method (concurrent steps 3/4, composing barrier at
  step 5), the one step-3 scheduler over a site-major layout
  (:func:`~repro.engine.plan.layout_step` for a DocGraph in RAM,
  :func:`~repro.engine.plan.sites_step` for a subset of sites that keeps
  the whole web's kinds: a peer's sites, a window of disk blocks) and the
  per-site builders (:func:`site_tasks_for`, :func:`batch_site_tasks`)
  for calibration;
* :mod:`repro.engine.warm` — the warm-source protocol
  (``local_start(site, doc_ids)`` / ``siterank_start(sites)``,
  :class:`WarmSource`), the one way a previously converged vector reaches
  a task so power iterations resume instead of restarting from uniform;
* :mod:`repro.engine.adaptive` — cost-model-driven backend selection:
  ``n_jobs="auto"`` prices each batch (task nnz × expected iterations) and
  picks serial / threaded / process per batch;
* :mod:`repro.engine.arena` — zero-copy shared-memory transport: the
  process backend lays each batch's matrices and arrays into one
  ``SharedMemory`` segment (a :class:`GraphArena`), choosing by each task
  field's type, and ships only tiny :class:`ArenaRef` addresses, so
  dispatch cost no longer scales with the web's size;
* :mod:`repro.engine.outofcore` — :func:`rank_outofcore`, the same
  scheduler and solve schedule driven over an mmap'd
  :class:`~repro.io.diskgraph.DiskGraph` one window of sites at a time,
  publishing scores into a ranked-artifact store.

The centralized pipeline (:mod:`repro.web.pipeline`), the
incremental ranker and the distributed simulator all
schedule their work through this package; the determinism-guard tests pin
down that every backend produces bitwise-identical rankings.
"""

from .arena import (
    ArenaRef,
    GraphArena,
    dispatch_bytes,
    live_segments,
    resolve_csr,
    resolve_task,
    resolve_vector,
    share_batch,
)
from .adaptive import (
    AutoExecutor,
    auto_executor,
    batch_flops,
    expected_iterations,
    power_method_flops,
    select_backend,
    task_flops,
)
from .calibrate import (
    CalibrationProfile,
    activate_profile,
    active_profile,
    deactivate_profile,
)
from .calibrate import calibrate as run_calibration
from .executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
    default_n_jobs,
    make_executor,
    normalize_n_jobs,
    resolve_executor,
    warmup_for,
)
from .outofcore import (
    GenerationWarmStart,
    OutOfCoreRanking,
    SolveUnit,
    plan_solve_units,
    rank_outofcore,
)
from .plan import (
    BATCH_SITE_MAX_DOCS,
    BATCH_TARGET_DOCS,
    BatchedSiteTask,
    LocalRankTask,
    PlanExecution,
    RankingPlan,
    SiteRankTask,
    batch_site_tasks,
    collect_site_results,
    run_task,
    site_tasks_for,
    siterank_task_for,
)
from .warm import WarmSource, WarmStartState, align_warm_start

__all__ = [
    "ArenaRef",
    "GraphArena",
    "dispatch_bytes",
    "live_segments",
    "resolve_csr",
    "resolve_task",
    "resolve_vector",
    "share_batch",
    "AutoExecutor",
    "auto_executor",
    "batch_flops",
    "expected_iterations",
    "power_method_flops",
    "select_backend",
    "task_flops",
    "CalibrationProfile",
    "activate_profile",
    "active_profile",
    "run_calibration",
    "deactivate_profile",
    "BACKENDS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "default_n_jobs",
    "make_executor",
    "normalize_n_jobs",
    "resolve_executor",
    "warmup_for",
    "GenerationWarmStart",
    "OutOfCoreRanking",
    "SolveUnit",
    "plan_solve_units",
    "rank_outofcore",
    "BATCH_SITE_MAX_DOCS",
    "BATCH_TARGET_DOCS",
    "BatchedSiteTask",
    "LocalRankTask",
    "PlanExecution",
    "RankingPlan",
    "SiteRankTask",
    "batch_site_tasks",
    "collect_site_results",
    "run_task",
    "site_tasks_for",
    "siterank_task_for",
    "WarmSource",
    "WarmStartState",
    "align_warm_start",
]
