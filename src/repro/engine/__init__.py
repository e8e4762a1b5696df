"""Parallel execution engine for the layered ranking computation.

The paper proves the layered decomposition is *decentralizable*: per-site
DocRanks are mutually independent and independent of the SiteRank.  This
package turns that theorem into scheduling machinery shared by every
compute layer of the repository:

* :mod:`repro.engine.executor` — the :class:`Executor` protocol with
  serial and thread-pool backends;
* :mod:`repro.engine.plan` — the :class:`RankingPlan` task graph encoding
  the 5-step layered method (concurrent steps 3/4, composing barrier at
  step 5), the one step-3 builder over a site-major layout
  (:func:`~repro.engine.plan.sites_step`) and the one driver that runs
  such steps window by window (:func:`~repro.engine.plan.solve_windows`);
  the per-site builders (:func:`site_tasks_for`,
  :func:`batch_site_tasks`) remain for the frozen system benchmark;
* :mod:`repro.engine.warm` — the warm-source protocol
  (``local_start(site, doc_ids)`` / ``siterank_start(sites)``,
  :class:`WarmSource`), the one way a previously converged vector reaches
  a task so power iterations resume instead of restarting from uniform;
* :mod:`repro.engine.adaptive` — cost-model-driven backend selection:
  ``n_jobs="auto"`` prices each batch (task nnz × expected iterations) and
  picks serial or threaded per batch;
* :mod:`repro.engine.outofcore` — :func:`rank_outofcore`, the same
  driver over an mmap'd :class:`~repro.io.diskgraph.DiskGraph`, one
  window of sites resident at a time on any executor, publishing scores
  into a ranked-artifact store.

The centralized pipeline (:mod:`repro.web.pipeline`), the
incremental ranker and the distributed simulator all
schedule their work through this package; the determinism-guard tests pin
down that every backend produces bitwise-identical rankings.
"""

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
