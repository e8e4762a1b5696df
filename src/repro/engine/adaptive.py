"""Adaptive backend selection: pick an executor from the plan's cost model.

``n_jobs=1`` vs ``n_jobs=8`` used to be the caller's problem; with
``n_jobs="auto"`` the engine prices the batch it is about to run — the same
``2·nnz + 5·n`` per-iteration flop convention the distributed cost model
uses (:mod:`repro.distributed.cost`) — and picks the cheapest backend that
can win:

* tiny batches stay **serial**: any pool's dispatch overhead exceeds the
  work itself;
* medium batches go **threaded**: numpy/scipy release the GIL during the
  matrix products, and threads avoid pickling the adjacency matrices;
* large batches go to a **process** pool: many independent power-method
  runs amortise the worker spawn and sidestep the GIL entirely.

Expected iteration counts are estimated from the damping factor (the
asymptotic convergence rate of the damped power method is ``damping`` per
iteration), capped by each task's ``max_iter`` budget, so the estimate
needs nothing but the task objects themselves.  Selection never affects
results — every backend is bitwise-deterministic — only wall-clock.
"""

from __future__ import annotations

import math
from collections import deque
from time import perf_counter
from typing import Optional, Sequence

from .. import obs
from ..exceptions import ValidationError
from .executor import Executor, default_n_jobs, make_executor

def power_method_flops(n: int, nnz: int, iterations: int) -> float:
    """Estimated flops of an ``iterations``-step power method run.

    The single source of the package's flop convention (a sparse
    matrix-vector product costs ``2·nnz``; teleportation, dangling
    corrections and normalisation cost ``~5·n`` per iteration), shared by
    the adaptive backend selection here and the distributed cost model
    (:mod:`repro.distributed.cost`).
    """
    if n < 0 or nnz < 0 or iterations < 0:
        raise ValidationError("n, nnz and iterations must be non-negative")
    return float(iterations) * (2.0 * nnz + 5.0 * n)


#: Estimated flops below which pool dispatch costs more than the batch.
SERIAL_FLOPS_THRESHOLD = 2e7

#: Estimated flops above which worker-process spawn pays off.
#:
#: Re-priced for the zero-copy arena transport (:mod:`repro.engine.arena`):
#: the process backend no longer pays a per-nnz pickle penalty to ship each
#: site's adjacency — workers attach to the shared segment instead — so its
#: remaining fixed costs (worker spawn, per-task dispatch) amortise roughly
#: 3x earlier than under the 1.2 ship-by-value transport (5e8).
PROCESS_FLOPS_THRESHOLD = 1.5e8

#: Serial cut-off for batches dominated by fused
#: :class:`~repro.engine.plan.BatchedSiteTask` payloads.  What made pools
#: attractive at 2e7 flops was not the linear algebra but the thousands of
#: Python-level per-site solver loops a pool could overlap; the fused
#: block-diagonal kernel (:mod:`repro.linalg.block_solver`) removes that
#: interpreter overhead entirely, so the serial backend stays the cheapest
#: choice roughly an order of magnitude longer.
BATCHED_SERIAL_FLOPS_THRESHOLD = 2e8

#: Process cut-off for fused batches.  A batched batch contains only a
#: handful of large tasks, so a process pool has little to overlap, pays
#: the worker spawn, and its per-task wins are bounded by the (few) fused
#: SpMV streams — threads, which share the packed CSR without any
#: transport at all, displace processes for most small-site workloads.
BATCHED_PROCESS_FLOPS_THRESHOLD = 1.5e9


def expected_iterations(damping: float, tol: float, max_iter: int) -> int:
    """Estimated power iterations to reach *tol* at convergence rate *damping*.

    The damped power method contracts the error by a factor of ``damping``
    per iteration, so ``damping**k <= tol`` gives the classical
    ``k = log(tol) / log(damping)`` estimate (capped by the budget).
    """
    if not 0.0 < damping < 1.0 or not 0.0 < tol < 1.0:
        return max(1, max_iter)
    estimate = int(math.ceil(math.log(tol) / math.log(damping)))
    return max(1, min(estimate, max_iter))


def task_flops(task) -> float:
    """Estimated flops of one engine task (local DocRank or SiteRank).

    Uses the shared per-iteration convention ``2·nnz + 5·n`` times the
    expected iteration count.  Works for any object exposing either
    ``(nnz, n_documents)`` (:class:`~repro.engine.plan.LocalRankTask`) or a
    ``sitegraph`` (:class:`~repro.engine.plan.SiteRankTask`); payloads the
    model knows nothing about are priced at zero, so a batch of them falls
    back to the serial backend.
    """
    sitegraph = getattr(task, "sitegraph", None)
    if sitegraph is not None:
        n = sitegraph.n_sites
        nnz = int(sitegraph.adjacency.nnz)
    elif hasattr(task, "nnz") and hasattr(task, "n_documents"):
        n = task.n_documents
        nnz = task.nnz
    else:
        return 0.0
    iterations = expected_iterations(task.damping, task.tol, task.max_iter)
    return power_method_flops(n, nnz, iterations)


def batch_flops(tasks: Sequence) -> float:
    """Estimated flops of a whole batch of engine tasks."""
    return sum(task_flops(task) for task in tasks)


def _batched_fraction(tasks: Sequence, total: float) -> float:
    """Share of a batch's flops carried by fused batched-site payloads."""
    if total <= 0.0:
        return 0.0
    fused = sum(task_flops(task) for task in tasks
                if getattr(task, "is_fused_batch", False))
    return fused / total


def select_backend(tasks: Sequence, *,
                   serial_threshold: Optional[float] = None,
                   process_threshold: Optional[float] = None) -> str:
    """Choose ``"serial"`` / ``"threaded"`` / ``"process"`` for a batch.

    A batch of fewer than two tasks is always serial — there is nothing to
    overlap — regardless of its size.  Batches whose flops are carried
    mostly by fused :class:`~repro.engine.plan.BatchedSiteTask` payloads
    are priced against the *batched* cut-offs (the fused kernel already
    amortises the per-site overhead a pool would have hidden), which
    displaces the process backend for most small-site workloads.  Explicit
    thresholds win; otherwise the active
    :class:`~repro.engine.calibrate.CalibrationProfile` (when one is
    loaded) supplies measured values, falling back to the module
    constants.
    """
    if len(tasks) < 2:
        return "serial"
    cost = batch_flops(tasks)
    if serial_threshold is None or process_threshold is None:
        from .calibrate import batched_flop_thresholds, flop_thresholds

        if _batched_fraction(tasks, cost) >= 0.5:
            default_serial, default_process = batched_flop_thresholds()
        else:
            default_serial, default_process = flop_thresholds()
        if serial_threshold is None:
            serial_threshold = default_serial
        if process_threshold is None:
            process_threshold = default_process
    if cost < serial_threshold:
        return "serial"
    if cost < process_threshold:
        return "threaded"
    return "process"


def auto_executor(tasks: Sequence,
                  n_jobs: Optional[int] = None) -> Executor:
    """Build the executor :func:`select_backend` picks for a batch.

    *n_jobs* bounds the worker count of a pooled backend; when omitted one
    worker per CPU is used, never more than there are tasks.
    """
    backend = select_backend(tasks)
    if backend == "serial":
        return make_executor("serial")
    workers = n_jobs if n_jobs is not None else default_n_jobs()
    workers = max(1, min(workers, len(tasks)))
    return make_executor(backend, workers)


class AutoExecutor:
    """An :class:`~repro.engine.executor.Executor` that re-selects per batch.

    Every ``map`` call prices the batch it receives and delegates to the
    backend :func:`select_backend` picks.  This is what ``n_jobs="auto"``
    resolves to, so one executor object adapts across heterogeneous
    batches — a full plan, an incremental refresh of two sites — each at
    its own scale.  Only batches of engine task objects are priced;
    payloads the cost model does not recognise fall back to the serial
    delegate.

    Delegate pools are created lazily, one per backend kind, and *reused*
    across batches: a long-lived caller (the incremental ranker) must
    not pay worker-spawn cost on every refresh.  :meth:`close`
    shuts down whatever pools were created.
    """

    name = "auto"

    def __init__(self, n_jobs: Optional[int] = None) -> None:
        self.n_jobs = n_jobs if n_jobs is not None else default_n_jobs()
        #: Backend the most recent batch actually ran on (introspection).
        self.last_backend: Optional[str] = None
        #: Dispatch accounting mirrored from the delegate that ran the
        #: most recent batch (see repro.engine.executor._BaseExecutor).
        self.last_transport = "in-process"
        self.last_dispatch_bytes = 0
        self.total_dispatch_bytes = 0
        #: Decision provenance: one record per batch (backend chosen, the
        #: priced flop estimate, and the measured wall) so the calibration
        #: model can be audited.  Bounded; surfaced through
        #: ``RankingResult.provenance["auto_decisions"]``.
        self.decisions: deque = deque(maxlen=64)
        self._delegates: dict = {}
        self._closed = False

    def _delegate(self, backend: str) -> Executor:
        # Fail fast after close(): recreating a delegate would leak a pool
        # nobody is left to shut down.
        if self._closed:
            raise ValidationError("executor is closed")
        # Pools are sized at n_jobs even when the current batch is smaller:
        # concurrent.futures spawns workers lazily as tasks are submitted,
        # so a small batch on a wide pool only starts the workers it uses,
        # while later, larger batches can still fan all the way out.
        delegate = self._delegates.get(backend)
        if delegate is None:
            delegate = (make_executor(backend) if backend == "serial"
                        else make_executor(backend, self.n_jobs))
            self._delegates[backend] = delegate
        return delegate

    def map(self, fn, items):
        if self._closed:
            raise ValidationError("executor is closed")
        items = list(items)
        backend = select_backend(items)
        self.last_backend = backend
        delegate = self._delegate(backend)
        priced = batch_flops(items)
        started = perf_counter()
        results = delegate.map(fn, items)
        wall = perf_counter() - started
        self.last_transport = getattr(delegate, "last_transport",
                                      "in-process")
        self.last_dispatch_bytes = getattr(delegate, "last_dispatch_bytes", 0)
        self.total_dispatch_bytes += self.last_dispatch_bytes
        self.decisions.append({"backend": backend, "priced_flops": priced,
                               "n_tasks": len(items),
                               "wall_seconds": wall})
        obs.inc("engine_auto_decisions_total", backend=backend)
        obs.observe("engine_auto_batch_flops", priced, backend=backend)
        obs.observe("engine_auto_batch_seconds", wall, backend=backend)
        return results

    def warmup(self, tasks: Optional[Sequence] = None) -> None:
        """Pre-spawn the delegate a batch will use.

        With *tasks* (the batch about to run), only the backend the cost
        model selects for it is started — a serial-priced batch spawns
        nothing.  Without a batch there is nothing to predict, so this is
        a no-op and the delegates keep spawning lazily at first use.
        """
        if tasks is None:
            return
        backend = select_backend(list(tasks))
        if backend != "serial":
            self._delegate(backend).warmup()

    def close(self) -> None:
        self._closed = True
        for delegate in self._delegates.values():
            delegate.close()
        self._delegates.clear()

    def __enter__(self) -> "AutoExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AutoExecutor(n_jobs={self.n_jobs})"
