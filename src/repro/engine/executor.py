"""Execution backends of the parallel ranking engine.

The paper's central claim is that the layered decomposition makes the
global ranking *decentralizable*: every site's local DocRank is independent
of every other site's and of the SiteRank (Section 3.2), so step 3 and
step 4 of the layered method are embarrassingly parallel.  An
:class:`Executor` is the package's single abstraction over *how* that
independent work is scheduled:

* :class:`SerialExecutor` — runs tasks in submission order on the calling
  thread; the deterministic reference every other backend must match
  bit-for-bit;
* :class:`ThreadedExecutor` — a thread pool; effective when the work
  releases the GIL (large sparse/dense matrix products) or is I/O bound;
* :class:`ProcessExecutor` — a process pool; sidesteps the GIL entirely
  and is the backend that realises wall-clock speedup for the many small
  per-site power-method runs of a real web.

All backends preserve submission order in their results, so any
composition performed after the barrier (step 5 of the layered method)
is independent of scheduling — the property the determinism-guard tests
pin down.

Executors are context managers; :func:`resolve_executor` turns the
user-facing ``executor=`` / ``n_jobs=`` parameter pair that the compute
layers expose into a concrete backend.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, TypeVar, runtime_checkable

from .. import obs
from ..exceptions import ValidationError

_T = TypeVar("_T")
_R = TypeVar("_R")


class _WorkerResult:
    """A task result travelling back with the worker's telemetry delta."""

    def __init__(self, result, delta) -> None:
        self.result = result
        self.delta = delta


class _InstrumentedCall:
    """Wraps the mapped callable with per-task telemetry.

    Records queue wait (time between dispatch and the task starting,
    ``time.monotonic`` is system-wide on Linux so the parent's dispatch
    stamp is comparable inside a worker process) and execute time, both
    labelled by the payload's task type.  With ``capture=True`` (the
    process backend) the wrapper also checkpoints the worker-side registry
    before the task and ships the delta back inside a
    :class:`_WorkerResult`, which the parent merges — process-backend runs
    report the same counters as serial ones.  Picklable by construction:
    plain attributes, module-level class.
    """

    def __init__(self, fn: Callable, dispatched_at: float,
                 capture: bool) -> None:
        self.fn = fn
        self.dispatched_at = dispatched_at
        self.capture = capture

    def __call__(self, item):
        started = time.monotonic()
        mark = obs.registry().checkpoint() if self.capture else None
        result = self.fn(item)
        ended = time.monotonic()
        kind = type(item).__name__
        obs.inc("engine_tasks_total", kind=kind)
        obs.observe("engine_task_queue_wait_seconds",
                    max(0.0, started - self.dispatched_at), kind=kind)
        obs.observe("engine_task_execute_seconds", ended - started,
                    kind=kind)
        if mark is not None:
            return _WorkerResult(result, obs.registry().delta_since(mark))
        return result


def _maybe_instrument(fn: Callable, *, capture: bool) -> Callable:
    """The per-task telemetry wrapper, or *fn* itself when obs is off."""
    if not obs.enabled():
        return fn
    return _InstrumentedCall(fn, time.monotonic(), capture)


def default_n_jobs() -> int:
    """Worker count used when ``n_jobs`` is omitted: one per available CPU."""
    return os.cpu_count() or 1


def normalize_n_jobs(value, *, name: str = "n_jobs"):
    """The single source of truth for what an ``n_jobs`` value may be.

    Returns the value as a positive ``int`` or the string ``"auto"``;
    raises :class:`ValidationError` otherwise.  The CLI (``--jobs``), the
    declarative config (``RankingConfig.n_jobs``) and
    :func:`resolve_executor` all funnel through this so the accepted
    grammar and its error message cannot drift apart.
    """
    if value == "auto":
        return "auto"
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    raise ValidationError(
        f"{name} must be a positive integer or 'auto', got {value!r}")


@runtime_checkable
class Executor(Protocol):
    """Protocol of an execution backend.

    An executor maps a callable over a batch of independent task payloads
    and returns the results *in submission order*.  ``map`` is a barrier:
    it returns only once every task of the batch has completed, which is
    exactly the synchronisation point step 5 of the layered method needs.
    """

    #: Human-readable backend identifier (``"serial"`` / ``"threaded"`` /
    #: ``"process"``), surfaced in reports and benchmarks.
    name: str

    #: Number of workers the backend schedules onto.
    n_jobs: int

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """Apply *fn* to every item; results align with *items*."""
        ...

    def warmup(self, tasks: Optional[Sequence] = None) -> None:
        """Start any worker pool now instead of lazily at the first map.

        Pool start-up (thread creation, worker process spawn) otherwise
        lands inside the first batch's wall-clock; callers that *measure*
        batches — the benchmarks and the distributed simulator — warm up
        first so timings describe the work, not the pool.  *tasks* (the
        batch about to run) lets adaptive backends warm only the pool
        that batch will actually use; fixed backends ignore it.
        """
        ...

    def close(self) -> None:
        """Release any worker pool; the executor must not be used afterwards."""
        ...


class _BaseExecutor:
    """Shared context-manager plumbing of the concrete executors.

    Every backend also carries *dispatch accounting*: how the most recent
    batch's payloads reached the workers (``last_transport``: ``"in-process"``
    for backends that share the caller's address space, ``"pickle"`` or
    ``"arena"`` for the process pool) and how many bytes that shipment
    serialised (``last_dispatch_bytes`` / cumulative
    ``total_dispatch_bytes``).  Benchmarks, provenance records and the
    distributed simulator's reports all read these attributes.
    """

    name = "base"
    n_jobs = 1

    #: How the most recent batch's payloads reached the workers.
    last_transport = "in-process"
    #: Bytes the most recent batch serialised to dispatch its payloads.
    last_dispatch_bytes = 0
    #: Bytes serialised across every batch this executor dispatched.
    total_dispatch_bytes = 0

    def warmup(self, tasks: Optional[Sequence] = None) -> None:
        pass

    def close(self) -> None:  # pragma: no cover - overridden where non-trivial
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_jobs={self.n_jobs})"


class SerialExecutor(_BaseExecutor):
    """Run every task on the calling thread, in submission order.

    This is the default backend everywhere: it adds no overhead, keeps
    tracebacks trivial, and its output defines the reference results the
    parallel backends are tested against.
    """

    name = "serial"
    n_jobs = 1

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        fn = _maybe_instrument(fn, capture=False)
        return [fn(item) for item in items]


class ThreadedExecutor(_BaseExecutor):
    """Schedule tasks onto a lazily-created thread pool.

    Threads share the interpreter, so speedup depends on the work
    releasing the GIL (numpy/scipy matrix products do for non-trivial
    sizes).  Tasks need not be picklable.
    """

    name = "threaded"

    def __init__(self, n_jobs: Optional[int] = None) -> None:
        if n_jobs is not None and n_jobs < 1:
            raise ValidationError("n_jobs must be at least 1")
        self.n_jobs = n_jobs if n_jobs is not None else default_n_jobs()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    def warmup(self, tasks: Optional[Sequence] = None) -> None:
        self._ensure_pool()

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        fn = _maybe_instrument(fn, capture=False)
        return list(self._ensure_pool().map(fn, items))

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # Fail fast after close(): silently recreating the pool would leak
        # threads nobody is left to shut down.
        if self._closed:
            raise ValidationError("executor is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.n_jobs)
        return self._pool

    def close(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessExecutor(_BaseExecutor):
    """Schedule tasks onto a lazily-created process pool.

    Each worker is a separate interpreter, so the per-site power-method
    runs execute truly concurrently regardless of the GIL.  Task payloads
    and the mapped callable must be picklable — the engine's task types
    (:mod:`repro.engine.plan`) are plain dataclasses over numpy/scipy
    containers for exactly this reason.

    Graph payloads do **not** travel through pickle by default: around
    each batch the executor packs every shareable payload's CSR buffers
    into a :class:`~repro.engine.arena.GraphArena` (one shared-memory
    segment), ships only the tiny :class:`~repro.engine.arena.ArenaRef`
    addresses, and disposes the segment — close *and* unlink — once the
    batch's barrier returns, on success or error.  Workers attach by
    segment name at task-run time, which keeps the transport safe under
    both the ``fork`` and ``spawn`` start methods.  ``use_arena=False``
    restores the ship-by-value pickle transport (the benchmarks measure
    the difference as ``dispatch_bytes``).

    The batch is split into contiguous chunks to amortise per-task
    dispatch overhead; chunking never reorders results.

    Parameters
    ----------
    n_jobs:
        Worker count (one per CPU when omitted).
    use_arena:
        Whether matrix payloads ride the zero-copy shared-memory arena
        (default) or are pickled by value.
    start_method:
        Optional multiprocessing start method (``"fork"`` / ``"spawn"`` /
        ``"forkserver"``) for the worker pool; platform default when
        omitted.
    """

    name = "process"

    def __init__(self, n_jobs: Optional[int] = None, *,
                 use_arena: bool = True,
                 start_method: Optional[str] = None) -> None:
        if n_jobs is not None and n_jobs < 1:
            raise ValidationError("n_jobs must be at least 1")
        self.n_jobs = n_jobs if n_jobs is not None else default_n_jobs()
        self.use_arena = use_arena
        self.start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self.last_transport = "pickle"
        self.last_dispatch_bytes = 0
        self.total_dispatch_bytes = 0

    def warmup(self, tasks: Optional[Sequence] = None) -> None:
        # Run one trivial round trip so the workers actually exist (the
        # pool object alone spawns processes lazily on first use).
        list(self._ensure_pool().map(abs, [-1]))

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        from .arena import dispatch_bytes, share_batch

        items = list(items)
        if self._closed:
            raise ValidationError("executor is closed")
        if not items:
            return []
        # Pack the batch's graph buffers into one shared-memory segment;
        # the workers receive refs instead of matrices.  The arena lives
        # exactly as long as the batch: the finally below closes and
        # unlinks it even when a task raises.
        if self.use_arena:
            shipped, arena = share_batch(items)
        else:
            shipped, arena = items, None
        self.last_transport = "arena" if arena is not None else "pickle"
        self.last_dispatch_bytes = dispatch_bytes(shipped)
        self.total_dispatch_bytes += self.last_dispatch_bytes
        obs.inc("engine_dispatches_total", transport=self.last_transport)
        obs.inc("engine_dispatch_bytes_total",
                float(self.last_dispatch_bytes),
                transport=self.last_transport)
        obs.observe("engine_dispatch_bytes",
                    float(self.last_dispatch_bytes),
                    transport=self.last_transport)
        wrapped = _maybe_instrument(fn, capture=True)
        chunksize = max(1, len(items) // (4 * self.n_jobs))
        try:
            raw = list(self._ensure_pool().map(wrapped, shipped,
                                               chunksize=chunksize))
        finally:
            if arena is not None:
                arena.dispose()
        if wrapped is fn:
            return raw
        # Merge each worker's telemetry delta, then unwrap its result.
        registry = obs.registry()
        results: List[_R] = []
        for entry in raw:
            if isinstance(entry, _WorkerResult):
                registry.merge(entry.delta)
                results.append(entry.result)
            else:  # worker had telemetry disabled locally
                results.append(entry)
        return results

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # Fail fast after close(): silently recreating the pool would leak
        # worker processes nobody is left to shut down.
        if self._closed:
            raise ValidationError("executor is closed")
        if self._pool is None:
            context = (multiprocessing.get_context(self.start_method)
                       if self.start_method is not None else None)
            self._pool = ProcessPoolExecutor(max_workers=self.n_jobs,
                                             mp_context=context)
        return self._pool

    def close(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def warmup_for(executor: "Executor", tasks: Sequence) -> None:
    """Warm an executor for a pending batch, tolerating older executors.

    The 1.1 Executor protocol's ``warmup()`` took no arguments; 1.2 added
    the optional batch so adaptive backends warm only the pool the batch
    will use.  Callers that hold an *arbitrary* executor (the distributed
    coordinator accepts user-supplied ones) go through this helper, which
    falls back to the zero-argument spelling for pre-1.2 implementations.
    The spelling is chosen by signature inspection, not by catching
    ``TypeError`` — a ``TypeError`` raised *inside* a warmup body must
    propagate, not silently degrade to a no-warmup retry.
    """
    import inspect

    try:
        accepts_batch = bool(
            inspect.signature(executor.warmup).parameters)
    except (TypeError, ValueError):  # builtins/C callables: assume current
        accepts_batch = True
    if accepts_batch:
        executor.warmup(tasks)
    else:
        executor.warmup()


#: Backend names accepted by :func:`resolve_executor`.
BACKENDS = ("serial", "threaded", "process")


def make_executor(backend: str, n_jobs: Optional[int] = None) -> Executor:
    """Instantiate a backend by name (``"serial"``/``"threaded"``/``"process"``)."""
    if backend == "serial":
        return SerialExecutor()
    if backend == "threaded":
        return ThreadedExecutor(n_jobs)
    if backend == "process":
        return ProcessExecutor(n_jobs)
    raise ValidationError(
        f"unknown executor backend {backend!r}; expected one of {BACKENDS}")


def resolve_executor(executor: Optional[Executor] = None,
                     n_jobs: Optional[int] = None, *,
                     backend: str = "process") -> Tuple[Executor, bool]:
    """Resolve the ``executor=`` / ``n_jobs=`` parameter pair of the compute layers.

    Precedence:

    * an explicit *executor* wins (*n_jobs* must then be omitted);
    * ``n_jobs`` of ``None``/``1`` selects the serial reference backend —
      existing callers that pass neither parameter keep their exact
      behaviour and determinism;
    * ``n_jobs="auto"`` selects the adaptive backend
      (:class:`~repro.engine.adaptive.AutoExecutor`), which prices every
      batch with the plan's cost model and picks serial / threaded /
      process per batch;
    * ``n_jobs > 1`` creates a *backend* executor (process pool by
      default, the backend that beats the GIL for rank computation) owned
      by the caller.

    Returns
    -------
    ``(executor, owned)`` where *owned* tells the caller whether it is
    responsible for closing the executor after use.
    """
    if executor is not None:
        if n_jobs is not None:
            raise ValidationError("pass either executor or n_jobs, not both")
        return executor, False
    if n_jobs is None or n_jobs == 1:
        return SerialExecutor(), True
    n_jobs = normalize_n_jobs(n_jobs)
    if n_jobs == "auto":
        from .adaptive import AutoExecutor
        return AutoExecutor(), True
    return make_executor(backend, n_jobs), True
