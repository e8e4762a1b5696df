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
  releases the GIL (the fused and dedicated solvers' sparse matrix
  products do) and shares the caller's arrays without any transport.

All backends preserve submission order in their results, so any
composition performed after the barrier (step 5 of the layered method)
is independent of scheduling — the property the determinism-guard tests
pin down.

Executors are context managers; :func:`resolve_executor` turns the
user-facing ``executor=`` / ``n_jobs=`` parameter pair that the compute
layers expose into a concrete backend.
"""

from __future__ import annotations

import inspect
import os
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, TypeVar, runtime_checkable

from .. import obs
from ..exceptions import ValidationError

_T = TypeVar("_T")
_R = TypeVar("_R")


class _InstrumentedCall:
    """Wraps the mapped callable with per-task telemetry.

    Records queue wait (time between dispatch and the task starting) and
    execute time, both labelled by the payload's task type.
    """

    def __init__(self, fn: Callable, dispatched_at: float) -> None:
        self.fn = fn
        self.dispatched_at = dispatched_at

    def __call__(self, item):
        started = time.monotonic()
        result = self.fn(item)
        ended = time.monotonic()
        kind = type(item).__name__
        obs.inc("engine_tasks_total", kind=kind)
        obs.observe("engine_task_queue_wait_seconds",
                    max(0.0, started - self.dispatched_at), kind=kind)
        obs.observe("engine_task_execute_seconds", ended - started,
                    kind=kind)
        return result


def _maybe_instrument(fn: Callable) -> Callable:
    """The per-task telemetry wrapper, or *fn* itself when obs is off."""
    if not obs.enabled():
        return fn
    return _InstrumentedCall(fn, time.monotonic())


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
    #: ``"auto"``), surfaced in reports and benchmarks.
    name: str

    #: Number of workers the backend schedules onto.
    n_jobs: int

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """Apply *fn* to every item; results align with *items*."""
        ...

    def warmup(self, tasks: Optional[Sequence] = None) -> None:
        """Start any worker pool now instead of lazily at the first map.

        Pool start-up (thread creation) otherwise lands inside the first
        batch's wall-clock; callers that *measure*
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
    """Shared context-manager plumbing of the concrete executors."""

    name = "base"
    n_jobs = 1

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
        fn = _maybe_instrument(fn)
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
        fn = _maybe_instrument(fn)
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


def warmup_for(executor: "Executor", tasks: Sequence) -> None:
    """Warm an executor for a pending batch, tolerating older executors.

    The 1.1 Executor protocol's ``warmup()`` took no arguments; 1.2 added
    the optional batch so adaptive backends warm only the pool the batch
    will use.  Every step-3 batch warms its (possibly user-supplied)
    executor here; the spelling is chosen once per executor class by
    signature inspection, not by catching ``TypeError`` — a ``TypeError``
    raised *inside* a warmup body must propagate, not silently degrade to
    a no-warmup retry.
    """
    if _warmup_takes_batch(type(executor)):
        executor.warmup(tasks)
    else:
        executor.warmup()


@lru_cache(maxsize=None)
def _warmup_takes_batch(kind: type) -> bool:
    try:  # ``self`` and the batch
        return len(inspect.signature(kind.warmup).parameters) > 1
    except (TypeError, ValueError):  # builtins/C callables: assume current
        return True


#: Backend names :func:`make_executor` accepts.
BACKENDS = ("serial", "threaded")


def make_executor(backend: str, n_jobs: Optional[int] = None) -> Executor:
    """Instantiate a backend by name (``"serial"``/``"threaded"``)."""
    if backend == "serial":
        return SerialExecutor()
    if backend == "threaded":
        return ThreadedExecutor(n_jobs)
    raise ValidationError(
        f"unknown executor backend {backend!r}; expected one of {BACKENDS}")


def resolve_executor(executor: Optional[Executor] = None,
                     n_jobs: Optional[int] = None) -> Tuple[Executor, bool]:
    """Resolve the ``executor=`` / ``n_jobs=`` parameter pair of the compute layers.

    Precedence:

    * an explicit *executor* wins (*n_jobs* must then be omitted);
    * ``n_jobs`` of ``None``/``1`` selects the serial reference backend —
      existing callers that pass neither parameter keep their exact
      behaviour and determinism;
    * ``n_jobs="auto"`` selects the adaptive backend
      (:class:`~repro.engine.adaptive.AutoExecutor`), which prices every
      batch with the plan's cost model and picks serial or threaded per
      batch;
    * ``n_jobs > 1`` creates a :class:`ThreadedExecutor` owned by the
      caller.

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
    return ThreadedExecutor(n_jobs), True
