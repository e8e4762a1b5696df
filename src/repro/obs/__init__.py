"""``repro.obs`` — dependency-free telemetry for the whole stack.

One process-local :class:`~repro.obs.registry.MetricsRegistry` (counters,
gauges, fixed-bucket histograms with p50/p90/p99 summaries), lightweight
:func:`span` trace scopes, and a handful of surfaces:

* Prometheus text exposition — :func:`render_prometheus`, served by
  ``AsyncRankingServer`` at ``/metrics``;
* a JSON snapshot — :func:`snapshot`, attached to
  ``RankingResult.provenance`` and rendered by ``repro stats``;
* trace JSON export — ``Ranker.fit(trace="out.json")`` or
  ``repro rank --trace out.json``.

Counters/gauges/histograms are **on by default** (they are a dict update
behind one lock); span *history* is opt-in via
:func:`~repro.obs.trace.enable_tracing`.  :func:`disable` turns everything
off: every recording helper returns after a single module-flag check and
:func:`span` hands back one preallocated null scope, so the disabled path
performs no allocation in the solver or executor hot loops.

Canonical phase names — shared by spans, ``RankingResult.timings``,
``WebRankingResult.timings`` and ``SimulationReport.timings``::

    plan.build      steps 1-2: site aggregation + task construction
    plan.execute    steps 3-4: local DocRank + SiteRank task batch
    plan.compose    step 5: score composition pi_S(s) * pi_D(d)
    fit.total       the whole Ranker.fit() call

Cross-process runs stay consistent: the process executor wraps each task
so workers return their registry deltas alongside results, and the parent
merges them — a process-backend run reports the same solver/task counters
as a serial one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .registry import (
    BYTES_BUCKETS,
    COUNT_BUCKETS,
    FLOPS_BUCKETS,
    ITERATION_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    Sample,
    default_buckets,
    escape_label_value,
    validate_exposition,
)
from .trace import (
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
)
from .trace import span as _trace_span

__all__ = [
    # switches
    "enable", "disable", "enabled",
    # recording
    "inc", "observe", "set_gauge", "add_gauge", "record_solver", "span",
    # registry access / surfaces
    "registry", "reset", "snapshot", "render_prometheus", "render_table",
    "MetricsRegistry", "Sample", "validate_exposition",
    "escape_label_value", "default_buckets",
    # tracing
    "Tracer", "enable_tracing", "disable_tracing", "current_tracer",
    # phase names
    "PHASE_PLAN_BUILD", "PHASE_PLAN_EXECUTE", "PHASE_PLAN_COMPOSE",
    "PHASE_PLAN_SEGMENTS", "PHASE_FIT",
    # bucket presets
    "LATENCY_BUCKETS", "ITERATION_BUCKETS", "BYTES_BUCKETS",
    "FLOPS_BUCKETS", "COUNT_BUCKETS",
]

#: Canonical phase-name keys (see the module docstring).
PHASE_PLAN_BUILD = "plan.build"
PHASE_PLAN_EXECUTE = "plan.execute"
PHASE_PLAN_COMPOSE = "plan.compose"
PHASE_PLAN_SEGMENTS = "plan.segments"
PHASE_FIT = "fit.total"

_ENABLED = True
_REGISTRY = MetricsRegistry()


# --------------------------------------------------------------------- #
# Switches
# --------------------------------------------------------------------- #
def enable() -> None:
    """Turn telemetry recording on (the default)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn all telemetry recording off (single-branch, zero-allocation)."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether telemetry recording is on."""
    return _ENABLED


def registry() -> MetricsRegistry:
    """The process-local registry."""
    return _REGISTRY


def reset() -> None:
    """Clear every recorded metric (collectors stay registered)."""
    _REGISTRY.reset()


# --------------------------------------------------------------------- #
# Recording helpers (each checks the switch first)
# --------------------------------------------------------------------- #
def inc(name: str, value: float = 1.0, **labels: str) -> None:
    """Increment a counter when telemetry is enabled."""
    if _ENABLED:
        _REGISTRY.inc(name, value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    """Record a histogram observation when telemetry is enabled."""
    if _ENABLED:
        _REGISTRY.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge when telemetry is enabled."""
    if _ENABLED:
        _REGISTRY.set_gauge(name, value, **labels)


def add_gauge(name: str, delta: float, **labels: str) -> None:
    """Add to a gauge when telemetry is enabled."""
    if _ENABLED:
        _REGISTRY.add_gauge(name, delta, **labels)


def record_solver(solver: str, iterations: int, residual: float,
                  converged: bool, *, n: int, nnz: int,
                  vectors: int = 1) -> None:
    """Record one solver run (called once per run, after the loop).

    ``n`` and ``nnz`` are the problem size (rows and stored entries of
    the iterated matrix), observed as the ``solver_rows`` /
    ``solver_nnz`` histograms so iteration counts can be read against
    size.  ``vectors`` is the number of solution columns the run advanced
    per matrix sweep (K for a fused multi-vector solve, 1 classically);
    the ``solver_sweeps_per_vector`` gauge is the run's iteration count
    amortised over those columns — the SpMM win made visible.
    """
    if not _ENABLED:
        return
    _REGISTRY.observe("solver_rows", float(n), solver=solver)
    _REGISTRY.observe("solver_nnz", float(nnz), solver=solver)
    _REGISTRY.inc("solver_runs_total", 1.0, solver=solver)
    _REGISTRY.inc("solver_iterations_total", float(iterations),
                  solver=solver)
    _REGISTRY.inc("solver_vectors_total", float(max(vectors, 1)),
                  solver=solver)
    _REGISTRY.observe("solver_run_iterations", float(iterations),
                      solver=solver)
    _REGISTRY.set_gauge("solver_last_residual", float(residual),
                        solver=solver)
    _REGISTRY.set_gauge("solver_sweeps_per_vector",
                        float(iterations) / float(max(vectors, 1)),
                        solver=solver)
    if not converged:
        _REGISTRY.inc("solver_nonconverged_total", 1.0, solver=solver)


def span(name: str):
    """A context manager timing one named phase (see :mod:`.trace`)."""
    return _trace_span(name, enabled=_ENABLED)


def _record_phase(name: str, seconds: float) -> None:
    """Span sink: fold a finished span into the phase histogram."""
    if _ENABLED:
        _REGISTRY.observe("phase_seconds", seconds, phase=name)


# --------------------------------------------------------------------- #
# Surfaces
# --------------------------------------------------------------------- #
def snapshot(*, include_collected: bool = True) -> Dict[str, list]:
    """JSON-serialisable snapshot of every metric in the registry."""
    return _REGISTRY.snapshot(include_collected=include_collected)


def render_prometheus() -> str:
    """The registry in Prometheus text exposition format."""
    return _REGISTRY.to_prometheus()


def _format_name(entry: Dict) -> str:
    labels = entry.get("labels") or {}
    if not labels:
        return entry["name"]
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{entry['name']}{{{inner}}}"


def render_table(snap: Optional[Dict[str, list]] = None) -> str:
    """A plain-text table of the snapshot (used by ``repro stats``)."""
    if snap is None:
        snap = snapshot()
    lines: List[str] = []
    if snap["counters"]:
        lines.append("counters:")
        for entry in snap["counters"]:
            lines.append(f"  {_format_name(entry):56s} "
                         f"{entry['value']:>14g}")
    if snap["gauges"]:
        lines.append("gauges:")
        for entry in snap["gauges"]:
            lines.append(f"  {_format_name(entry):56s} "
                         f"{entry['value']:>14g}")
    if snap["histograms"]:
        lines.append("histograms:"
                     f"{'':48s}{'count':>8s}{'p50':>12s}{'p90':>12s}"
                     f"{'p99':>12s}")
        for entry in snap["histograms"]:
            lines.append(f"  {_format_name(entry):56s}"
                         f"{entry['count']:>9d}"
                         f"{entry['p50']:>12.4g}"
                         f"{entry['p90']:>12.4g}"
                         f"{entry['p99']:>12.4g}")
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)
