"""Guard: the disabled telemetry path must not allocate in hot loops.

The solver and executor call sites run inside per-iteration loops; with
``obs.disable()`` every helper must return after one flag check and
``span()`` must hand back the shared null scope.  This test pins that
contract with tracemalloc so an innocent-looking refactor (say, building
the label dict before the flag check) cannot silently regress it.
"""

import os
import tracemalloc

from repro import obs


def _hot_loop(n):
    for _ in range(n):
        obs.record_solver("hot", 50, 1e-9, True, n=1240, nnz=5700)
        obs.inc("hot_total")
        obs.observe("hot_seconds", 0.001)
        obs.set_gauge("hot_gauge", 1.0)
        with obs.span("hot"):
            pass


def test_disabled_span_is_preallocated():
    obs.disable()
    assert obs.span("a") is obs.span("b")


def test_disabled_path_records_nothing():
    obs.disable()
    _hot_loop(10)
    snap = obs.snapshot(include_collected=False)
    assert snap == {"counters": [], "gauges": [], "histograms": []}


def test_disabled_path_does_not_allocate():
    obs.disable()
    _hot_loop(100)  # warm up interned state and code objects

    obs_dir = os.path.dirname(obs.__file__)
    filters = [tracemalloc.Filter(True, os.path.join(obs_dir, "*"))]
    tracemalloc.start(5)
    try:
        _hot_loop(10)  # settle tracemalloc's own bookkeeping
        before = tracemalloc.take_snapshot().filter_traces(filters)
        _hot_loop(1000)
        after = tracemalloc.take_snapshot().filter_traces(filters)
    finally:
        tracemalloc.stop()

    growth = sum(stat.size_diff
                 for stat in after.compare_to(before, "lineno")
                 if stat.size_diff > 0)
    assert growth == 0, (
        f"disabled telemetry leaked {growth} bytes from {obs_dir}")
