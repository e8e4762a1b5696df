"""The matrix-free power iteration allocates nothing per iteration
(tracemalloc probe).

An iteration is one sparse product — scipy allocates its output, which
becomes the next iterate — and in-place updates of that output and one
scratch vector.  The probe reads the traced peak between two callbacks:
one iteration may hold one vector beyond what was live at the previous
callback (the product's output), where the old expression-per-step loop
held three.  Allocations left charged to ``power_iteration.py`` after a
solve must not depend on how many iterations ran.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import power_iteration
from repro.linalg.power_iteration import stationary_distribution_dangling_aware
from repro.linalg.stochastic import row_normalize

#: Documents of the probed site: large enough that one vector (8 bytes a
#: document) dwarfs the interpreter's own small allocations.
N = 20_000

#: Extra bytes an iteration may hold, in vectors of ``N`` floats: the
#: product's output plus slack for Python floats and scipy's bookkeeping.
VECTORS_PER_ITERATION = 1.5

#: Bytes the held allocations of two solves may differ by: which line a
#: recycled Python float is charged to varies.  One object kept per
#: iteration would cost more over the ~20 extra iterations of the long
#: solve.
HELD_SLACK = 256


@pytest.fixture(scope="module")
def link():
    rng = np.random.default_rng(8)
    rows, cols = rng.integers(0, N, 5 * N), rng.integers(0, N, 5 * N)
    adjacency = sp.csr_matrix((np.ones(5 * N), (rows, cols)), shape=(N, N))
    # A few dangling pages, so the dangling term runs too.
    adjacency = sp.csr_matrix(adjacency.multiply(
        (rng.random(N) > 0.01)[:, None]))
    return row_normalize(adjacency)


def _probe(link, tol):
    """(iterations, peak extra bytes per iteration, bytes the module holds)."""
    peaks, live = [], []

    def callback(iteration, residual):
        current, peak = tracemalloc.get_traced_memory()
        if live:
            peaks.append(peak - live[-1])
        tracemalloc.reset_peak()
        live.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start(1)
    try:
        result = stationary_distribution_dangling_aware(
            link, 0.85, tol=tol, callback=callback, record_residuals=False)
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, power_iteration.__file__)])
    finally:
        tracemalloc.stop()
    return (result.iterations, max(peaks),
            sum(stat.size for stat in held.statistics("filename")))


def test_no_allocation_per_iteration(link):
    stationary_distribution_dangling_aware(link, 0.85)  # first-call caches
    short_iterations, short_peak, short_held = _probe(link, 1e-4)
    long_iterations, long_peak, long_held = _probe(link, 1e-12)
    assert long_iterations > short_iterations + 10
    for peak in (short_peak, long_peak):
        assert peak <= VECTORS_PER_ITERATION * 8 * N
    assert abs(long_held - short_held) <= HELD_SLACK
