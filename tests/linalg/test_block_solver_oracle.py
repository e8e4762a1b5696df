"""The fused block solver returns bitwise what its pre-halving loops returned.

``block_solver_oracle.py`` holds the single-vector and K-column sweep loops
as they stood before the working-set rewrite (compaction on a halving
schedule, one packed output vector, no dangling term on dangling-free
sets).  Every field of :class:`~repro.linalg.block_solver.BlockSolveResult`
must come out bitwise equal: vectors, iterations, convergence flags, final
residuals, the sweep count, the active-block history and the residual
histories.  Each solve also stays within the halving schedule's bound of
``ceil(log2(n_rows)) + 1`` compactions (``block_solver_compactions_total``).

The property tests run a short, derandomised example budget by default;
``--hypothesis-profile=oracle-long`` (registered in ``tests/conftest.py``)
runs the long one.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from block_solver_oracle import oracle_solve_blocks
from repro import obs
from repro.engine.plan import BatchedSiteTask, batch_site_tasks, site_tasks_for
from repro.exceptions import ConvergenceError
from repro.graphgen import generate_synthetic_web
from repro.linalg.block_solver import PackedBlocks, pack_blocks, solve_blocks

LONG_PROFILE = "oracle-long"

#: The property budget: the loaded profile's under ``oracle-long``, a short
#: fixed one otherwise (tier-1).
ORACLE_SETTINGS = (
    settings(deadline=None)
    if settings.get_current_profile_name() == LONG_PROFILE
    else settings(max_examples=25, deadline=None, derandomize=True))


def assert_bitwise(result, oracle):
    """Every field of a solve equal to the oracle's, bit for bit."""
    assert len(result.vectors) == len(oracle.vectors)
    for got, expected in zip(result.vectors, oracle.vectors):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)
    for name in ("iterations", "converged", "final_residuals"):
        got, expected = getattr(result, name), getattr(oracle, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name
    assert result.sweeps == oracle.sweeps
    assert result.active_history == oracle.active_history
    assert result.residuals == oracle.residuals
    assert result.tolerance == oracle.tolerance


def solve_counting(packed, damping, **kwargs):
    """``solve_blocks`` plus the compactions it made, checked against the
    halving bound: each one at least halves the working rows."""
    counter = "block_solver_compactions_total"
    before = obs.registry().counter_value(counter)
    result = solve_blocks(packed, damping, **kwargs)
    compactions = obs.registry().counter_value(counter) - before
    assert compactions <= math.ceil(math.log2(packed.n_rows)) + 1
    return result, compactions


def _distribution(rng, n, k):
    values = rng.random((n, k) if k > 1 else n) + 1e-3
    return values / values.sum(axis=0)


@st.composite
def batches(draw):
    """A random packed batch plus solver settings (as kwargs)."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_blocks = draw(st.integers(1, 40))
    max_size = draw(st.integers(1, 25))
    dangling_share = draw(st.sampled_from([0.0, 0.0, 0.2, 0.6, 1.0]))
    k = draw(st.sampled_from([1, 1, 2, 3]))
    warm = draw(st.booleans())
    personalised = draw(st.booleans())
    blocks = []
    for _ in range(n_blocks):
        n = int(rng.integers(1, max_size + 1))
        dense = (rng.random((n, n)) < rng.uniform(0.05, 0.6)).astype(float)
        dense *= rng.integers(1, 4, size=(n, n))
        dense[rng.random(n) < dangling_share, :] = 0.0
        start = _distribution(rng, n, k) if warm and rng.random() < 0.7 \
            else None
        preference = (_distribution(rng, n, k)
                      if (personalised or k > 1) else None)
        blocks.append((sp.csr_matrix(dense), start, preference))
    packed = pack_blocks(blocks)
    budget = draw(st.sampled_from([3, 12, 1000]))
    kwargs = dict(
        tol=draw(st.sampled_from([1e-4, 1e-8, 1e-12, 1e-300])),
        max_iter=budget, raise_on_failure=False,
        record_residuals=draw(st.booleans()),
        freeze_columns=draw(st.booleans()))
    damping = draw(st.sampled_from([0.0, 0.5, 0.85, 0.99, 1.0]))
    return packed, damping, kwargs


class TestAgainstOracle:
    @ORACLE_SETTINGS
    @given(batches())
    def test_random_batches(self, case):
        packed, damping, kwargs = case
        result, _ = solve_counting(packed, damping, **kwargs)
        assert_bitwise(result, oracle_solve_blocks(packed, damping, **kwargs))

    @pytest.mark.parametrize("k", [1, 3])
    def test_failure_message_matches(self, k):
        rng = np.random.default_rng(11)
        blocks = [(sp.csr_matrix((rng.random((n, n)) < 0.3).astype(float)),
                   None, _distribution(rng, n, k) if k > 1 else None)
                  for n in (5, 13, 1, 8)]
        packed = pack_blocks(blocks)
        kwargs = dict(tol=1e-300, max_iter=9)
        with pytest.raises(ConvergenceError) as got:
            solve_blocks(packed, 0.85, **kwargs)
        with pytest.raises(ConvergenceError) as expected:
            oracle_solve_blocks(packed, 0.85, **kwargs)
        assert str(got.value) == str(expected.value)
        assert got.value.residual == expected.value.residual
        assert got.value.iterations == expected.value.iterations


@pytest.fixture(scope="module")
def fused_web_batch():
    """The one fused batch of a 20k-document, 1000-site web."""
    web = generate_synthetic_web(n_sites=1000, n_documents=20_000, seed=3)
    payload = batch_site_tasks(site_tasks_for(web))
    fused = [task for task in payload if isinstance(task, BatchedSiteTask)]
    assert len(fused) == 1 and fused[0].n_sites > 900
    task = fused[0]
    return PackedBlocks(matrix=task.adjacency,
                        offsets=np.asarray(task.offsets))


class TestLargeWeb:
    @pytest.mark.parametrize("record_residuals", [False, True])
    def test_single_vector(self, fused_web_batch, record_residuals):
        kwargs = dict(tol=1e-10, max_iter=1000,
                      record_residuals=record_residuals)
        result, compactions = solve_counting(fused_web_batch, 0.85, **kwargs)
        assert compactions >= 1
        assert_bitwise(result,
                       oracle_solve_blocks(fused_web_batch, 0.85, **kwargs))

    def test_warm_started_and_personalised(self, fused_web_batch):
        rng = np.random.default_rng(5)
        sizes = fused_web_batch.sizes
        start = np.concatenate([_distribution(rng, int(n), 1) for n in sizes])
        preference = np.concatenate([_distribution(rng, int(n), 1)
                                     for n in sizes])
        packed = PackedBlocks(matrix=fused_web_batch.matrix,
                              offsets=fused_web_batch.offsets,
                              start=start, preference=preference)
        result, _ = solve_counting(packed, 0.85, tol=1e-10)
        assert_bitwise(result, oracle_solve_blocks(packed, 0.85, tol=1e-10,
                                                   max_iter=1000))

    @pytest.mark.parametrize("freeze_columns", [True, False])
    def test_k_columns(self, fused_web_batch, freeze_columns):
        rng = np.random.default_rng(6)
        preference = np.concatenate([_distribution(rng, int(n), 3)
                                     for n in fused_web_batch.sizes])
        packed = PackedBlocks(matrix=fused_web_batch.matrix,
                              offsets=fused_web_batch.offsets,
                              preference=preference)
        kwargs = dict(tol=1e-8, max_iter=1000, record_residuals=True,
                      freeze_columns=freeze_columns)
        result, compactions = solve_counting(packed, 0.85, **kwargs)
        assert compactions >= 1
        assert_bitwise(result, oracle_solve_blocks(packed, 0.85, **kwargs))
