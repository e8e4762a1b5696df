"""Numeric edge cases pushed through the fused block solver.

Every case runs on both loops of :func:`repro.linalg.block_solver.solve_blocks`:
the single-vector loop (1-D start / preference) and the K-column SpMM loop
(``(n_rows, K)`` preference).  The dedicated kernel has its own copy of
these checks in ``test_power_iteration.py``; the fused path must hold the
same contract.  The ``tol`` / ``max_iter`` checks at the end run against
every kernel.
"""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import (
    ConvergenceError,
    NotADistributionError,
    ValidationError,
)
from repro.linalg import pack_blocks, solve_blocks, stationary_distribution
from repro.linalg.block_solver import pack_block_vectors
from repro.linalg.power_iteration import (
    stationary_distribution_dangling_aware,
)
from repro.linalg.stochastic import row_normalize, transition_matrix
from repro.markov.irreducibility import maximal_irreducibility

DAMPING = 0.85
K = 3


def _adjacency(rng, n, density=0.4, dangling_rows=0):
    dense = (rng.random((n, n)) < density).astype(float)
    dense[:dangling_rows, :] = 0.0
    return sp.csr_matrix(dense)


def _columns(rng, n, k=K):
    columns = rng.random((n, k)) + 0.05
    return columns / columns.sum(axis=0)


def _reference(adjacency, damping=DAMPING, preference=None, tol=1e-13):
    stochastic = transition_matrix(adjacency, dangling="uniform")
    google = maximal_irreducibility(stochastic, damping, preference)
    return stationary_distribution(google, tol=tol, max_iter=5000).vector


def _pack(blocks, rng, multi):
    """Pack bare adjacencies; with *multi* every block gets K random columns."""
    if not multi:
        return pack_blocks(blocks)
    return pack_blocks([(adjacency, None, _columns(rng, adjacency.shape[0]))
                        for adjacency in blocks])


def _columns_of(result, index, multi):
    vector = result.vectors[index]
    return vector if multi else vector[:, None]


def _preference_columns(packed, index, multi):
    if not multi:
        return [None]
    block = packed.preference[packed.block_slice(index)]
    return [block[:, column] for column in range(block.shape[1])]


PATHS = pytest.mark.parametrize("multi", [False, True],
                                ids=["single", "k_columns"])


@PATHS
class TestStructure:
    def test_all_dangling_block_among_others(self, rng, multi):
        blocks = [_adjacency(rng, 6), sp.csr_matrix((4, 4), dtype=float),
                  _adjacency(rng, 5, dangling_rows=2)]
        packed = _pack(blocks, rng, multi)
        result = solve_blocks(packed, DAMPING, tol=1e-13)
        assert result.converged.all()
        for index, adjacency in enumerate(blocks):
            got = _columns_of(result, index, multi)
            for column, preference in enumerate(
                    _preference_columns(packed, index, multi)):
                expected = _reference(adjacency, preference=preference)
                assert np.allclose(got[:, column], expected, atol=1e-12,
                                   rtol=0.0)
        if not multi:
            # No links at all: the uniform start is already the fixed point.
            assert np.allclose(result.vectors[1], np.full(4, 0.25),
                               atol=1e-15, rtol=0.0)

    def test_single_document_blocks_mixed_with_larger_ones(self, rng, multi):
        sizes = (1, 9, 1, 1, 14, 1, 3)
        blocks = [sp.csr_matrix(np.ones((1, 1))) if n == 1 and i % 2
                  else (sp.csr_matrix((1, 1), dtype=float) if n == 1
                        else _adjacency(rng, n, dangling_rows=1))
                  for i, n in enumerate(sizes)]
        packed = _pack(blocks, rng, multi)
        result = solve_blocks(packed, DAMPING, tol=1e-13)
        assert result.converged.all()
        for index, (n, adjacency) in enumerate(zip(sizes, blocks)):
            got = _columns_of(result, index, multi)
            if n == 1:
                # A lone page holds all of its site's mass from sweep one,
                # self-linked or dangling.
                assert np.all(got == 1.0)
                assert np.all(np.asarray(result.iterations[index]) == 1)
                continue
            for column, preference in enumerate(
                    _preference_columns(packed, index, multi)):
                expected = _reference(adjacency, preference=preference)
                assert np.allclose(got[:, column], expected, atol=1e-12,
                                   rtol=0.0)
        assert result.sweeps == int(np.max(result.iterations))

    def test_zero_weight_preference_is_rejected(self, rng, multi):
        adjacency = _adjacency(rng, 5)
        if multi:
            preference = _columns(rng, 5)
            preference[:, 1] = 0.0
        else:
            preference = np.zeros(5)
        with pytest.raises(NotADistributionError):
            pack_blocks([(adjacency, None, preference),
                         (_adjacency(rng, 3), None, None)])
        with pytest.raises(NotADistributionError):
            pack_block_vectors([preference, None], [5, 3],
                               name="preference")


@PATHS
class TestDampingBounds:
    def test_damping_zero_is_the_teleport_vector(self, rng, multi):
        blocks = [_adjacency(rng, 7, dangling_rows=2), _adjacency(rng, 4)]
        packed = _pack(blocks, rng, multi)
        result = solve_blocks(packed, 0.0, tol=1e-13)
        assert result.converged.all()
        for index, adjacency in enumerate(blocks):
            got = _columns_of(result, index, multi)
            n = adjacency.shape[0]
            for column, preference in enumerate(
                    _preference_columns(packed, index, multi)):
                expected = (np.full(n, 1.0 / n) if preference is None
                            else preference)
                assert np.allclose(got[:, column], expected, atol=1e-15,
                                   rtol=0.0)
        assert int(np.max(result.iterations)) <= 2

    def test_damping_one_is_the_link_chain(self, rng, multi):
        # Aperiodic, irreducible blocks (complete graphs with self-loops,
        # one with a dangling page spread uniformly): without teleportation
        # the fixed point is the link chain's own stationary vector.
        dense = np.ones((5, 5))
        dense[0, 1] = 3.0
        dangling = np.ones((4, 4))
        dangling[2, :] = 0.0
        blocks = [sp.csr_matrix(dense), sp.csr_matrix(dangling)]
        packed = _pack(blocks, rng, multi)
        result = solve_blocks(packed, 1.0, tol=1e-13, max_iter=5000)
        assert result.converged.all()
        for index, adjacency in enumerate(blocks):
            expected = stationary_distribution(
                transition_matrix(adjacency, dangling="uniform"),
                tol=1e-14, max_iter=5000).vector
            got = _columns_of(result, index, multi)
            for column in range(got.shape[1]):
                # Teleport columns play no part at f = 1.
                assert np.allclose(got[:, column], expected, atol=1e-12,
                                   rtol=0.0)

    def test_damping_outside_bounds_is_rejected(self, rng, multi):
        packed = _pack([_adjacency(rng, 4)], rng, multi)
        for damping in (-1e-12, 1.0 + 1e-12, float("nan")):
            with pytest.raises(ValidationError):
                solve_blocks(packed, damping)


@PATHS
class TestWarmStarts:
    def test_nan_warm_start_is_rejected(self, rng, multi):
        adjacency = _adjacency(rng, 5)
        start = _columns(rng, 5) if multi else np.full(5, 0.2)
        start[1] = np.nan
        with pytest.raises(NotADistributionError):
            pack_blocks([(adjacency, start, None),
                         (_adjacency(rng, 3), None, None)])
        with pytest.raises(NotADistributionError):
            pack_block_vectors([None, start], [3, 5], name="start")

    def test_wrong_length_warm_start_is_rejected(self, rng, multi):
        adjacency = _adjacency(rng, 5)
        start = _columns(rng, 4) if multi else np.full(4, 0.25)
        with pytest.raises(ValidationError):
            pack_blocks([(adjacency, start, None)])
        with pytest.raises(ValidationError):
            pack_block_vectors([start, None], [5, 3], name="start")


@PATHS
class TestToleranceBelowResolution:
    """A positive ``tol`` no residual can reach: stop at ``max_iter``."""

    TOL = 1e-300
    MAX_ITER = 60

    def _packed(self, multi):
        rng = np.random.default_rng(4)
        blocks = [_adjacency(rng, n, density=0.3, dangling_rows=1)
                  for n in (12, 17, 9)]
        return _pack(blocks, rng, multi)

    def test_reports_the_last_residual(self, multi):
        result = solve_blocks(self._packed(multi), DAMPING, tol=self.TOL,
                              max_iter=self.MAX_ITER,
                              raise_on_failure=False)
        # A column may land on an exact floating-point fixed point (a
        # residual of 0.0 is below any positive tol); the rest run out.
        stuck = ~result.converged
        assert stuck.any()
        assert result.sweeps == self.MAX_ITER
        assert np.all(result.iterations[stuck] == self.MAX_ITER)
        assert np.all(np.isfinite(result.final_residuals))
        assert np.all(result.final_residuals[stuck] >= self.TOL)
        assert np.all(result.final_residuals[~stuck] == 0.0)
        for vector in result.vectors:
            assert np.allclose(vector.sum(axis=0), 1.0)

    def test_raises_naming_the_worst_block(self, multi):
        packed = self._packed(multi)
        degraded = solve_blocks(packed, DAMPING, tol=self.TOL,
                                max_iter=self.MAX_ITER,
                                raise_on_failure=False)
        by_block = degraded.final_residuals.reshape(
            degraded.final_residuals.shape[0], -1).max(axis=1)
        worst = int(np.argmax(by_block))
        with pytest.raises(ConvergenceError) as caught:
            solve_blocks(packed, DAMPING, tol=self.TOL,
                         max_iter=self.MAX_ITER)
        assert f"worst: block {worst} " in str(caught.value)
        assert caught.value.iterations == self.MAX_ITER
        assert caught.value.residual == by_block[worst]
        assert np.isfinite(caught.value.residual)


def _kernels():
    """Each solver kernel as ``run(tol, max_iter)`` on a small problem."""
    rng = np.random.default_rng(8)
    adjacency = _adjacency(rng, 6, dangling_rows=1)
    single = pack_blocks([adjacency, _adjacency(rng, 4)])
    multi = _pack([adjacency, _adjacency(rng, 4)], rng, True)
    link = row_normalize(adjacency)
    google = maximal_irreducibility(
        transition_matrix(adjacency, dangling="uniform"), DAMPING)
    return {
        "solve_blocks": lambda tol, max_iter: solve_blocks(
            single, DAMPING, tol=tol, max_iter=max_iter),
        "solve_blocks_k_columns": lambda tol, max_iter: solve_blocks(
            multi, DAMPING, tol=tol, max_iter=max_iter),
        "dangling_aware": lambda tol, max_iter:
            stationary_distribution_dangling_aware(
                link, DAMPING, tol=tol, max_iter=max_iter),
        "stationary_distribution": lambda tol, max_iter:
            stationary_distribution(google, tol=tol, max_iter=max_iter),
    }


KERNELS = _kernels()


class TestSolverBudget:
    """Every kernel: ``tol`` positive and finite, ``max_iter`` an int >= 1."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9,
                                     True, "1e-6", None])
    def test_bad_tol_is_rejected_naming_it(self, kernel, tol):
        with pytest.raises(ValidationError, match=re.escape(repr(tol))):
            KERNELS[kernel](tol, 100)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("max_iter", [True, False, 2.5, 0, -3, "10",
                                          np.float64(50.0), None])
    def test_bad_max_iter_is_rejected_naming_it(self, kernel, max_iter):
        with pytest.raises(ValidationError,
                           match=re.escape(repr(max_iter))):
            KERNELS[kernel](1e-8, max_iter)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_numpy_scalars_are_accepted(self, kernel):
        KERNELS[kernel](np.float64(1e-8), np.int64(500))
