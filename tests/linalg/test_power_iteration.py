"""Tests for repro.linalg.power_iteration."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConvergenceError, ValidationError
from repro.linalg.power_iteration import (
    principal_eigenvector_dense,
    stationary_distribution,
    stationary_distribution_dangling_aware,
)
from repro.linalg.stochastic import (
    random_stochastic_matrix,
    row_normalize,
    transition_matrix,
)
from repro.markov.irreducibility import maximal_irreducibility

TWO_STATE = np.array([[0.9, 0.1], [0.5, 0.5]])
#: Exact stationary distribution of TWO_STATE: pi = (5/6, 1/6).
TWO_STATE_STATIONARY = np.array([5.0 / 6.0, 1.0 / 6.0])


class TestStationaryDistribution:
    def test_two_state_exact_value(self):
        result = stationary_distribution(TWO_STATE, tol=1e-14)
        assert np.allclose(result.vector, TWO_STATE_STATIONARY, atol=1e-10)

    def test_result_is_distribution(self):
        result = stationary_distribution(TWO_STATE)
        assert result.vector.sum() == pytest.approx(1.0)
        assert result.vector.min() >= 0.0

    def test_fixed_point_property(self):
        result = stationary_distribution(TWO_STATE, tol=1e-14)
        assert np.allclose(result.vector @ TWO_STATE, result.vector,
                           atol=1e-10)

    def test_identity_matrix_returns_start(self):
        start = np.array([0.3, 0.7])
        result = stationary_distribution(np.eye(2), start=start)
        assert np.allclose(result.vector, start)

    def test_converged_flag_and_residuals(self):
        result = stationary_distribution(TWO_STATE)
        assert result.converged
        assert len(result.residuals) == result.iterations
        assert result.final_residual < result.tolerance

    def test_residuals_eventually_decrease(self):
        result = stationary_distribution(TWO_STATE, tol=1e-12)
        assert result.residuals[-1] < result.residuals[0]

    def test_unpacking_protocol(self):
        vector, iterations = stationary_distribution(TWO_STATE)
        assert vector.shape == (2,)
        assert iterations >= 1

    def test_sparse_matches_dense(self):
        dense = random_stochastic_matrix(20,
                                         rng=np.random.default_rng(0),
                                         ensure_positive_diagonal=True)
        sparse = sp.csr_matrix(dense)
        dense_result = stationary_distribution(dense, tol=1e-12)
        sparse_result = stationary_distribution(sparse, tol=1e-12)
        assert np.allclose(dense_result.vector, sparse_result.vector,
                           atol=1e-8)

    def test_custom_start_vector(self):
        start = np.array([1.0, 0.0])
        result = stationary_distribution(TWO_STATE, start=start, tol=1e-12)
        assert np.allclose(result.vector, TWO_STATE_STATIONARY, atol=1e-8)

    def test_callback_invoked_each_iteration(self):
        calls = []
        stationary_distribution(TWO_STATE,
                                callback=lambda i, r: calls.append((i, r)))
        assert len(calls) >= 1
        assert calls[0][0] == 1

    def test_non_convergence_raises(self):
        # Period-2 chain: the power method oscillates and never converges
        # from a non-stationary start.
        periodic = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConvergenceError):
            stationary_distribution(periodic, start=np.array([1.0, 0.0]),
                                    max_iter=50)

    def test_non_convergence_tolerated_when_requested(self):
        periodic = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = stationary_distribution(periodic,
                                         start=np.array([1.0, 0.0]),
                                         max_iter=50,
                                         raise_on_failure=False)
        assert not result.converged
        assert result.iterations == 50

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            stationary_distribution(np.ones((2, 3)) / 3)

    def test_rejects_bad_start_length(self):
        with pytest.raises(ValidationError):
            stationary_distribution(TWO_STATE, start=np.array([1.0]))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValidationError):
            stationary_distribution(TWO_STATE, tol=0.0)

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValidationError):
            stationary_distribution(TWO_STATE, max_iter=0)


class TestDanglingAwareIteration:
    def adjacency(self):
        return np.array([
            [0, 1, 1, 0],
            [0, 0, 1, 1],
            [1, 0, 0, 0],
            [0, 0, 0, 0],  # dangling
        ], dtype=float)

    def test_matches_explicit_google_matrix(self):
        adjacency = self.adjacency()
        damping = 0.85
        explicit = maximal_irreducibility(
            transition_matrix(adjacency, dangling="uniform"), damping)
        explicit_result = stationary_distribution(explicit, tol=1e-13)
        matrix_free = stationary_distribution_dangling_aware(
            row_normalize(adjacency), damping, tol=1e-13)
        assert np.allclose(explicit_result.vector, matrix_free.vector,
                           atol=1e-8)

    def test_matches_on_sparse_input(self):
        adjacency = sp.csr_matrix(self.adjacency())
        result = stationary_distribution_dangling_aware(
            row_normalize(adjacency), 0.85, tol=1e-12)
        assert result.vector.sum() == pytest.approx(1.0)

    def test_personalised_teleportation(self):
        adjacency = self.adjacency()
        preference = np.array([0.7, 0.1, 0.1, 0.1])
        result = stationary_distribution_dangling_aware(
            row_normalize(adjacency), 0.85, preference, tol=1e-12)
        uniform = stationary_distribution_dangling_aware(
            row_normalize(adjacency), 0.85, tol=1e-12)
        assert result.vector[0] > uniform.vector[0]

    def test_damping_zero_returns_preference(self):
        adjacency = self.adjacency()
        preference = np.array([0.4, 0.3, 0.2, 0.1])
        result = stationary_distribution_dangling_aware(
            row_normalize(adjacency), 0.0, preference, tol=1e-12)
        assert np.allclose(result.vector, preference, atol=1e-9)

    def test_rejects_bad_damping(self):
        with pytest.raises(ValidationError):
            stationary_distribution_dangling_aware(
                row_normalize(self.adjacency()), 1.5)

    def test_rejects_bad_preference_length(self):
        with pytest.raises(ValidationError):
            stationary_distribution_dangling_aware(
                row_normalize(self.adjacency()), 0.85,
                preference=np.array([0.5, 0.5]))


class TestDanglingAwareHostileParameters:
    """The matrix-free kernel validates like the explicit one, up front."""

    LINK = row_normalize(sp.csr_matrix(np.array([
        [0, 1, 1, 0],
        [0, 0, 1, 1],
        [1, 0, 0, 0],
        [0, 0, 0, 0],
    ], dtype=float)))

    def solve(self, **kwargs):
        def never(iteration, residual):
            raise AssertionError("iterated before validating")

        return stationary_distribution_dangling_aware(
            self.LINK, 0.85, callback=never, **kwargs)

    def test_rejects_bad_start_length(self):
        with pytest.raises(ValidationError, match="start vector has length"):
            self.solve(start=np.array([0.5, 0.5]))

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValidationError, match="max_iter"):
            self.solve(max_iter=0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValidationError, match="tol"):
            self.solve(tol=0.0)

    @pytest.mark.parametrize("start", [
        [np.nan, 0.5, 0.25, 0.25],
        [1.5, -0.5, 0.0, 0.0],
        [np.inf, 0.0, 0.0, 0.0],
    ])
    def test_rejects_nan_or_negative_start(self, start):
        with pytest.raises(ValidationError):
            self.solve(start=np.array(start))

    def test_same_errors_through_pagerank(self):
        from repro.pagerank import pagerank

        adjacency = sp.csr_matrix(self.LINK)
        for hostile in ({"start": np.array([1.0])}, {"max_iter": 0},
                        {"tol": 0.0}):
            for method in ("sparse", "dense", "auto"):
                with pytest.raises(ValidationError):
                    pagerank(adjacency, method=method, **hostile)

    @pytest.mark.parametrize("as_sparse", [True, False])
    def test_iterates_are_bitwise_the_row_vector_loop(self, as_sparse):
        # The kernel multiplies by a transpose built once; the reference
        # is the textbook ``x @ matrix`` loop it replaced.
        rng = np.random.default_rng(3)
        n = 60
        adjacency = sp.random(n, n, density=0.08, random_state=rng,
                              format="csr")
        adjacency = adjacency.tolil()
        adjacency[[4, 17], :] = 0.0  # two dangling rows
        link = row_normalize(adjacency.tocsr())
        if not as_sparse:
            link = link.toarray()
        v = rng.random(n)
        v /= v.sum()
        w = np.full(n, 1.0 / n)
        mask = (np.asarray(link.sum(axis=1)).ravel() == 0.0).astype(float)
        x = np.full(n, 1.0 / n)
        history = []
        for _ in range(12):
            linked = np.asarray(x @ link).ravel()
            new_x = 0.85 * (linked + float(x @ mask) * w) + (1.0 - 0.85) * v
            new_x = new_x / new_x.sum()
            history.append(float(np.abs(new_x - x).sum()))
            x = new_x
        result = stationary_distribution_dangling_aware(
            link, 0.85, v, dangling_weights=w, tol=history[-1] * 1.0000001,
            max_iter=12)
        assert result.iterations == 12
        assert result.residuals == history
        assert np.array_equal(result.vector, x)


class TestPrincipalEigenvectorDense:
    def test_matches_power_method(self):
        matrix = random_stochastic_matrix(12, rng=np.random.default_rng(5),
                                          ensure_positive_diagonal=True)
        exact = principal_eigenvector_dense(matrix)
        iterative = stationary_distribution(matrix, tol=1e-13).vector
        assert np.allclose(exact, iterative, atol=1e-8)

    def test_two_state_exact(self):
        assert np.allclose(principal_eigenvector_dense(TWO_STATE),
                           TWO_STATE_STATIONARY, atol=1e-10)


class TestPowerIterationProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_stationary_is_fixed_point(self, seed, n):
        matrix = random_stochastic_matrix(
            n, rng=np.random.default_rng(seed),
            ensure_positive_diagonal=True)
        result = stationary_distribution(matrix, tol=1e-12, max_iter=5000)
        assert np.allclose(result.vector @ matrix, result.vector, atol=1e-7)
        assert result.vector.sum() == pytest.approx(1.0, abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_start_vector_does_not_change_limit_for_positive_matrix(self, seed):
        rng = np.random.default_rng(seed)
        matrix = random_stochastic_matrix(6, rng=rng)
        matrix = 0.8 * matrix + 0.2 / 6  # strictly positive => primitive
        start = rng.random(6)
        start = start / start.sum()
        from_uniform = stationary_distribution(matrix, tol=1e-13).vector
        from_custom = stationary_distribution(matrix, start=start,
                                              tol=1e-13).vector
        assert np.allclose(from_uniform, from_custom, atol=1e-8)
