"""Tests for repro.linalg.stochastic."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ValidationError
from repro.linalg.stochastic import (
    dangling_nodes,
    is_row_stochastic,
    is_sub_stochastic,
    random_stochastic_matrix,
    row_normalize,
    to_column_stochastic,
    transition_matrix,
    uniform_distribution,
)


def simple_adjacency():
    return np.array([
        [0, 1, 1],
        [1, 0, 0],
        [0, 0, 0],  # dangling
    ], dtype=float)


class TestTransitionMatrix:
    def test_rows_sum_to_one_uniform_dangling(self):
        matrix = transition_matrix(simple_adjacency(), dangling="uniform")
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_link_weights_are_normalised(self):
        matrix = transition_matrix(simple_adjacency())
        assert matrix[0, 1] == pytest.approx(0.5)
        assert matrix[0, 2] == pytest.approx(0.5)
        assert matrix[1, 0] == pytest.approx(1.0)

    def test_uniform_dangling_row(self):
        matrix = transition_matrix(simple_adjacency(), dangling="uniform")
        assert np.allclose(matrix[2], 1.0 / 3)

    def test_self_dangling_row(self):
        matrix = transition_matrix(simple_adjacency(), dangling="self")
        assert matrix[2, 2] == pytest.approx(1.0)
        assert matrix[2, 0] == pytest.approx(0.0)

    def test_preference_dangling_row(self):
        preference = np.array([0.7, 0.2, 0.1])
        matrix = transition_matrix(simple_adjacency(), dangling="preference",
                                   preference=preference)
        assert np.allclose(matrix[2], preference)

    def test_preference_dangling_requires_vector(self):
        with pytest.raises(ValidationError):
            transition_matrix(simple_adjacency(), dangling="preference")

    def test_error_dangling_policy_raises(self):
        with pytest.raises(ValidationError, match="dangling"):
            transition_matrix(simple_adjacency(), dangling="error")

    def test_error_policy_accepts_graph_without_dangling(self):
        adjacency = np.array([[0, 1], [1, 0]], dtype=float)
        matrix = transition_matrix(adjacency, dangling="error")
        assert is_row_stochastic(matrix)

    def test_sparse_input_stays_sparse(self):
        sparse = sp.csr_matrix(simple_adjacency())
        matrix = transition_matrix(sparse)
        assert sp.issparse(matrix)
        assert np.allclose(np.asarray(matrix.sum(axis=1)).ravel(), 1.0)

    def test_sparse_and_dense_agree(self):
        dense = transition_matrix(simple_adjacency())
        sparse = transition_matrix(sp.csr_matrix(simple_adjacency()))
        assert np.allclose(dense, sparse.toarray())

    def test_weighted_edges_respected(self):
        adjacency = np.array([[0, 3, 1], [0, 0, 2], [1, 0, 0]], dtype=float)
        matrix = transition_matrix(adjacency)
        assert matrix[0, 1] == pytest.approx(0.75)
        assert matrix[0, 2] == pytest.approx(0.25)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            transition_matrix(np.ones((2, 3)))

    def test_rejects_negative_entries(self):
        adjacency = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            transition_matrix(adjacency)

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValidationError):
            transition_matrix(np.zeros((0, 0)))


class TestRowNormalize:
    def test_preserves_zero_rows(self):
        normalised = row_normalize(simple_adjacency())
        assert np.allclose(normalised[2], 0.0)

    def test_non_zero_rows_sum_to_one(self):
        normalised = row_normalize(simple_adjacency())
        assert np.allclose(normalised[:2].sum(axis=1), 1.0)

    def test_sparse_row_normalize(self):
        normalised = row_normalize(sp.csr_matrix(simple_adjacency()))
        sums = np.asarray(normalised.sum(axis=1)).ravel()
        assert sums[2] == pytest.approx(0.0)
        assert np.allclose(sums[:2], 1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_non_finite_weight_is_rejected(self, bad, sparse):
        # An infinite weight used to empty its row (``inf * 0`` is pruned),
        # turning the page dangling without a word; NaN passed the
        # ``< 0`` check.
        adjacency = simple_adjacency()
        adjacency[0, 1] = bad
        if sparse:
            adjacency = sp.csr_matrix(adjacency)
        with pytest.raises(ValidationError, match="non-negative and finite"):
            row_normalize(adjacency)

    def test_sparse_result_keeps_sorted_indices(self):
        adjacency = sp.csr_matrix(np.array([[0, 2, 1, 4], [1, 0, 0, 0],
                                            [0, 0, 0, 0], [3, 0, 5, 0]],
                                           dtype=float))
        normalised = row_normalize(adjacency)
        assert np.array_equal(normalised.indices, adjacency.indices)
        assert np.array_equal(normalised.indptr, adjacency.indptr)
        assert normalised.has_canonical_format
        assert np.array_equal(normalised.toarray(),
                              row_normalize(adjacency.toarray()))


class TestPredicates:
    def test_is_row_stochastic_true(self):
        assert is_row_stochastic(np.array([[0.5, 0.5], [1.0, 0.0]]))

    def test_is_row_stochastic_false_for_bad_sum(self):
        assert not is_row_stochastic(np.array([[0.5, 0.6], [1.0, 0.0]]))

    def test_is_row_stochastic_false_for_negative(self):
        assert not is_row_stochastic(np.array([[1.5, -0.5], [1.0, 0.0]]))

    def test_is_row_stochastic_false_for_non_square(self):
        assert not is_row_stochastic(np.ones((2, 3)) / 3)

    def test_is_sub_stochastic(self):
        assert is_sub_stochastic(np.array([[0.2, 0.3], [0.0, 0.0]]))
        assert not is_sub_stochastic(np.array([[0.9, 0.3], [0.0, 0.0]]))

    def test_dangling_nodes_found(self):
        assert list(dangling_nodes(simple_adjacency())) == [2]

    def test_dangling_nodes_empty_when_none(self):
        adjacency = np.array([[0, 1], [1, 0]], dtype=float)
        assert dangling_nodes(adjacency).size == 0


class TestUniformDistribution:
    def test_sums_to_one(self):
        assert uniform_distribution(7).sum() == pytest.approx(1.0)

    def test_single_state(self):
        assert uniform_distribution(1)[0] == pytest.approx(1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            uniform_distribution(0)


class TestRandomStochasticMatrix:
    def test_is_row_stochastic(self, rng):
        matrix = random_stochastic_matrix(10, rng=rng)
        assert is_row_stochastic(matrix)

    def test_density_reduces_nonzeros(self, rng):
        dense = random_stochastic_matrix(30, rng=rng, density=1.0)
        sparse = random_stochastic_matrix(30, rng=rng, density=0.1)
        assert np.count_nonzero(sparse) < np.count_nonzero(dense)

    def test_positive_diagonal_option(self, rng):
        matrix = random_stochastic_matrix(8, rng=rng,
                                          ensure_positive_diagonal=True)
        assert np.all(np.diag(matrix) > 0)

    def test_rejects_bad_density(self, rng):
        with pytest.raises(ValidationError):
            random_stochastic_matrix(5, rng=rng, density=0.0)

    def test_rejects_bad_size(self, rng):
        with pytest.raises(ValidationError):
            random_stochastic_matrix(0, rng=rng)


class TestColumnStochastic:
    def test_transpose_relationship(self):
        matrix = transition_matrix(simple_adjacency())
        assert np.allclose(to_column_stochastic(matrix), matrix.T)

    def test_sparse_transpose(self):
        matrix = transition_matrix(sp.csr_matrix(simple_adjacency()))
        transposed = to_column_stochastic(matrix)
        assert sp.issparse(transposed)
        assert np.allclose(transposed.toarray(), matrix.toarray().T)


@st.composite
def adjacency_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    values = draw(hnp.arrays(np.float64, (n, n),
                             elements=st.floats(0, 5, allow_nan=False)))
    return values


class TestStochasticProperties:
    @given(adjacency=adjacency_matrices())
    @settings(max_examples=60, deadline=None)
    def test_transition_matrix_always_row_stochastic(self, adjacency):
        matrix = transition_matrix(adjacency, dangling="uniform")
        assert is_row_stochastic(matrix, atol=1e-7)

    @given(adjacency=adjacency_matrices())
    @settings(max_examples=60, deadline=None)
    def test_row_normalize_is_sub_stochastic(self, adjacency):
        assert is_sub_stochastic(row_normalize(adjacency), atol=1e-7)
