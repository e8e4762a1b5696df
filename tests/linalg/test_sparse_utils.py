"""Tests for repro.linalg.sparse_utils."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.linalg.sparse_utils import (
    block_diagonal,
    coo_from_edges,
    empty_adjacency,
    in_degrees,
    nnz,
    out_degrees,
    submatrix,
)


class TestCooFromEdges:
    def test_builds_expected_matrix(self):
        matrix = coo_from_edges([(0, 1), (1, 2), (2, 0)], 3)
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        assert np.array_equal(matrix.toarray(), expected)

    def test_duplicate_edges_accumulate(self):
        matrix = coo_from_edges([(0, 1), (0, 1), (0, 1)], 2)
        assert matrix[0, 1] == pytest.approx(3.0)

    def test_explicit_weights(self):
        matrix = coo_from_edges([(0, 1), (1, 0)], 2, weights=[2.5, 0.5])
        assert matrix[0, 1] == pytest.approx(2.5)
        assert matrix[1, 0] == pytest.approx(0.5)

    def test_empty_edge_list(self):
        matrix = coo_from_edges([], 4)
        assert matrix.shape == (4, 4)
        assert matrix.nnz == 0

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValidationError):
            coo_from_edges([(0, 5)], 3)

    def test_rejects_negative_index(self):
        with pytest.raises(ValidationError):
            coo_from_edges([(-1, 0)], 3)

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValidationError):
            coo_from_edges([(0, 1)], 2, weights=[1.0, 2.0])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_edge_array_equals_pair_iterable_and_ordered_coo_pass(
            self, weighted):
        # Many duplicates: the (E, 2) array path, the pair-iterable path
        # and scipy's ordered COO duplicate pass must give the same bits.
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 12, size=(4000, 2))
        weights = rng.random(4000).tolist() if weighted else None
        data = np.ones(4000) if weights is None else np.asarray(weights)
        reference = sp.coo_matrix((data, (pairs[:, 0], pairs[:, 1])),
                                  shape=(12, 12))
        reference.sum_duplicates()
        reference = reference.tocsr()
        for edges in (pairs, [tuple(pair) for pair in pairs.tolist()]):
            matrix = coo_from_edges(edges, 12, weights=weights)
            assert matrix.indices.dtype == reference.indices.dtype
            assert np.array_equal(matrix.indptr, reference.indptr)
            assert np.array_equal(matrix.indices, reference.indices)
            assert np.array_equal(matrix.data, reference.data)

    def test_edge_array_is_validated(self):
        with pytest.raises(ValidationError):
            coo_from_edges(np.array([[0, 3]]), 3)
        with pytest.raises(ValidationError):
            coo_from_edges(np.array([[-1, 0]]), 3)


class TestDegrees:
    def test_out_degrees(self):
        matrix = coo_from_edges([(0, 1), (0, 2), (1, 2)], 3)
        assert list(out_degrees(matrix)) == [2.0, 1.0, 0.0]

    def test_in_degrees(self):
        matrix = coo_from_edges([(0, 1), (0, 2), (1, 2)], 3)
        assert list(in_degrees(matrix)) == [0.0, 1.0, 2.0]

    def test_degrees_dense_input(self):
        dense = np.array([[0, 2], [1, 0]], dtype=float)
        assert list(out_degrees(dense)) == [2.0, 1.0]
        assert list(in_degrees(dense)) == [1.0, 2.0]


class TestNnz:
    def test_sparse(self):
        assert nnz(coo_from_edges([(0, 1), (1, 0)], 2)) == 2

    def test_dense(self):
        assert nnz(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1


class TestSubmatrix:
    def test_extracts_principal_block(self):
        matrix = coo_from_edges([(0, 1), (1, 2), (2, 0), (0, 3)], 4)
        sub = submatrix(matrix, [0, 1, 2])
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        assert np.array_equal(np.asarray(sub.todense()), expected)

    def test_dense_input(self):
        dense = np.arange(16, dtype=float).reshape(4, 4)
        sub = submatrix(dense, [1, 3])
        assert np.array_equal(sub, dense[np.ix_([1, 3], [1, 3])])

    def test_preserves_requested_order(self):
        dense = np.arange(9, dtype=float).reshape(3, 3)
        sub = submatrix(dense, [2, 0])
        assert sub[0, 1] == dense[2, 0]


class TestBlockDiagonal:
    def test_assembles_blocks(self):
        blocks = [np.array([[1.0]]), np.array([[0, 2], [3, 0]], dtype=float)]
        matrix = block_diagonal(blocks)
        assert matrix.shape == (3, 3)
        assert matrix[0, 0] == 1.0
        assert matrix[1, 2] == 2.0
        assert matrix[2, 1] == 3.0
        assert matrix[0, 1] == 0.0

    def test_rejects_empty_list(self):
        with pytest.raises(ValidationError):
            block_diagonal([])


class TestEmptyAdjacency:
    def test_shape_and_content(self):
        matrix = empty_adjacency(5)
        assert matrix.shape == (5, 5)
        assert matrix.nnz == 0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            empty_adjacency(-1)
