"""Tests for repro.linalg.sparse_utils."""

import mmap

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.linalg.sparse_utils import (
    block_diagonal,
    coo_from_edges,
    csr_from_buffers,
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

    def test_matches_scipy_block_diag(self):
        blocks = [sp.csr_matrix(np.array([[0, 1.0], [2.0, 0]])),
                  sp.csr_matrix(np.array([[5.0]])),
                  sp.csr_matrix(np.array([[0, 0, 3.0], [0, 0, 0],
                                          [4.0, 0, 0]]))]
        direct = block_diagonal(blocks)
        expected = sp.block_diag(blocks, format="csr")
        assert direct.shape == (6, 6)
        assert np.array_equal(direct.toarray(), expected.toarray())

    def test_owns_fresh_buffers(self):
        block = sp.csr_matrix(np.array([[0, 1.0], [2.0, 0]]))
        direct = block_diagonal([block])
        assert not np.shares_memory(direct.data, block.data)
        assert np.array_equal(direct.toarray(), block.toarray())


def _family(matrix):
    return matrix.data, matrix.indices, matrix.indptr


class TestCsrFromBuffers:
    def test_round_trips_bitwise(self, toy_docgraph):
        matrix = toy_docgraph.adjacency()
        rebuilt = csr_from_buffers(*_family(matrix), matrix.shape)
        assert rebuilt.shape == matrix.shape
        assert rebuilt.nnz == matrix.nnz
        assert np.array_equal(rebuilt.toarray(), matrix.toarray())

    def test_reads_the_buffers_in_place(self):
        matrix = sp.csr_matrix(np.array([[0, 2.0], [3.0, 0]]))
        rebuilt = csr_from_buffers(*_family(matrix), matrix.shape)
        assert np.shares_memory(rebuilt.data, matrix.data)
        assert np.shares_memory(rebuilt.indices, matrix.indices)
        assert np.shares_memory(rebuilt.indptr, matrix.indptr)

    def test_whole_array_views_are_read_in_place(self):
        matrix = sp.random(40, 40, density=0.2, format="csr", random_state=3)
        rebuilt = csr_from_buffers(matrix.data[:], matrix.indices[:],
                                   matrix.indptr[:], matrix.shape)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(rebuilt, name),
                                    getattr(matrix, name))

    def test_a_view_under_half_its_base_is_copied(self):
        # scipy prunes (copies) data and indices that cover less than
        # half of their base: why a disk window maps each array alone.
        data, indices = np.ones(100), np.arange(100, dtype=np.int32) % 10
        rebuilt = csr_from_buffers(data[:10], indices[:10],
                                   np.arange(11, dtype=np.int32), (10, 10))
        assert not np.shares_memory(rebuilt.data, data)
        assert not np.shares_memory(rebuilt.indices, indices)
        assert np.array_equal(rebuilt.indices, indices[:10])

    def test_a_mapped_window_reads_its_mapping(self, tmp_path):
        from repro.graphgen import generate_synthetic_web
        from repro.io import write_diskgraph

        web = generate_synthetic_web(n_sites=6, n_documents=300, seed=2)
        graph = write_diskgraph(web, tmp_path / "graph")
        window, _ = graph.unit_blocks(graph.sites()[1:4])
        for array in (window.matrix.data, window.matrix.indices):
            root = array
            while isinstance(root, (np.ndarray, memoryview)):
                root = root.base if isinstance(root, np.ndarray) \
                    else root.obj
            assert isinstance(root, mmap.mmap)

    def test_read_only_buffers_serve_products(self):
        # The on-disk graph hands over read-only memory-mapped views.
        matrix = sp.csr_matrix(np.array([[0, 2.0], [3.0, 0]]))
        views = []
        for array in _family(matrix):
            view = array.view()
            view.flags.writeable = False
            views.append(view)
        rebuilt = csr_from_buffers(*views, matrix.shape)
        assert np.array_equal(rebuilt @ np.array([1.0, 1.0]), [2.0, 3.0])
        assert np.array_equal(rebuilt.T @ np.array([1.0, 1.0]), [3.0, 2.0])

    def test_empty_matrix(self):
        rebuilt = csr_from_buffers(np.zeros(0), np.zeros(0, dtype=np.int32),
                                   np.zeros(4, dtype=np.int32), (3, 3))
        assert rebuilt.shape == (3, 3)
        assert rebuilt.nnz == 0

    def test_rejects_indptr_of_the_wrong_length(self):
        matrix = sp.csr_matrix(np.eye(3))
        with pytest.raises(ValidationError, match="indptr"):
            csr_from_buffers(matrix.data, matrix.indices,
                             matrix.indptr[:-1], matrix.shape)

    def test_rejects_misaligned_data_and_indices(self):
        matrix = sp.csr_matrix(np.eye(3))
        with pytest.raises(ValidationError, match="align"):
            csr_from_buffers(matrix.data[:-1], matrix.indices,
                             matrix.indptr, matrix.shape)

    def test_rejects_an_entry_count_indptr_disagrees_with(self):
        matrix = sp.csr_matrix(np.eye(3))
        indptr = matrix.indptr.copy()
        indptr[-1] += 1
        with pytest.raises(ValidationError, match="stored entries"):
            csr_from_buffers(matrix.data, matrix.indices, indptr,
                             matrix.shape)

    def test_rejects_negative_shape(self):
        with pytest.raises(ValidationError, match="non-negative"):
            csr_from_buffers(np.zeros(0), np.zeros(0), np.zeros(1), (-1, 3))


class TestEmptyAdjacency:
    def test_shape_and_content(self):
        matrix = empty_adjacency(5)
        assert matrix.shape == (5, 5)
        assert matrix.nnz == 0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            empty_adjacency(-1)
