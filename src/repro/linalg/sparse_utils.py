"""Helpers for building and inspecting scipy sparse matrices.

The web graphs used in the benchmarks contain up to a few hundred thousand
documents, so the adjacency and transition matrices must stay sparse.  These
utilities centralise the few sparse idioms the rest of the package needs so
that individual modules do not each grow their own scipy-format juggling.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..exceptions import ValidationError


def coo_from_edges(edges: Iterable[Tuple[int, int]], n: int,
                   *, weights: Sequence[float] | None = None,
                   sum_duplicates: bool = True) -> sp.csr_matrix:
    """Build an ``n x n`` CSR adjacency matrix from an iterable of edges.

    Parameters
    ----------
    edges:
        Iterable of ``(source, target)`` integer pairs; indices must lie in
        ``[0, n)``.  An ``(E, 2)`` integer array — how graph ingest carries
        links — is split into its columns without a Python-level pass.
    n:
        Number of nodes.
    weights:
        Optional per-edge weights (defaults to 1.0 for every edge).
    sum_duplicates:
        When ``True`` (default) duplicate edges accumulate their weights,
        which is exactly the SiteLink-counting behaviour the paper requires
        when aggregating a DocGraph into a SiteGraph.
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    if isinstance(edges, np.ndarray) and edges.ndim == 2 \
            and edges.shape[1] == 2:
        pairs = edges.astype(np.int64, copy=False)
    else:
        edge_list = list(edges)
        pairs = np.fromiter((v for e in edge_list for v in (e[0], e[1])),
                            dtype=np.int64, count=2 * len(edge_list)
                            ).reshape(-1, 2)
    rows, cols = pairs[:, 0], pairs[:, 1]
    if weights is None:
        data = np.ones(rows.size, dtype=float)
    else:
        data = np.asarray(list(weights), dtype=float)
        if data.size != rows.size:
            raise ValidationError(
                f"got {rows.size} edges but {data.size} weights")
    if rows.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValidationError("edge endpoints must lie in [0, n)")
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    # tocsr() sums duplicates itself, in compiled code but in no fixed
    # order: exact for unit weights (integer sums), so the slow ordered
    # COO pass is only needed to keep weighted sums reproducible.
    if sum_duplicates and weights is not None:
        matrix.sum_duplicates()
    return matrix.tocsr()


def out_degrees(adjacency) -> np.ndarray:
    """Return the (weighted) out-degree of every node."""
    if sp.issparse(adjacency):
        return np.asarray(adjacency.sum(axis=1)).ravel()
    return np.asarray(adjacency, dtype=float).sum(axis=1)


def in_degrees(adjacency) -> np.ndarray:
    """Return the (weighted) in-degree of every node."""
    if sp.issparse(adjacency):
        return np.asarray(adjacency.sum(axis=0)).ravel()
    return np.asarray(adjacency, dtype=float).sum(axis=0)


def nnz(matrix) -> int:
    """Return the number of structurally non-zero entries of a matrix."""
    if sp.issparse(matrix):
        return int(matrix.nnz)
    return int(np.count_nonzero(matrix))


def submatrix(matrix, indices: Sequence[int]):
    """Return the principal submatrix of *matrix* restricted to *indices*.

    Used to extract the per-site local link matrix ``G^s_d`` from the global
    DocGraph adjacency matrix.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if sp.issparse(matrix):
        return matrix.tocsr()[idx, :][:, idx]
    return np.asarray(matrix)[np.ix_(idx, idx)]


def csr_from_buffers(data, indices, indptr,
                     shape: Tuple[int, int]) -> sp.csr_matrix:
    """Build a CSR matrix over *externally owned* buffers, without copying.

    This is the read side of the on-disk graph store
    (:mod:`repro.io.diskgraph`): ``data`` / ``indices`` / ``indptr`` are
    numpy views over a memory-mapped block file, and the returned matrix
    reads them in place.  The caller owns the buffers' lifetime; scipy
    operations that would mutate the matrix copy first (the views are
    handed over read-only).  In place means *whole* buffers: scipy's
    constructor prunes, that is copies, a ``data`` or ``indices`` view
    that covers less than half of its base array, so a slice of a larger
    buffer arrives as a silent copy — map each array as its own buffer.

    The three arrays must already be in canonical CSR form — this function
    validates consistency (lengths, monotone ``indptr``) but never sorts
    or deduplicates, since that would write into memory it does not own.
    """
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if n_rows < 0 or n_cols < 0:
        raise ValidationError("shape must be non-negative")
    data = np.asarray(data)
    indices = np.asarray(indices)
    indptr = np.asarray(indptr)
    if indptr.size != n_rows + 1:
        raise ValidationError(
            f"indptr has length {indptr.size}, expected {n_rows + 1}")
    if data.size != indices.size:
        raise ValidationError(
            f"data ({data.size}) and indices ({indices.size}) must align")
    if indptr.size and int(indptr[-1]) != data.size:
        raise ValidationError(
            f"indptr[-1] is {int(indptr[-1])} but there are {data.size} "
            f"stored entries")
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols),
                         copy=False)


def csr_count_link(matrix: sp.csr_matrix, row: int,
                   column: int) -> sp.csr_matrix:
    """A canonical CSR link-count matrix (a layout's, a SiteGraph's)
    with one more link at ``(row, column)``, as a new matrix (*matrix* is
    left untouched).

    The arrays, index dtype and canonical flag of ``matrix +
    csr_matrix(([1.0], ([row], [column])))`` without the whole-matrix sum:
    an existing entry is incremented in a copy of ``data`` (``indices``
    and ``indptr`` shared), a new one is spliced into its row's sorted run
    (one insertion into copies of ``data`` and ``indices``, ``indptr``
    shifted past the row).
    """
    data, indices, indptr = matrix.data, matrix.indices, matrix.indptr
    low, high = int(indptr[row]), int(indptr[row + 1])
    at = low + int(np.searchsorted(indices[low:high], column))
    if at < high and indices[at] == column:
        data = data.copy()
        data[at] += 1.0
    else:
        data = np.insert(data, at, 1.0)
        indices = np.insert(indices, at, column)
        indptr = indptr.copy()
        indptr[row + 1:] += 1
    counted = sp.csr_matrix((data, indices, indptr), shape=matrix.shape)
    counted.has_canonical_format = True
    return counted


def block_diagonal(blocks: Sequence) -> sp.csr_matrix:
    """Assemble blocks into a block-diagonal sparse matrix.

    The LMM's collection of per-phase sub-state matrices ``U = {U^1..U^NP}``
    is naturally represented this way when a single global object is needed.
    The engine packs per-site adjacencies through the same code
    (:func:`repro.linalg.block_solver.pack_blocks`).

    The direct sum of canonical CSR blocks is array concatenation: ``data``
    as is, ``indices`` shifted by each block's column offset, ``indptr`` by
    its entry offset.  Blocks that are not canonical CSR (dense input,
    unsorted or duplicate entries) are converted first; the result always
    owns fresh buffers.
    """
    if not blocks:
        raise ValidationError("blocks must not be empty")
    canonical = []
    for block in blocks:
        block = sp.csr_matrix(block)
        if not block.has_canonical_format:
            block = block.copy()
            block.sum_duplicates()
        canonical.append(block)
    n_rows = np.array([block.shape[0] for block in canonical])
    n_cols = np.array([block.shape[1] for block in canonical])
    n_entries = np.array([block.nnz for block in canonical])
    shape = (int(n_rows.sum()), int(n_cols.sum()))
    index_dtype = sp.get_index_dtype(maxval=max(*shape, int(n_entries.sum())))
    indices = np.concatenate([block.indices for block in canonical]
                             ).astype(index_dtype, copy=False)
    indices += np.repeat(np.cumsum(n_cols) - n_cols, n_entries
                         ).astype(index_dtype)
    indptr = np.zeros(shape[0] + 1, dtype=index_dtype)
    np.concatenate([block.indptr[1:] for block in canonical],
                   out=indptr[1:], casting="unsafe")
    indptr[1:] += np.repeat(np.cumsum(n_entries) - n_entries, n_rows
                            ).astype(index_dtype)
    data = np.concatenate([block.data for block in canonical])
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def empty_adjacency(n: int) -> sp.csr_matrix:
    """Return an ``n x n`` all-zero CSR matrix."""
    if n < 0:
        raise ValidationError("n must be non-negative")
    return sp.csr_matrix((n, n), dtype=float)
