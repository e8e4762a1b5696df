"""Construction and manipulation of row-stochastic matrices.

The web-ranking algorithms in this package all start from a directed graph's
adjacency matrix and turn it into a row-stochastic *transition* matrix of a
random surfer.  This module contains those conversions, including the
standard treatments of dangling nodes (rows with no out-links):

* ``"uniform"``   — a dangling node jumps to a uniformly random node
                    (the classical PageRank convention);
* ``"self"``      — a dangling node stays put (adds a self loop);
* ``"preference"``— a dangling node jumps according to a supplied
                    preference/personalisation distribution;
* ``"error"``     — dangling nodes are not allowed and raise.

All functions accept dense numpy arrays or scipy sparse matrices and preserve
sparsity where possible.
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np
import scipy.sparse as sp

from .._validation import (
    as_dense,
    ensure_distribution,
    ensure_nonnegative,
    ensure_square,
    is_sparse,
    row_sums,
)
from ..exceptions import ValidationError

DanglingPolicy = Literal["uniform", "self", "preference", "error"]


def dangling_nodes(adjacency) -> np.ndarray:
    """Return the indices of rows of *adjacency* with zero out-weight."""
    sums = row_sums(adjacency)
    return np.where(sums == 0.0)[0]


def transition_matrix(adjacency, *, dangling: DanglingPolicy = "uniform",
                      preference: Optional[np.ndarray] = None):
    """Build the row-stochastic transition matrix ``M`` from an adjacency matrix.

    Parameters
    ----------
    adjacency:
        Square non-negative matrix; entry ``(i, j)`` is the weight (usually
        the link count) of the edge ``i -> j``.
    dangling:
        How rows without out-links are handled; see the module docstring.
    preference:
        Probability distribution used when ``dangling == "preference"``.

    Returns
    -------
    A matrix of the same sparsity class as the input whose rows each sum to 1.

    Notes
    -----
    This is the function called ``M(G)`` in the paper (Section 2.1): it only
    normalises rows and patches dangling nodes.  It does **not** apply the
    damping/teleportation adjustment; see
    :func:`repro.markov.irreducibility.maximal_irreducibility` (``M̂(G)``)
    for that.
    """
    ensure_square(adjacency, name="adjacency")
    ensure_nonnegative(adjacency, name="adjacency")
    n = adjacency.shape[0]
    if n == 0:
        raise ValidationError("adjacency must have at least one node")

    sums = row_sums(adjacency)
    dangling_idx = np.where(sums == 0.0)[0]

    if dangling_idx.size and dangling == "error":
        raise ValidationError(
            f"adjacency has {dangling_idx.size} dangling node(s) "
            f"(first: {int(dangling_idx[0])}) and dangling policy is 'error'")

    if dangling == "preference":
        if preference is None:
            raise ValidationError(
                "dangling policy 'preference' requires a preference vector")
        preference = ensure_distribution(preference, name="preference")
        if preference.size != n:
            raise ValidationError(
                f"preference vector has length {preference.size}, expected {n}")

    if is_sparse(adjacency):
        return _sparse_transition(adjacency, sums, dangling_idx, dangling,
                                  preference)
    return _dense_transition(np.asarray(adjacency, dtype=float), sums,
                             dangling_idx, dangling, preference)


def _dense_transition(adjacency: np.ndarray, sums: np.ndarray,
                      dangling_idx: np.ndarray, dangling: DanglingPolicy,
                      preference: Optional[np.ndarray]) -> np.ndarray:
    n = adjacency.shape[0]
    matrix = adjacency.astype(float, copy=True)
    safe = sums.copy()
    safe[safe == 0.0] = 1.0
    matrix /= safe[:, None]
    for i in dangling_idx:
        if dangling == "uniform":
            matrix[i, :] = 1.0 / n
        elif dangling == "self":
            matrix[i, i] = 1.0
        elif dangling == "preference":
            matrix[i, :] = preference
    return matrix


def _sparse_transition(adjacency, sums: np.ndarray, dangling_idx: np.ndarray,
                       dangling: DanglingPolicy,
                       preference: Optional[np.ndarray]):
    n = adjacency.shape[0]
    csr = adjacency.tocsr().astype(float)
    safe = sums.copy()
    safe[safe == 0.0] = 1.0
    inv = sp.diags(1.0 / safe)
    matrix = (inv @ csr).tolil()
    for i in dangling_idx:
        if dangling == "uniform":
            matrix[i, :] = 1.0 / n
        elif dangling == "self":
            matrix[i, i] = 1.0
        elif dangling == "preference":
            matrix[i, :] = preference
    return matrix.tocsr()


def row_normalize(matrix):
    """Normalise the rows of a non-negative, finite matrix to sum to 1.

    Rows that sum to zero are left untouched (they remain all-zero), which
    makes this helper suitable for *sub-stochastic* matrices; use
    :func:`transition_matrix` when dangling rows must be repaired.  Sparse
    input comes back as a CSR matrix.  A canonical CSR (sorted indices, no
    duplicates) keeps its sparsity pattern: each stored entry is scaled by
    its row's ``1 / sum``, and an entry that underflows stays stored as
    zero.
    """
    ensure_nonnegative(matrix, name="matrix")
    sums = row_sums(matrix)
    safe = sums.copy()
    safe[safe == 0.0] = 1.0
    if not is_sparse(matrix):
        return np.asarray(matrix, dtype=float) / safe[:, None]
    csr = matrix.tocsr()
    if not csr.has_canonical_format:
        # The product sums duplicate entries after scaling them, which
        # scaling the stored entries would not reproduce.
        return (sp.diags(1.0 / safe) @ csr.astype(float)).tocsr()
    # Each stored entry times its row's ``1 / sum``: the products the
    # diagonal matmul forms, without the matmul.
    scaled = csr.data.astype(float, copy=False) * np.repeat(
        1.0 / safe, np.diff(csr.indptr))
    return sp.csr_matrix((scaled, csr.indices.copy(), csr.indptr.copy()),
                         shape=csr.shape)


def is_row_stochastic(matrix, *, atol: float = 1e-8) -> bool:
    """Return ``True`` when *matrix* is square, non-negative and row-stochastic."""
    try:
        ensure_square(matrix)
    except ValidationError:
        return False
    if is_sparse(matrix):
        if matrix.data.size and float(matrix.data.min()) < 0:
            return False
    else:
        if np.asarray(matrix).size and float(np.min(matrix)) < 0:
            return False
    sums = row_sums(matrix)
    return bool(np.all(np.abs(sums - 1.0) <= atol))


def is_sub_stochastic(matrix, *, atol: float = 1e-8) -> bool:
    """Return ``True`` when rows of a non-negative *matrix* sum to at most 1."""
    try:
        ensure_square(matrix)
        ensure_nonnegative(matrix)
    except ValidationError:
        return False
    sums = row_sums(matrix)
    return bool(np.all(sums <= 1.0 + atol))


def uniform_distribution(n: int) -> np.ndarray:
    """Return the uniform probability distribution over ``n`` states."""
    if n <= 0:
        raise ValidationError("n must be positive")
    return np.full(n, 1.0 / n)


def random_stochastic_matrix(n: int, *, rng: Optional[np.random.Generator] = None,
                             density: float = 1.0,
                             ensure_positive_diagonal: bool = False) -> np.ndarray:
    """Sample a dense random row-stochastic matrix (useful for tests/benchmarks).

    Parameters
    ----------
    n:
        Matrix size.
    rng:
        Numpy random generator; a fresh default generator is used when omitted.
    density:
        Fraction of entries that are non-zero *before* the dangling repair;
        each row is guaranteed at least one non-zero entry.
    ensure_positive_diagonal:
        When ``True`` each diagonal entry is forced positive, which makes the
        resulting chain aperiodic (useful when a primitive matrix is needed).
    """
    if rng is None:
        rng = np.random.default_rng()
    if n <= 0:
        raise ValidationError("n must be positive")
    if not 0.0 < density <= 1.0:
        raise ValidationError("density must be in (0, 1]")
    weights = rng.random((n, n))
    if density < 1.0:
        mask = rng.random((n, n)) < density
        weights = weights * mask
    # Guarantee every row has at least one non-zero entry.
    empty_rows = np.where(weights.sum(axis=1) == 0.0)[0]
    for i in empty_rows:
        weights[i, rng.integers(0, n)] = rng.random() + 0.1
    if ensure_positive_diagonal:
        weights[np.diag_indices(n)] += rng.random(n) + 0.05
    return weights / weights.sum(axis=1, keepdims=True)


def to_column_stochastic(matrix):
    """Return the transpose of a row-stochastic matrix (column-stochastic form).

    Some PageRank formulations work with column-stochastic matrices; the
    library keeps everything row-stochastic internally and exposes this helper
    for interoperability.
    """
    if is_sparse(matrix):
        return matrix.T.tocsr()
    return as_dense(matrix).T
