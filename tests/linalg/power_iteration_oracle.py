"""The matrix-free power iteration and its row normalisation, as they were.

A frozen, test-only copy of
:func:`repro.linalg.power_iteration.stationary_distribution_dangling_aware`
and :func:`repro.linalg.stochastic.row_normalize` (with the ``row_sums``
helper it called) from before the kernel learnt to update its iterates in
place and skip the dangling term on dangling-free links, and before
``row_normalize`` scaled a canonical CSR's entries instead of multiplying
by a diagonal matrix.  Those rewrites promise the same floats:
``test_power_iteration_oracle.py`` asserts the production results bitwise
equal to what these functions return.  Keep this file as it is; it is the
reference, not a second implementation to maintain.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro._validation import (
    ensure_distribution,
    ensure_nonnegative,
    ensure_solver_budget,
    is_sparse,
)
from repro.exceptions import ConvergenceError, ValidationError
from repro.linalg.power_iteration import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    PowerIterationResult,
)
from repro.linalg.stochastic import uniform_distribution


def row_sums(matrix) -> np.ndarray:
    """Return the vector of row sums of a dense or sparse matrix."""
    if is_sparse(matrix):
        return np.asarray(matrix.sum(axis=1)).ravel()
    return np.asarray(matrix, dtype=float).sum(axis=1)


def row_normalize(matrix):
    """Normalise the rows of a non-negative matrix to sum to 1.

    Rows that sum to zero are left untouched (they remain all-zero), which
    makes this helper suitable for *sub-stochastic* matrices; use
    :func:`transition_matrix` when dangling rows must be repaired.
    """
    ensure_nonnegative(matrix, name="matrix")
    sums = row_sums(matrix)
    safe = sums.copy()
    safe[safe == 0.0] = 1.0
    if is_sparse(matrix):
        return (sp.diags(1.0 / safe) @ matrix.tocsr().astype(float)).tocsr()
    return np.asarray(matrix, dtype=float) / safe[:, None]


def stationary_distribution_dangling_aware(
        link_matrix, damping: float, preference: Optional[np.ndarray] = None,
        *, dangling_weights: Optional[np.ndarray] = None,
        tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
        start: Optional[np.ndarray] = None,
        callback: Optional[Callable[[int, float], None]] = None,
        record_residuals: bool = True,
        ) -> PowerIterationResult:
    """Power iteration in the *matrix-free* PageRank form.

    Rather than materialising the dense Google matrix
    ``M̂ = f M + (1 - f) e v'`` this routine keeps only the sparse
    link-derived matrix and applies the rank-one teleportation and the
    dangling-node correction analytically each iteration:

    ``x_{k+1} = f x_k M + f (x_k · d) w + (1 - f) v``

    where ``d`` is the dangling indicator, ``w`` the dangling redistribution
    distribution and ``v`` the teleportation preference.  Every engine
    solve — each dedicated site's local DocRank and the SiteRank — runs
    this form at every size; it agrees with building ``M̂`` explicitly (a
    property exercised by the tests).  ``start``, ``tol`` and ``max_iter``
    are validated like :func:`stationary_distribution` validates them,
    before any iteration.

    Parameters
    ----------
    link_matrix:
        Row-normalised link matrix where dangling rows are *all zero*
        (i.e. the output of
        :func:`repro.linalg.stochastic.row_normalize` on the raw adjacency).
    damping:
        The damping factor ``f``.
    preference:
        Teleportation distribution ``v`` (uniform when omitted).
    dangling_weights:
        Distribution used to redistribute the mass of dangling rows
        (defaults to *preference*).
    """
    n = link_matrix.shape[0]
    if not 0.0 <= damping <= 1.0:
        raise ValidationError("damping must be in [0, 1]")
    ensure_solver_budget(tol, max_iter)
    if preference is None:
        v = uniform_distribution(n)
    else:
        v = ensure_distribution(preference, name="preference")
        if v.size != n:
            raise ValidationError(
                f"preference has length {v.size}, expected {n}")
    if dangling_weights is None:
        w = v
    else:
        w = ensure_distribution(dangling_weights, name="dangling_weights")
        if w.size != n:
            raise ValidationError(
                f"dangling_weights has length {w.size}, expected {n}")
    if start is None:
        x = uniform_distribution(n)
    else:
        x = ensure_distribution(start, name="start").copy()
        if x.size != n:
            raise ValidationError(
                f"start vector has length {x.size}, expected {n}")

    sparse = is_sparse(link_matrix)
    matrix = link_matrix.tocsr() if sparse else np.asarray(
        link_matrix, dtype=float)
    dangling_mask = (np.asarray(matrix.sum(axis=1)).ravel() == 0.0).astype(
        float)
    # The iteration is ``x @ matrix``; it runs as ``operator @ x`` on the
    # transpose taken once here (a view: CSC over the CSR's buffers).
    # ``x @ csr`` makes scipy construct that transposed object every
    # iteration, which costs several times the product itself on a
    # site-sized block.  Same additions in the same order, so the iterates
    # are bitwise those of ``x @ matrix``.
    operator = matrix.T
    teleport = (1.0 - damping) * v

    residuals: List[float] = []
    residual = float("inf")
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        dangling_mass = float(x @ dangling_mask)
        new_x = damping * (operator @ x + dangling_mass * w) + teleport
        total = new_x.sum()
        if total > 0:
            new_x = new_x / total
        residual = float(np.abs(new_x - x).sum())
        if record_residuals:
            residuals.append(residual)
        x = new_x
        if callback is not None:
            callback(iterations, residual)
        if residual < tol:
            converged = True
            break

    if not converged:
        raise ConvergenceError(
            f"matrix-free power iteration did not converge within {max_iter} "
            f"iterations (last residual {residual:.3e})",
            iterations=iterations, residual=residual)

    obs.record_solver("power_dangling", iterations, residual, converged, n=n,
                      nnz=matrix.nnz if sparse else matrix.size)
    return PowerIterationResult(vector=x, iterations=iterations,
                                converged=converged, residuals=residuals,
                                tolerance=tol, last_residual=residual)
