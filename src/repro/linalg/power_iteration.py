"""Power iteration for stationary distributions of Markov chains.

This is the numerical workhorse of the whole package: PageRank, SiteRank,
local DocRanks, and the stationary distribution of the global LMM matrix
``W`` are all computed by iterating ``x_{k+1} = x_k @ P`` until the change
between successive iterates falls below a tolerance.  Two kernels share
that loop: :func:`stationary_distribution` iterates an explicit
row-stochastic matrix (``core/`` and the paper's worked example hand it
one), :func:`stationary_distribution_dangling_aware` is the matrix-free
form over a sparse link matrix that every engine task runs.

The solver reports a :class:`PowerIterationResult` carrying the full residual
history so that convergence benchmarks (experiment E11,
``benchmarks/bench_convergence.py``) can be produced without
re-instrumenting the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp

from .. import obs
from .._validation import ensure_distribution, ensure_solver_budget, is_sparse
from ..exceptions import ConvergenceError, ValidationError
from .stochastic import uniform_distribution

#: Default convergence tolerance on the L1 norm of successive iterates.
DEFAULT_TOL: float = 1e-10

#: Default iteration budget.
DEFAULT_MAX_ITER: int = 1000


@dataclass
class PowerIterationResult:
    """Outcome of a power-iteration run.

    Attributes
    ----------
    vector:
        The converged probability distribution (L1-normalised).
    iterations:
        Number of iterations actually performed.
    converged:
        Whether the tolerance was met within the iteration budget.
    residuals:
        L1 distance between successive iterates, one entry per iteration
        (empty when the run recorded no history —
        ``record_residuals=False`` — in which case only the final residual
        is kept, in :attr:`last_residual`).
    tolerance:
        The tolerance the run targeted.
    """

    vector: np.ndarray
    iterations: int
    converged: bool
    residuals: List[float] = field(default_factory=list)
    tolerance: float = DEFAULT_TOL
    #: Residual of the final iteration, tracked even when the per-iteration
    #: history is not recorded (``record_residuals=False``).
    last_residual: float = float("inf")

    def __post_init__(self) -> None:
        if self.residuals and not np.isfinite(self.last_residual):
            self.last_residual = self.residuals[-1]

    @property
    def final_residual(self) -> float:
        """Residual of the last iteration (``inf`` when no iteration ran)."""
        return self.last_residual

    def __iter__(self):
        # Allow ``vector, iterations = result`` style unpacking.
        yield self.vector
        yield self.iterations


def stationary_distribution(transition, *, start: Optional[np.ndarray] = None,
                            tol: float = DEFAULT_TOL,
                            max_iter: int = DEFAULT_MAX_ITER,
                            raise_on_failure: bool = True,
                            callback: Optional[Callable[[int, float], None]] = None,
                            record_residuals: bool = True,
                            ) -> PowerIterationResult:
    """Compute the stationary distribution of a row-stochastic matrix.

    The iteration is ``x_{k+1} = x_k P`` where ``x`` is a row vector, i.e.
    the left principal eigenvector of ``P`` (equivalently the right principal
    eigenvector of ``P'`` used in the paper's Theorem 2 proof).

    Parameters
    ----------
    transition:
        Row-stochastic matrix (dense or sparse).
    start:
        Initial distribution; uniform when omitted.
    tol:
        L1 convergence tolerance on successive iterates.
    max_iter:
        Iteration budget.
    raise_on_failure:
        When ``True`` (default) a :class:`ConvergenceError` is raised if the
        budget is exhausted; when ``False`` the best iterate is returned with
        ``converged=False``.
    callback:
        Optional ``callback(iteration, residual)`` hook invoked after every
        iteration; used by the convergence benchmarks.
    record_residuals:
        Whether to keep the full residual history (default).  The engine's
        hot paths — which only consume the converged vector and the
        iteration count — pass ``False`` to skip the per-iteration list
        append; the final residual is always tracked either way.
    """
    n = transition.shape[0]
    if transition.shape[0] != transition.shape[1]:
        raise ValidationError(
            f"transition matrix must be square, got {transition.shape!r}")
    ensure_solver_budget(tol, max_iter)

    if start is None:
        x = uniform_distribution(n)
    else:
        x = ensure_distribution(start, name="start").copy()
        if x.size != n:
            raise ValidationError(
                f"start vector has length {x.size}, expected {n}")

    matrix = transition.tocsr() if is_sparse(transition) else np.asarray(
        transition, dtype=float)

    residuals: List[float] = []
    residual = float("inf")
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if is_sparse(matrix):
            new_x = np.asarray(x @ matrix).ravel()
        else:
            new_x = x @ matrix
        # Guard against floating point drift away from the simplex.
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

    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"power iteration did not converge within {max_iter} iterations "
            f"(last residual {residual:.3e}, tol {tol:.3e})",
            iterations=iterations, residual=residual)

    # Telemetry is recorded once per run, after the loop — the hot loop
    # itself carries no instrumentation.
    obs.record_solver("power", iterations, residual, converged, n=n,
                      nnz=matrix.nnz if is_sparse(matrix) else matrix.size)
    return PowerIterationResult(vector=x, iterations=iterations,
                                converged=converged, residuals=residuals,
                                tolerance=tol, last_residual=residual)


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


def principal_eigenvector_dense(matrix) -> np.ndarray:
    """Exact left principal eigenvector of a small dense stochastic matrix.

    Solves the eigenproblem with :func:`numpy.linalg.eig` and normalises the
    eigenvector associated with the eigenvalue closest to 1.  Intended only
    for small matrices in tests and for verifying the iterative solvers.
    """
    dense = np.asarray(matrix.todense() if sp.issparse(matrix) else matrix,
                       dtype=float)
    values, vectors = np.linalg.eig(dense.T)
    index = int(np.argmin(np.abs(values - 1.0)))
    vector = np.real(vectors[:, index])
    # The eigenvector sign is arbitrary; flip so the entries are non-negative.
    if vector.sum() < 0:
        vector = -vector
    vector = np.clip(vector, 0.0, None)
    total = vector.sum()
    if total == 0.0:
        raise ConvergenceError("principal eigenvector collapsed to zero")
    return vector / total
