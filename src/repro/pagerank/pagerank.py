"""The classical (flat) PageRank algorithm.

This is the baseline the paper compares the Layered Markov Model against,
implemented exactly as described in Section 2.1: derive the row-stochastic
transition matrix ``M`` from the link graph, apply the maximal-irreducibility
adjustment ``M̂ = f M + (1 - f) e v'`` and run the power method.

Two code paths are provided, with one fixed point and one dangling policy:

* an **explicit** path that materialises ``M̂`` (for callers that hold a
  dense matrix anyway — ``core/``, the paper's 12-state worked example —
  and as the oracle the tests compare the other path against);
* a **matrix-free** path that keeps only the sparse link matrix and applies
  teleportation and dangling corrections analytically each iteration —
  what every sparse input, and every engine solve, runs at every size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .._validation import ensure_distribution, ensure_probability, is_sparse
from ..exceptions import ValidationError
from ..linalg.power_iteration import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    stationary_distribution,
    stationary_distribution_dangling_aware,
)
from ..linalg.stochastic import (
    row_normalize,
    transition_matrix,
    uniform_distribution,
)
from ..markov.irreducibility import DEFAULT_DAMPING, maximal_irreducibility


@dataclass
class PageRankResult:
    """Result of a PageRank computation.

    Attributes
    ----------
    scores:
        The PageRank vector — a probability distribution over nodes.
    iterations:
        Power iterations used.
    converged:
        Whether the solver met its tolerance.
    residuals:
        Per-iteration L1 residuals (useful for convergence plots).
    damping:
        The damping factor used.
    """

    scores: np.ndarray
    iterations: int
    converged: bool
    residuals: List[float] = field(default_factory=list)
    damping: float = DEFAULT_DAMPING

    def ranking(self) -> np.ndarray:
        """Node indices sorted by descending score (ties broken by index)."""
        return np.lexsort((np.arange(self.scores.size), -self.scores))

    def top_k(self, k: int) -> List[int]:
        """The ``k`` highest-scoring node indices, best first."""
        return [int(i) for i in self.ranking()[:k]]

    def score_of(self, node: int) -> float:
        """Score of a single node index."""
        return float(self.scores[node])


def pagerank(adjacency, damping: float = DEFAULT_DAMPING,
             preference: Optional[np.ndarray] = None, *,
             tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
             method: str = "auto",
             dangling: str = "uniform",
             start: Optional[np.ndarray] = None,
             record_residuals: bool = True) -> PageRankResult:
    """Compute PageRank of a directed (weighted) link graph.

    Parameters
    ----------
    adjacency:
        Square non-negative adjacency/weight matrix (dense or sparse);
        entry ``(i, j)`` is the number of links from page ``i`` to page ``j``.
    damping:
        The damping factor ``f`` (probability of following a link).
    preference:
        Optional personalisation distribution ``v``; uniform by default.
    tol, max_iter:
        Power-method stopping parameters.
    method:
        ``"dense"`` materialises the Google matrix; ``"sparse"`` uses the
        matrix-free iteration; ``"auto"`` decides from the input — a scipy
        sparse *adjacency* runs sparse, a dense array (whose caller already
        paid for n² entries) runs dense.  Both reach the same fixed point.
    dangling:
        Dangling-node policy, honoured by both methods
        (:mod:`repro.linalg.stochastic`): ``"uniform"`` (default) sends a
        dangling node's mass to every node equally, ``"preference"`` to
        the *preference* vector, ``"self"`` keeps it in place and
        ``"error"`` rejects graphs that have dangling nodes.
    start:
        Optional starting distribution for the power iteration (uniform by
        default).  Seeding with a previously converged vector — the
        warm-start path of :mod:`repro.engine` — cuts the iteration count
        after small graph changes without affecting the fixed point.
    record_residuals:
        Whether the result carries the per-iteration residual history
        (default).  The engine's hot paths pass ``False``: they discard
        the history anyway, so recording it is a per-iteration list
        append for nothing.

    Returns
    -------
    PageRankResult
    """
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValidationError(
            f"adjacency must be square, got {adjacency.shape!r}")
    damping = ensure_probability(damping, name="damping")
    n = adjacency.shape[0]
    if preference is not None:
        preference = ensure_distribution(preference, name="preference")
        if preference.size != n:
            raise ValidationError(
                f"preference has length {preference.size}, expected {n}")

    if method == "auto":
        method = "sparse" if is_sparse(adjacency) else "dense"
    if method not in ("dense", "sparse"):
        raise ValidationError(f"unknown method {method!r}")

    if method == "dense":
        stochastic = transition_matrix(adjacency, dangling=dangling,
                                       preference=preference
                                       if dangling == "preference" else None)
        google = maximal_irreducibility(stochastic, damping, preference)
        result = stationary_distribution(google, tol=tol, max_iter=max_iter,
                                         start=start,
                                         record_residuals=record_residuals)
    else:
        if dangling == "preference" and preference is None:
            raise ValidationError(
                "dangling policy 'preference' requires a preference vector")
        # "self" and "error" leave no dangling row behind, so their
        # transition matrix is as sparse as the input; the two
        # redistributing policies stay analytic (the kernel's default
        # dangling weights are the preference).
        link = (row_normalize(adjacency)
                if dangling in ("uniform", "preference")
                else transition_matrix(adjacency, dangling=dangling))
        result = stationary_distribution_dangling_aware(
            link, damping, preference, tol=tol, max_iter=max_iter,
            dangling_weights=uniform_distribution(n)
            if dangling == "uniform" else None,
            start=start, record_residuals=record_residuals)

    return PageRankResult(scores=result.vector, iterations=result.iterations,
                          converged=result.converged,
                          residuals=result.residuals, damping=damping)


def pagerank_from_stochastic(transition, damping: float = DEFAULT_DAMPING,
                             preference: Optional[np.ndarray] = None, *,
                             tol: float = DEFAULT_TOL,
                             max_iter: int = DEFAULT_MAX_ITER) -> PageRankResult:
    """PageRank of a matrix that is *already* row-stochastic.

    This is the operation the paper applies to the phase matrix ``Y`` and the
    per-phase sub-state matrices ``U^I`` in its worked example: those matrices
    are given directly as Markovian matrices, not as raw adjacency counts, so
    no normalisation step must be applied before the damping adjustment.
    """
    damping = ensure_probability(damping, name="damping")
    google = maximal_irreducibility(transition, damping, preference)
    result = stationary_distribution(google, tol=tol, max_iter=max_iter)
    return PageRankResult(scores=result.vector, iterations=result.iterations,
                          converged=result.converged,
                          residuals=result.residuals, damping=damping)
