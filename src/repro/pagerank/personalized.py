"""Personalised PageRank.

The paper emphasises (Sections 1.3, 2.1 and 3.2) that personalisation is
obtained "by replacing e' with a personalized distribution vector v_p'" in
the maximal-irreducibility adjustment.  This module provides the preference
vector constructions used by the personalisation experiments (E10) and a thin
wrapper around :func:`repro.pagerank.pagerank.pagerank`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .._validation import normalize_distribution
from ..exceptions import ValidationError
from ..markov.irreducibility import DEFAULT_DAMPING
from .pagerank import PageRankResult, pagerank


def preference_from_nodes(n: int, favoured: Iterable[int], *,
                          weight: float = 1.0,
                          background: float = 0.0) -> np.ndarray:
    """Build a preference vector concentrated on a set of favoured nodes.

    Parameters
    ----------
    n:
        Total number of nodes.
    favoured:
        Indices that receive extra preference mass.
    weight:
        Relative weight given to each favoured node.
    background:
        Relative weight given to every node (0 means the surfer only ever
        teleports to favoured nodes).
    """
    favoured = list(favoured)
    if not favoured and background <= 0.0:
        raise ValidationError(
            "preference needs at least one favoured node or background > 0")
    weight = _ensure_finite_weight(weight, name="weight")
    vector = np.full(n, _ensure_finite_weight(background, name="background"))
    for node in favoured:
        if not 0 <= node < n:
            raise ValidationError(f"favoured node {node} out of range [0, {n})")
        vector[node] += weight
    return normalize_distribution(vector, name="preference")


def _ensure_finite_weight(value: float, *, name: str) -> float:
    """Reject NaN / infinite / negative weights with a :class:`ValidationError`."""
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")
    return value


def preference_from_weights(n: int, weights: Mapping[int, float], *,
                            background: float = 0.0) -> np.ndarray:
    """Build a preference vector from an explicit ``{node: weight}`` mapping."""
    background = _ensure_finite_weight(background, name="background")
    vector = np.full(n, background)
    for node, weight in weights.items():
        if not 0 <= int(node) < n:
            raise ValidationError(f"node {node} out of range [0, {n})")
        vector[int(node)] += _ensure_finite_weight(
            weight, name=f"preference weight for node {node}")
    return normalize_distribution(vector, name="preference")


def blend_preferences(vectors: Sequence[np.ndarray],
                      coefficients: Optional[Sequence[float]] = None) -> np.ndarray:
    """Convex combination of several preference vectors."""
    if not len(vectors):
        raise ValidationError("need at least one preference vector")
    if coefficients is None:
        coefficients = [1.0] * len(vectors)
    if len(coefficients) != len(vectors):
        raise ValidationError("coefficients and vectors must align")
    stacked = np.vstack([np.asarray(v, dtype=float) for v in vectors])
    if not np.all(np.isfinite(stacked)):
        raise ValidationError("preference vectors must be finite")
    if np.any(stacked < 0):
        raise ValidationError("preference vectors must be non-negative")
    coeffs = np.asarray(coefficients, dtype=float)
    if not np.all(np.isfinite(coeffs)):
        raise ValidationError("coefficients must be finite")
    if np.any(coeffs < 0):
        raise ValidationError("coefficients must be non-negative")
    blended = coeffs @ stacked
    return normalize_distribution(blended, name="blended preference")


def personalized_pagerank(adjacency, preference: np.ndarray,
                          damping: float = DEFAULT_DAMPING, *,
                          tol: float = 1e-10, max_iter: int = 1000,
                          method: str = "auto") -> PageRankResult:
    """PageRank with a non-uniform teleportation distribution."""
    return pagerank(adjacency, damping=damping, preference=preference,
                    tol=tol, max_iter=max_iter, method=method)
