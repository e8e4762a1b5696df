"""Shared validation helpers used across the package.

These helpers normalise the many "is this a proper stochastic object?"
checks into a small set of functions with consistent error messages.  They
accept dense :class:`numpy.ndarray` objects as well as any scipy sparse
matrix and always return the validated object unchanged, so they can be used
inline::

    matrix = ensure_square(matrix, name="transition matrix")
"""

from __future__ import annotations

import math
import numbers

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    DimensionMismatchError,
    NotADistributionError,
    NotStochasticError,
    ValidationError,
)

#: Default absolute tolerance used when checking stochasticity and
#: distribution sums.  Loose enough for accumulated floating point error in
#: large sparse matrices, tight enough to catch genuinely broken inputs.
DEFAULT_ATOL: float = 1e-8


def is_sparse(matrix) -> bool:
    """Return ``True`` when *matrix* is any scipy sparse container."""
    return sp.issparse(matrix)


def as_dense(matrix) -> np.ndarray:
    """Return *matrix* as a dense :class:`numpy.ndarray` (copying sparse input)."""
    if is_sparse(matrix):
        return np.asarray(matrix.todense(), dtype=float)
    return np.asarray(matrix, dtype=float)


def ensure_square(matrix, *, name: str = "matrix"):
    """Validate that *matrix* is 2-D and square, returning it unchanged."""
    if matrix is None:
        raise ValidationError(f"{name} must not be None")
    shape = matrix.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError(
            f"{name} must be square, got shape {shape!r}")
    return matrix


def ensure_nonnegative(matrix, *, name: str = "matrix"):
    """Validate that every entry of *matrix* is finite and >= 0.

    Returns the matrix unchanged.  A NaN entry makes the minimum NaN, which
    fails ``>= 0``; an infinite one makes the maximum infinite.
    """
    if is_sparse(matrix):
        data = matrix.data
    else:
        data = np.asarray(matrix)
    if data.size and not (float(np.min(data)) >= 0.0
                          and float(np.max(data)) < math.inf):
        raise ValidationError(f"{name} must be non-negative and finite")
    return matrix


def row_sums(matrix) -> np.ndarray:
    """Return the vector of row sums of a dense or sparse matrix."""
    if is_sparse(matrix):
        if matrix.format == "csr" and matrix.dtype == np.float64:
            # The reduction scipy's ``sum(axis=1)`` runs, without the
            # ``np.matrix`` round trip that costs several times the sums.
            sums = np.zeros(matrix.shape[0])
            rows = np.flatnonzero(np.diff(matrix.indptr))
            sums[rows] = np.add.reduceat(matrix.data, matrix.indptr[rows])
            return sums
        return np.asarray(matrix.sum(axis=1)).ravel()
    return np.asarray(matrix, dtype=float).sum(axis=1)


def ensure_row_stochastic(matrix, *, atol: float = DEFAULT_ATOL,
                          name: str = "matrix"):
    """Validate that *matrix* is square, non-negative and row-stochastic."""
    ensure_square(matrix, name=name)
    ensure_nonnegative(matrix, name=name)
    sums = row_sums(matrix)
    bad = np.where(np.abs(sums - 1.0) > atol)[0]
    if bad.size:
        raise NotStochasticError(
            f"{name} is not row-stochastic: row {int(bad[0])} sums to "
            f"{float(sums[bad[0]]):.12f} (and {bad.size - 1} more rows)")
    return matrix


def ensure_distribution(vector, *, atol: float = DEFAULT_ATOL,
                        name: str = "vector") -> np.ndarray:
    """Validate that *vector* is a 1-D probability distribution.

    Returns the vector as a dense float array.
    """
    arr = np.asarray(vector, dtype=float).ravel()
    if arr.size == 0:
        raise NotADistributionError(f"{name} must not be empty")
    if float(arr.min()) < -atol:
        raise NotADistributionError(f"{name} has negative entries")
    total = float(arr.sum())
    # ``not <=`` rather than ``>``: a NaN entry makes the sum NaN, and
    # every comparison with NaN is false.
    if not abs(total - 1.0) <= max(atol, atol * arr.size):
        raise NotADistributionError(
            f"{name} must sum to 1, got {total:.12f}")
    return arr


def ensure_damping(value, *, name: str = "damping") -> float:
    """Validate a damping factor: a number strictly between 0 and 1.

    Shared by the CLI (``--damping``) and the declarative config
    (``RankingConfig.damping``/``site_damping``).  Adds non-numeric-input
    coercion on top of :func:`ensure_probability`, which owns the actual
    open-interval range rule.
    """
    try:
        damping = float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{name} must be a number strictly between 0 and 1, "
            f"got {value!r}") from None
    try:
        return ensure_probability(damping, name=name, inclusive=False)
    except ValidationError:
        raise ValidationError(
            f"{name} must be strictly between 0 and 1, got {value!r}"
        ) from None


def ensure_probability(value: float, *, name: str = "value",
                       inclusive: bool = True) -> float:
    """Validate that a scalar lies in [0, 1] (or (0, 1) when not inclusive)."""
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValidationError(f"{name} must be in (0, 1), got {value}")
    return value


def ensure_solver_budget(tol, max_iter) -> None:
    """Validate an iterative solver's tolerance and iteration budget.

    ``tol`` must be a positive, finite number and ``max_iter`` an integer
    (not a bool) of at least 1, as ``RankingConfig`` requires of its
    fields (the config also caps ``tol`` below 1).  A NaN tolerance no
    residual can meet, a fractional budget or ``True`` would otherwise run
    to the budget and then report a misleading convergence failure.
    """
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not (math.isfinite(tol) and tol > 0)):
        raise ValidationError(
            f"tol must be a positive finite number, got {tol!r}")
    if (isinstance(max_iter, bool)
            or not isinstance(max_iter, numbers.Integral) or max_iter < 1):
        raise ValidationError(
            f"max_iter must be an integer of at least 1, got {max_iter!r}")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(
        value, (bool, np.bool_))


def ensure_doc_id(doc_id) -> int:
    """Validate a document id: an integer, not a bool or a float.

    A float or ``True`` would otherwise find document ``int(value)``
    through dict key equality.
    """
    if not _is_integer(doc_id):
        raise ValidationError(
            f"document id must be an integer, got {doc_id!r}")
    return int(doc_id)


def ensure_top_k(k) -> int:
    """Validate a top-k length: a non-negative integer, not a bool."""
    if not _is_integer(k) or k < 0:
        raise ValidationError(
            f"k must be a non-negative integer, got {k!r}")
    return int(k)


def normalize_distribution(vector, *, name: str = "vector") -> np.ndarray:
    """Return *vector* scaled so its entries sum to 1.

    Raises :class:`NotADistributionError` when the vector is all zeros, has
    negative entries or a non-finite total (a NaN or infinite entry), since
    such a vector cannot be normalised into a distribution.
    """
    arr = np.asarray(vector, dtype=float).ravel()
    if arr.size == 0:
        raise NotADistributionError(f"{name} must not be empty")
    if float(arr.min()) < 0.0:
        raise NotADistributionError(f"{name} has negative entries")
    total = float(arr.sum())
    if not math.isfinite(total):
        raise NotADistributionError(
            f"{name} has a non-finite total; cannot normalise")
    if total <= 0.0:
        raise NotADistributionError(f"{name} sums to zero; cannot normalise")
    return arr / total
