"""Batched power iteration over a block-diagonal matrix of small chains.

The layered method's step 3 solves one tiny PageRank problem per web site.
Each of those problems is cheap; what is expensive on a realistic web is
running *thousands* of them through a Python-level power-iteration loop —
per-site interpreter overhead dominates the linear algebra by an order of
magnitude.  This module removes that overhead by exploiting a trivial
identity: the power iteration of ``B`` mutually independent chains is the
power iteration of their block-diagonal direct sum.  Packing the per-site
``(adjacency, start, preference)`` triples into one block-diagonal CSR
turns ``B`` interpreter loops of tiny sparse products into a handful of
large fused SpMVs per sweep, with the per-block teleportation, dangling
correction, normalisation and residual computed vectorised via
:func:`numpy.add.reduceat` over the block offsets.  Packing is itself
array work: the direct sum of CSR blocks is their buffers concatenated
with shifted indices (:func:`repro.linalg.sparse_utils.block_diagonal`),
and a DocGraph's sites never exist as separate matrices to begin with —
the engine gathers them out of one site-major layout
(:class:`repro.web.docgraph.SiteBlocks`).

Convergence is still *per block*: each sweep computes every block's own L1
residual, and blocks that have met the tolerance are **frozen** — their
vector is written, at its converged value, into the one packed output
vector the solve returns, and the loop stops reading them.  This is the
adaptive-PageRank idea (Kamvar, Haveliwala & Golub 2003) applied across
sites instead of across pages.  A frozen block's rows stay in the working
set (computed, their values discarded) until the live rows are half the
working rows or fewer; only then are the operator and the per-row state
cut down to the live blocks, on both axes.  The matrix is block-diagonal,
so a live row's sums keep their terms and order whatever else shares the
set — the results are bitwise those of compacting every sweep — while the
rows a sweep touches stay within twice the live rows and a solve compacts
at most ``log2(n_rows)`` times (``block_solver_compactions_total``).

Numerics match the per-site solvers: every block runs the damped update

``x⁺_b = f·(x_b·L_b + (x_b·d_b)·u_b) + (1 − f)·v_b``

(``L_b`` the row-normalised link matrix, ``d_b`` the dangling indicator,
``u_b`` the uniform dangling redistribution — the per-site solver's
``dangling="uniform"`` policy — and ``v_b`` the teleport preference),
followed by per-block renormalisation and the per-block L1 residual test,
exactly the operations :func:`repro.linalg.power_iteration.stationary_distribution`
performs on the materialised Google matrix of each block.  The two code
paths therefore track each other to floating-point rounding; at a solver
tolerance of ``tol`` either path stops within ``tol·f/(1-f)`` of the true
stationary vector, so equality assertions between them are made at a
tolerance a couple of orders looser than ``tol`` (the batched-equivalence
tests and benchmark E15 run both paths at ``1e-13`` and assert agreement
within ``1e-12``).

Multi-vector solves (SpMM)
--------------------------

Personalisation changes only the teleport vector, never the matrix, so K
preference vectors can share every matrix traversal: ``start`` and
``preference`` may be ``(n_rows, K)`` matrices, in which case each sweep
performs one sparse-matrix × dense-matrix product (SpMM) that advances all
``K`` columns at once.  Convergence freezing generalises to per-(block,
column) granularity — a converged column is pinned at its value while its
siblings keep iterating, and a block freezes only once *all* of its
columns have converged; the working set compacts on the same halving
schedule.  Benchmark E17 measures the amortisation against K sequential
single-vector solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .. import obs
from .._validation import (
    ensure_distribution,
    ensure_probability,
    ensure_solver_budget,
)
from ..exceptions import ConvergenceError, ValidationError
from .power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from .sparse_utils import block_diagonal
from .stochastic import row_normalize


@dataclass
class PackedBlocks:
    """A batch of independent chains packed into one block-diagonal CSR.

    Attributes
    ----------
    matrix:
        Block-diagonal raw adjacency (weights, not yet normalised); block
        ``b`` occupies rows/columns ``offsets[b]:offsets[b+1]``.
    offsets:
        ``int64`` block boundaries, length ``n_blocks + 1``.
    start:
        Optional concatenated start distributions (each block's slice sums
        to 1); uniform per block when ``None``.  May be an ``(n_rows, K)``
        matrix carrying one start column per preference vector.
    preference:
        Optional concatenated teleport distributions; uniform per block
        when ``None``.  May be an ``(n_rows, K)`` matrix — one teleport
        column per personalisation segment — in which case
        :func:`solve_blocks` runs the fused multi-vector (SpMM) path.
    """

    matrix: sp.csr_matrix
    offsets: np.ndarray
    start: Optional[np.ndarray] = None
    preference: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size < 2:
            raise ValidationError("offsets must hold at least one block")
        if int(self.offsets[0]) != 0:
            raise ValidationError("offsets must start at 0")
        if np.any(np.diff(self.offsets) <= 0):
            raise ValidationError("blocks must be non-empty and offsets "
                                  "strictly increasing")
        n = int(self.offsets[-1])
        if self.matrix.shape != (n, n):
            raise ValidationError(
                f"packed matrix has shape {self.matrix.shape!r}, expected "
                f"({n}, {n}) from the offsets")
        widths = []
        for name in ("start", "preference"):
            vector = getattr(self, name)
            if vector is None:
                continue
            array = np.asarray(vector)
            if array.ndim == 1:
                if array.size != n:
                    raise ValidationError(
                        f"{name} has length {array.size}, expected {n}")
            elif array.ndim == 2:
                if array.shape[0] != n:
                    raise ValidationError(
                        f"{name} has {array.shape[0]} rows, expected {n}")
                if array.shape[1] < 1:
                    raise ValidationError(f"{name} must have at least one "
                                          f"column")
                widths.append(int(array.shape[1]))
            else:
                raise ValidationError(
                    f"{name} must be a vector or (n_rows, K) matrix, got "
                    f"{array.ndim} dimensions")
        if len(widths) == 2 and widths[0] != widths[1]:
            raise ValidationError(
                f"start and preference disagree on the number of vectors "
                f"({widths[0]} vs {widths[1]})")

    @property
    def n_blocks(self) -> int:
        """Number of packed blocks."""
        return self.offsets.size - 1

    @property
    def n_rows(self) -> int:
        """Total rows across all blocks."""
        return int(self.offsets[-1])

    @property
    def sizes(self) -> np.ndarray:
        """Per-block row counts."""
        return np.diff(self.offsets)

    @property
    def n_vectors(self) -> int:
        """Number of solve columns K (1 for the classic single-vector batch)."""
        for vector in (self.preference, self.start):
            if vector is not None:
                array = np.asarray(vector)
                if array.ndim == 2:
                    return int(array.shape[1])
        return 1

    def block_slice(self, block: int) -> slice:
        """The row range of one block."""
        return slice(int(self.offsets[block]), int(self.offsets[block + 1]))


def pack_blocks(blocks: Sequence) -> PackedBlocks:
    """Pack per-chain ``(adjacency, start, preference)`` triples.

    Each element of *blocks* is either a square adjacency matrix or a
    ``(adjacency, start, preference)`` triple whose ``start`` /
    ``preference`` entries may be ``None`` (uniform).  Start and preference
    vectors are validated per block exactly like the per-site solvers
    validate theirs, then concatenated; when no block supplies one the
    concatenated vector is omitted entirely.  The matrices are
    canonicalised and concatenated into fresh buffers
    (:func:`~repro.linalg.sparse_utils.block_diagonal`).

    A block's ``start`` / ``preference`` may also be an ``(n, K)`` matrix
    (one column per personalisation segment; every column validated as a
    distribution).  All matrix-valued blocks must agree on ``K``;
    vector-valued and ``None`` blocks are broadcast across the K columns.
    """
    if not blocks:
        raise ValidationError("blocks must not be empty")
    matrices: List[sp.csr_matrix] = []
    starts: List[Optional[np.ndarray]] = []
    preferences: List[Optional[np.ndarray]] = []
    sizes: List[int] = []
    for index, block in enumerate(blocks):
        if isinstance(block, tuple):
            if len(block) != 3:
                raise ValidationError(
                    f"block {index} must be (adjacency, start, preference), "
                    f"got a {len(block)}-tuple")
            adjacency, start, preference = block
        else:
            adjacency, start, preference = block, None, None
        if adjacency.shape[0] != adjacency.shape[1]:
            raise ValidationError(
                f"block {index} adjacency must be square, "
                f"got {adjacency.shape!r}")
        n = int(adjacency.shape[0])
        if n == 0:
            raise ValidationError(f"block {index} is empty")
        matrices.append(sp.csr_matrix(adjacency, dtype=float))
        sizes.append(n)
        starts.append(start)
        preferences.append(preference)

    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    # One block is handed through as is (no copy: the single-site solve of
    # an mmap'd block stays zero-copy); several are concatenated.
    matrix = matrices[0] if len(matrices) == 1 else block_diagonal(matrices)
    return PackedBlocks(matrix=matrix, offsets=offsets,
                        start=pack_block_vectors(starts, sizes, name="start"),
                        preference=pack_block_vectors(preferences, sizes,
                                                      name="preference"))


def pack_block_vectors(vectors: Sequence[Optional[np.ndarray]],
                       sizes: Sequence[int], *,
                       name: str) -> Optional[np.ndarray]:
    """Validate and concatenate per-block start/preference payloads.

    One optional entry per block: a length-``size`` distribution, a
    ``(size, K)`` column matrix, or ``None`` (uniform).  This is the vector
    half of :func:`pack_blocks`, exposed separately for batches whose
    matrix is gathered out of a site-major layout instead of packed from
    blocks.  Returns ``None`` when every entry is.
    """
    validated: List[Optional[np.ndarray]] = []
    for index, (vector, n) in enumerate(zip(vectors, sizes)):
        if vector is None:
            validated.append(None)
            continue
        array = np.asarray(vector, dtype=float)
        if array.ndim == 2:
            if array.shape[0] != n:
                raise ValidationError(
                    f"block {index} {name} has {array.shape[0]} rows, "
                    f"expected {n}")
            for column in range(array.shape[1]):
                ensure_distribution(
                    array[:, column],
                    name=f"block {index} {name} column {column}")
            validated.append(array)
            continue
        array = ensure_distribution(vector, name=f"block {index} {name}")
        if array.size != n:
            raise ValidationError(
                f"block {index} {name} has length {array.size}, "
                f"expected {n}")
        validated.append(array)
    return _concat_optional(validated, sizes)


def _concat_optional(vectors: Sequence[Optional[np.ndarray]],
                     sizes: Sequence[int]) -> Optional[np.ndarray]:
    """Concatenate optional per-block vectors (uniform fill; None when all absent)."""
    if all(vector is None for vector in vectors):
        return None
    widths = {int(vector.shape[1]) for vector in vectors
              if vector is not None and vector.ndim == 2}
    if len(widths) > 1:
        raise ValidationError(
            f"blocks disagree on the number of preference columns: "
            f"{sorted(widths)}")
    if not widths:
        return np.concatenate([
            np.full(size, 1.0 / size) if vector is None else vector
            for vector, size in zip(vectors, sizes)])
    n_vectors = widths.pop()
    columns = []
    for vector, size in zip(vectors, sizes):
        if vector is None:
            vector = np.full(size, 1.0 / size)
        if vector.ndim == 1:
            vector = np.broadcast_to(vector[:, None], (size, n_vectors))
        columns.append(vector)
    return np.concatenate(columns, axis=0)


@dataclass
class BlockSolveResult:
    """Outcome of one fused multi-block power-iteration run.

    Attributes
    ----------
    values:
        Every block's stationary distribution, packed in block order into
        one vector — an ``(n_rows, K)`` matrix of per-segment columns for a
        multi-vector solve.
    offsets:
        ``int64`` block boundaries into :attr:`values`.
    iterations:
        Sweep index at which each block froze (its individual iteration
        count — the fused run performs ``max(iterations)`` sweeps).  Shape
        ``(n_blocks,)``, or ``(n_blocks, K)`` for a multi-vector solve
        (per-(block, column) freeze sweeps).
    converged:
        Whether each block met the tolerance within the budget (per
        (block, column) for a multi-vector solve).
    final_residuals:
        Each block's L1 residual at its last update (per (block, column)
        for a multi-vector solve).
    sweeps:
        Fused iterations the batch executed.
    active_history:
        Number of still-active (unfrozen) blocks entering each sweep —
        the freezing diagnostic benchmark E15 plots.
    residuals:
        Per-block residual histories; only populated when the solver ran
        with ``record_residuals=True`` (off by default: the engine's hot
        paths need no per-iteration appends).
    tolerance:
        The tolerance the run targeted.
    """

    values: np.ndarray
    offsets: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    final_residuals: np.ndarray
    sweeps: int
    active_history: List[int] = field(default_factory=list)
    residuals: Optional[List[List[float]]] = None
    tolerance: float = DEFAULT_TOL

    @cached_property
    def vectors(self) -> List[np.ndarray]:
        """Per-block distributions in block order: views into :attr:`values`.

        For a multi-vector solve each entry is an ``(size_b, K)`` matrix.
        """
        bounds = self.offsets.tolist()
        return [self.values[begin:end]
                for begin, end in zip(bounds[:-1], bounds[1:])]

    @property
    def n_blocks(self) -> int:
        """Number of solved blocks."""
        return self.offsets.size - 1

    @property
    def n_vectors(self) -> int:
        """Solve columns per block (1 for the classic single-vector run)."""
        return 1 if self.iterations.ndim == 1 else int(
            self.iterations.shape[1])

    @property
    def total_iterations(self) -> int:
        """Per-block iteration counts summed (comparable to per-site runs).

        For a multi-vector run each block contributes the sweeps its
        slowest column took (the block's actual residence in the batch).
        """
        if self.iterations.ndim == 1:
            return int(self.iterations.sum())
        return int(self.iterations.max(axis=1).sum())


def _block_rows(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The rows of the blocks at *starts* with *sizes*, concatenated."""
    ends = np.cumsum(sizes)
    return np.arange(int(ends[-1])) + np.repeat(starts - (ends - sizes),
                                                sizes)


class _WorkingSet:
    """The blocks a fused loop still sweeps: every live block, plus frozen
    blocks not yet compacted out (the module docstring says why that
    leaves every float as it was).  Block positions index the set;
    ``block_ids`` maps them back to the packed batch's blocks.
    """

    def __init__(self, operator, offsets: np.ndarray) -> None:
        self.operator = operator  # CSR, square over the set's rows
        self.offsets = offsets
        self.sizes = np.diff(offsets)
        self.block_ids = np.arange(self.sizes.size, dtype=np.int64)
        self.out_starts = offsets[:-1]  # each block's first output row
        self.live = np.ones(self.sizes.size, dtype=bool)
        self.n_live = self.sizes.size
        self.live_rows = int(offsets[-1])
        self.compactions = 0

    def write(self, positions: np.ndarray, values: np.ndarray,
              out: np.ndarray, columns: Optional[np.ndarray] = None) -> None:
        """Copy the blocks at *positions* (in the set) of *values* into
        *out*; only the ``True`` entries of *columns* (one row per written
        block) when given."""
        sizes = self.sizes[positions]
        rows = _block_rows(self.out_starts[positions], sizes)
        block_values = values[_block_rows(self.offsets[positions], sizes)]
        if columns is not None:
            written = out[rows]
            np.copyto(written, block_values,
                      where=np.repeat(columns, sizes, axis=0))
            block_values = written
        out[rows] = block_values

    def retire(self, positions: np.ndarray) -> None:
        """Take the blocks at *positions* (in the set) out of the live set."""
        self.live[positions] = False
        self.n_live -= positions.size
        self.live_rows -= int(self.sizes[positions].sum())

    def compact(self) -> Optional[np.ndarray]:
        """Cut the set to its live blocks once they hold half its rows or
        fewer; returns the kept rows (to cut per-row state with), or None."""
        if not self.live_rows or 2 * self.live_rows > int(self.offsets[-1]):
            return None
        keep = np.flatnonzero(self.live)
        starts, sizes = self.offsets[keep], self.sizes[keep]
        rows = _block_rows(starts, sizes)
        offsets = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        # A kept block's rows and their entries are contiguous runs of the
        # CSR buffers, and its columns all move by one shift: cutting both
        # axes is a gather of those runs.  Each row keeps its entries in
        # order, so every SpMV sum keeps its terms in order.
        operator = self.operator
        first = operator.indptr[starts]
        counts = operator.indptr[starts + sizes] - first
        entries = _block_rows(first, counts)
        indices = (operator.indices[entries]
                   - np.repeat(starts - offsets[:-1], counts))
        indptr = np.zeros(rows.size + 1, dtype=operator.indptr.dtype)
        np.cumsum(np.diff(operator.indptr)[rows], out=indptr[1:])
        self.operator = sp.csr_matrix(
            (operator.data[entries], indices.astype(operator.indices.dtype),
             indptr), shape=(rows.size, rows.size))
        self.offsets, self.sizes = offsets, sizes
        self.block_ids = self.block_ids[keep]
        self.out_starts = self.out_starts[keep]
        self.live = np.ones(keep.size, dtype=bool)
        self.compactions += 1
        return rows


def _record_run(packed: PackedBlocks, work: _WorkingSet, iterations,
                converged, final_residuals, sweeps: int,
                active_history: List[int], unconverged: int,
                **solver_labels) -> None:
    """Telemetry of one solve, recorded once after the sweep loop."""
    worst_residual = (float(final_residuals.max())
                      if final_residuals.size else 0.0)
    per_block = iterations if iterations.ndim == 1 else iterations.max(axis=1)
    obs.record_solver("block", int(per_block.sum()), worst_residual,
                      bool(converged.all()), n=packed.n_rows,
                      nnz=packed.matrix.nnz, **solver_labels)
    obs.inc("block_solver_runs_total")
    obs.inc("block_solver_blocks_total", float(packed.n_blocks))
    obs.inc("block_solver_sweeps_total", float(sweeps))
    obs.inc("block_solver_compactions_total", float(work.compactions))
    obs.observe("block_solver_sweeps", float(sweeps))
    # Sites frozen during each sweep: the drop in active-block count
    # between consecutive sweep entries (the last sweep freezes down to
    # whatever remained unconverged).
    remaining = [*active_history[1:], unconverged]
    for entering, left in zip(active_history, remaining):
        obs.observe("block_solver_frozen_per_sweep", float(entering - left))


def _raise_unconverged(work: _WorkingSet, worst_by_block: np.ndarray,
                       n_blocks: int, tol: float, max_iter: int) -> None:
    """The ConvergenceError naming the live block with the worst residual."""
    ids = work.block_ids[work.live]
    worst = int(ids[int(np.argmax(worst_by_block[ids]))])
    residual = float(worst_by_block[worst])
    raise ConvergenceError(
        f"{ids.size} of {n_blocks} blocks did not converge within "
        f"{max_iter} iterations (worst: block {worst} at residual "
        f"{residual:.3e}, tol {tol:.3e})",
        iterations=max_iter, residual=residual)


def solve_blocks(packed: PackedBlocks, damping: float, *,
                 tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 record_residuals: bool = False,
                 raise_on_failure: bool = True,
                 freeze_columns: bool = True) -> BlockSolveResult:
    """Run one fused damped power iteration over every packed block.

    Parameters
    ----------
    packed:
        The block-diagonal batch (see :func:`pack_blocks`).
    damping:
        Damping factor ``f`` shared by every block.
    tol:
        Per-block L1 convergence tolerance; a block freezes (its value is
        final and written to the output) the sweep its own residual first
        drops below this.
    max_iter:
        Sweep budget; blocks still active when it is exhausted are
        reported unconverged (or raise, per *raise_on_failure*).
    record_residuals:
        Keep each block's full residual history.  Off by default — the
        history is a per-sweep list append the engine's hot paths do not
        want to pay; benchmarks switch it on.
    raise_on_failure:
        Raise :class:`~repro.exceptions.ConvergenceError` when any block
        exhausts the budget (mirrors the per-site solvers); when false the
        best iterate is returned with ``converged=False`` for that block.
    freeze_columns:
        Multi-vector batches only: pin each (block, column) at its value
        the sweep it converges.  When false every column of a block keeps
        updating until the whole block converges — numerically equivalent
        (power iteration is a contraction; the property tests assert it),
        but without the per-column early-out.  Ignored for single-vector
        batches, whose per-block freezing is always on.
    """
    damping = ensure_probability(damping, name="damping")
    ensure_solver_budget(tol, max_iter)

    if packed.n_vectors > 1:
        return _solve_blocks_multi(
            packed, damping, tol=tol, max_iter=max_iter,
            record_residuals=record_residuals,
            raise_on_failure=raise_on_failure,
            freeze_columns=freeze_columns)

    n_blocks = packed.n_blocks
    link = row_normalize(packed.matrix).tocsr()
    row_sums = np.asarray(link.sum(axis=1)).ravel()
    dangling = (row_sums == 0.0).astype(float)
    has_dangling = bool(dangling.any())
    # The sweep ``x @ link`` runs as ``operator @ x`` on the transpose,
    # converted once to CSR: each row's sum runs over its columns in
    # ascending order, the order the CSC view of the transpose adds them
    # in, and the row-wise kernel is the faster one.
    work = _WorkingSet(link.T.tocsr(), packed.offsets)
    # Uniform-within-block dangling redistribution and (default) teleport —
    # the same policies the per-site dense path applies.
    uniform = np.repeat(1.0 / work.sizes, work.sizes)
    teleport = (uniform if packed.preference is None
                else np.asarray(packed.preference, dtype=float).ravel())
    teleport_term = (1.0 - damping) * teleport
    if packed.start is None:
        x = uniform.copy()
    else:
        x = np.asarray(packed.start, dtype=float).ravel().copy()

    out = np.empty(packed.n_rows)
    iterations = np.zeros(n_blocks, dtype=np.int64)
    converged = np.zeros(n_blocks, dtype=bool)
    final_residuals = np.full(n_blocks, np.inf)
    history: Optional[List[List[float]]] = (
        [[] for _ in range(n_blocks)] if record_residuals else None)
    active_history: List[int] = []

    sweeps = 0
    while work.n_live and sweeps < max_iter:
        rows = work.compact()
        if rows is not None:
            x, dangling, uniform, teleport_term = (
                x[rows], dangling[rows], uniform[rows], teleport_term[rows])
            has_dangling = bool(dangling.any())
        sweeps += 1
        active_history.append(work.n_live)
        starts, sizes = work.offsets[:-1], work.sizes

        # ``f·(x·L + (x·d)·u) + (1 − f)·v``, in place, in that order.
        new_x = work.operator @ x
        if has_dangling:
            # Exact zeros when no row of the set dangles: skipped there.
            dangling_mass = np.add.reduceat(x * dangling, starts)
            new_x += np.repeat(dangling_mass, sizes) * uniform
        new_x *= damping
        new_x += teleport_term
        totals = np.add.reduceat(new_x, starts)
        # Guard against floating point drift away from the simplex (a
        # per-block echo of the per-site solver's ``total > 0`` guard).
        new_x /= np.repeat(np.where(totals > 0.0, totals, 1.0), sizes)
        # Residuals through x's buffer: x's next value is new_x.
        np.subtract(new_x, x, out=x)
        np.abs(x, out=x)
        residuals = np.add.reduceat(x, starts)
        x = new_x

        live = work.live
        if history is not None:
            for block, residual in zip(work.block_ids[live],
                                       residuals[live]):
                history[block].append(float(residual))
        frozen = np.flatnonzero(live & (residuals < tol))
        if not frozen.size:
            continue
        ids = work.block_ids[frozen]
        converged[ids] = True
        iterations[ids] = sweeps
        final_residuals[ids] = residuals[frozen]
        work.write(frozen, x, out)
        work.retire(frozen)

    unconverged = work.n_live
    if unconverged:
        # Blocks that never froze keep their best iterate.
        ids = work.block_ids[work.live]
        iterations[ids] = sweeps
        final_residuals[ids] = residuals[work.live]
        if raise_on_failure:
            _raise_unconverged(work, final_residuals, n_blocks, tol,
                               max_iter)
        work.write(np.flatnonzero(work.live), x, out)

    if obs.enabled():
        _record_run(packed, work, iterations, converged, final_residuals,
                    sweeps, active_history, unconverged)
    return BlockSolveResult(
        values=out, offsets=packed.offsets, iterations=iterations,
        converged=converged, final_residuals=final_residuals, sweeps=sweeps,
        active_history=active_history, residuals=history, tolerance=tol)


def _as_columns(vector: Optional[np.ndarray], uniform: np.ndarray,
                n_vectors: int) -> np.ndarray:
    """A (n, K) column matrix (a read-only view where it can be) from a
    vector/matrix/None input."""
    base = uniform if vector is None else np.asarray(vector, dtype=float)
    if base.ndim == 1:
        return np.broadcast_to(base[:, None], (base.size, n_vectors))
    return base


def _block_aggregators(sizes: np.ndarray, offsets: np.ndarray,
                       dangling: np.ndarray):
    """Segment-sum operators for one working set, as CSR matrices.

    ``agg @ M`` sums the rows of each block one after another, in row
    order, through the ``csr_matvecs`` C kernel.  That is *not* bitwise
    ``np.add.reduceat(M, offsets[:-1], axis=0)`` (the two differ in the
    last bits on most many-block inputs), and the loops do not need it to
    be: the frozen reference loops in
    ``tests/linalg/block_solver_oracle.py`` use this same sequential
    per-block sum, and the oracle test pins the two bitwise.  The 2-D
    ``reduceat`` has no fast path in numpy and dominated the sweep cost
    on many-block batches.  ``agg_dangling`` folds the dangling indicator
    into the operator so the dangling-mass reduction needs no
    ``X * dangling`` temporary.
    """
    cols = np.arange(int(offsets[-1]), dtype=np.int64)
    shape = (sizes.size, cols.size)
    agg = sp.csr_matrix((np.ones(cols.size), cols, offsets), shape=shape)
    agg_dangling = sp.csr_matrix((dangling, cols, offsets), shape=shape)
    return agg, agg_dangling


def _solve_blocks_multi(packed: PackedBlocks, damping: float, *,
                        tol: float, max_iter: int,
                        record_residuals: bool, raise_on_failure: bool,
                        freeze_columns: bool) -> BlockSolveResult:
    """The fused K-column (SpMM) variant of :func:`solve_blocks`.

    Identical numerics per column — each column runs exactly the damped
    update the single-vector loop runs — but one ``operator @ X`` product
    (``operator`` the transposed link matrix) per sweep advances all K
    columns, and the per-block bookkeeping
    (dangling mass, normalisation, residuals) runs as sparse
    aggregation products (:func:`_block_aggregators`) so every reduction
    shares the SpMM's C kernels.  A block leaves the live set once all
    of its columns have converged, and the working set compacts on the
    same halving schedule as the single-vector loop.
    """
    n_blocks = packed.n_blocks
    n_vectors = packed.n_vectors

    link = row_normalize(packed.matrix).tocsr()
    row_sums = np.asarray(link.sum(axis=1)).ravel()
    dangling = (row_sums == 0.0).astype(float)
    work = _WorkingSet(link.T.tocsr(), packed.offsets)
    uniform = np.repeat(1.0 / work.sizes, work.sizes)
    teleport_term = (1.0 - damping) * _as_columns(packed.preference,
                                                  uniform, n_vectors)
    X = _as_columns(packed.start, uniform, n_vectors).copy()

    agg, agg_dangling = _block_aggregators(work.sizes, work.offsets,
                                           dangling)
    has_dangling = bool(dangling.any())
    block_index = np.repeat(work.block_ids, work.sizes)
    # Per-block values spread over the rows land in this one buffer: a
    # fresh (n_rows, K) temporary each sweep makes the allocator hand
    # pages back to the system and fault them in again.
    spread = np.empty(X.shape)

    out = np.empty((packed.n_rows, n_vectors))
    iterations = np.zeros((n_blocks, n_vectors), dtype=np.int64)
    converged = np.zeros((n_blocks, n_vectors), dtype=bool)
    final_residuals = np.full((n_blocks, n_vectors), np.inf)
    # Per-(block, column) freeze registry, indexed by *global* block id so
    # it survives compaction; a frozen block is done in every column.
    column_done = np.zeros((n_blocks, n_vectors), dtype=bool)
    history: Optional[List[List[float]]] = (
        [[] for _ in range(n_blocks)] if record_residuals else None)
    active_history: List[int] = []

    sweeps = 0
    while work.n_live and sweeps < max_iter:
        rows = work.compact()
        if rows is not None:
            X, dangling, uniform, teleport_term = (
                X[rows], dangling[rows], uniform[rows], teleport_term[rows])
            agg, agg_dangling = _block_aggregators(work.sizes, work.offsets,
                                                   dangling)
            has_dangling = bool(dangling.any())
            block_index = np.repeat(
                np.arange(work.sizes.size, dtype=np.int64), work.sizes)
            spread = spread[:rows.size]
        sweeps += 1
        active_history.append(work.n_live)

        # One SpMM advances every column; the damped update runs in place
        # on its output (same per-element expression the single-vector
        # loop evaluates).
        new_X = work.operator @ X
        if has_dangling:
            # Entry-wise exact zeros when nothing dangles, so the whole
            # term can be skipped without changing a single bit.
            np.take(agg_dangling @ X, block_index, axis=0, out=spread,
                    mode="clip")
            spread *= uniform[:, None]
            new_X += spread
        new_X *= damping
        new_X += teleport_term
        totals = agg @ new_X
        np.take(np.where(totals > 0.0, totals, 1.0), block_index, axis=0,
                out=spread, mode="clip")
        new_X /= spread
        # Residuals in place through X's buffer — X's next value is new_X.
        np.subtract(new_X, X, out=X)
        np.abs(X, out=X)
        residuals = agg @ X
        X = new_X

        # A converged column keeps iterating here, unread: its value went
        # to the output the sweep it froze, and the columns of a block
        # never mix.  Its residual reads as zero, as if it were pinned.
        live = work.live
        ids = work.block_ids[live]
        live_residuals = (residuals if work.n_live == live.size
                          else residuals[live])
        moving = ~column_done[ids]
        if history is not None:
            for block, residual in zip(ids, np.where(
                    moving, live_residuals, 0.0).max(axis=1)):
                history[block].append(float(residual))
        below = live_residuals < tol
        if freeze_columns:
            newly = below & moving
            if not newly.any():
                continue
            blocks, columns = np.nonzero(newly)
            iterations[ids[blocks], columns] = sweeps
            final_residuals[ids[blocks], columns] = \
                live_residuals[blocks, columns]
            converged[ids[blocks], columns] = True
            column_done[ids[blocks], columns] = True
            with_new = newly.any(axis=1)
            work.write(np.flatnonzero(live)[with_new], X, out,
                       columns=newly[with_new])
            block_done = column_done[ids].all(axis=1)
        else:
            # No per-column freezing: a block exits only the sweep every
            # column is simultaneously below tolerance.
            block_done = below.all(axis=1)
            done_ids = ids[block_done]
            iterations[done_ids] = sweeps
            final_residuals[done_ids] = live_residuals[block_done]
            converged[done_ids] = True
            column_done[done_ids] = True
        if not block_done.any():
            continue
        done = np.flatnonzero(live)[block_done]
        if not freeze_columns:
            work.write(done, X, out)
        work.retire(done)

    unconverged = work.n_live
    if unconverged:
        # Columns that never froze keep their best iterate.
        ids = work.block_ids[work.live]
        moving = ~column_done[ids]
        iterations[ids] = np.where(moving, sweeps, iterations[ids])
        final_residuals[ids] = np.where(moving, residuals[work.live],
                                        final_residuals[ids])
        if raise_on_failure:
            _raise_unconverged(work, final_residuals.max(axis=1), n_blocks,
                               tol, max_iter)
        work.write(np.flatnonzero(work.live), X, out, columns=moving)

    if obs.enabled():
        _record_run(packed, work, iterations, converged, final_residuals,
                    sweeps, active_history, unconverged, vectors=n_vectors)
    return BlockSolveResult(
        values=out, offsets=packed.offsets, iterations=iterations,
        converged=converged, final_residuals=final_residuals, sweeps=sweeps,
        active_history=active_history, residuals=history, tolerance=tol)


__all__ = [
    "BlockSolveResult",
    "PackedBlocks",
    "pack_block_vectors",
    "pack_blocks",
    "solve_blocks",
]
