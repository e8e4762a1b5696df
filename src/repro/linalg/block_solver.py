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
vector is fixed at its converged value and their rows are compacted out of
the active matrix, so late-converging sites never drag the whole batch.
This is the adaptive-PageRank idea (:mod:`repro.pagerank.adaptive`) applied
across sites instead of across pages.

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
siblings keep iterating, and a block's rows compact out of the active
matrix only once *all* of its columns have converged.  Benchmark E17
measures the amortisation against K sequential single-vector solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .. import obs
from .._validation import ensure_distribution, ensure_probability
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
    vectors:
        Per-block stationary distributions, in block order.  For a
        multi-vector solve each entry is an ``(size_b, K)`` matrix of
        per-segment columns.
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

    vectors: List[np.ndarray]
    iterations: np.ndarray
    converged: np.ndarray
    final_residuals: np.ndarray
    sweeps: int
    active_history: List[int] = field(default_factory=list)
    residuals: Optional[List[List[float]]] = None
    tolerance: float = DEFAULT_TOL

    @property
    def n_blocks(self) -> int:
        """Number of solved blocks."""
        return len(self.vectors)

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
        Per-block L1 convergence tolerance; a block freezes (stops being
        updated, and is compacted out of the active matrix) the sweep its
        own residual first drops below this.
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
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")

    if packed.n_vectors > 1:
        return _solve_blocks_multi(
            packed, damping, tol=tol, max_iter=max_iter,
            record_residuals=record_residuals,
            raise_on_failure=raise_on_failure,
            freeze_columns=freeze_columns)

    n_blocks = packed.n_blocks
    n_total = packed.n_rows
    sizes = packed.sizes.copy()
    offsets = packed.offsets.copy()

    link = row_normalize(packed.matrix).tocsr()
    row_sums = np.asarray(link.sum(axis=1)).ravel()
    dangling = (row_sums == 0.0).astype(float)
    # The sweep ``x @ link`` runs as ``operator @ x`` on the transpose (a
    # CSC view of the same buffers), taken once here and not once per
    # sweep; same additions in the same order.
    operator = link.T
    # Uniform-within-block dangling redistribution and (default) teleport —
    # the same policies the per-site dense path applies.
    uniform = np.repeat(1.0 / sizes, sizes)
    teleport = (uniform if packed.preference is None
                else np.asarray(packed.preference,
                                dtype=float).ravel().copy())
    if packed.start is None:
        x = uniform.copy()
    else:
        x = np.asarray(packed.start, dtype=float).ravel().copy()

    # Frozen blocks are compacted out of the operator's columns (the link
    # matrix's rows), but its rows keep their original positions (gathering
    # along the compressed axis is cheap; across it is not): each sweep's
    # SpMV produces a full-width vector and ``entry_ids`` gathers the
    # active entries back out of it.
    entry_ids = np.arange(n_total, dtype=np.int64)
    block_ids = np.arange(n_blocks, dtype=np.int64)

    vectors: List[Optional[np.ndarray]] = [None] * n_blocks
    iterations = np.zeros(n_blocks, dtype=np.int64)
    converged = np.zeros(n_blocks, dtype=bool)
    final_residuals = np.full(n_blocks, np.inf)
    history: Optional[List[List[float]]] = (
        [[] for _ in range(n_blocks)] if record_residuals else None)
    active_history: List[int] = []

    sweeps = 0
    while block_ids.size and sweeps < max_iter:
        sweeps += 1
        active_history.append(int(block_ids.size))
        starts = offsets[:-1]

        linked = (operator @ x)[entry_ids]
        dangling_mass = np.add.reduceat(x * dangling, starts)
        new_x = (damping * (linked + np.repeat(dangling_mass, sizes) * uniform)
                 + (1.0 - damping) * teleport)
        totals = np.add.reduceat(new_x, starts)
        # Guard against floating point drift away from the simplex (a
        # per-block echo of the per-site solver's ``total > 0`` guard).
        new_x = new_x / np.repeat(np.where(totals > 0.0, totals, 1.0), sizes)
        residuals = np.add.reduceat(np.abs(new_x - x), starts)
        x = new_x

        if history is not None:
            for block, residual in zip(block_ids, residuals):
                history[block].append(float(residual))
        final_residuals[block_ids] = residuals
        iterations[block_ids] = sweeps

        frozen = residuals < tol
        if not frozen.any():
            continue
        for position in np.flatnonzero(frozen):
            block = int(block_ids[position])
            converged[block] = True
            vectors[block] = x[offsets[position]:offsets[position + 1]].copy()
        # Compact every still-active block's rows (and per-entry state) so
        # the next sweep's SpMV only touches unconverged sites.
        keep_blocks = ~frozen
        keep_entries = np.repeat(keep_blocks, sizes)
        block_ids = block_ids[keep_blocks]
        sizes = sizes[keep_blocks]
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        x = x[keep_entries]
        dangling = dangling[keep_entries]
        uniform = uniform[keep_entries]
        teleport = teleport[keep_entries]
        entry_ids = entry_ids[keep_entries]
        operator = operator[:, keep_entries]

    # Blocks that never froze keep their best iterate.
    for position, block in enumerate(block_ids):
        vectors[int(block)] = x[offsets[position]:offsets[position + 1]].copy()

    if block_ids.size and raise_on_failure:
        worst = int(block_ids[int(np.argmax(
            final_residuals[block_ids]))])
        raise ConvergenceError(
            f"{block_ids.size} of {n_blocks} blocks did not converge within "
            f"{max_iter} iterations (worst: block {worst} at residual "
            f"{final_residuals[worst]:.3e}, tol {tol:.3e})",
            iterations=max_iter, residual=float(final_residuals[worst]))

    # Telemetry is recorded once per run, after the sweep loop — the fused
    # kernel itself carries no instrumentation.
    if obs.enabled():
        worst_residual = (float(final_residuals.max())
                          if final_residuals.size else 0.0)
        obs.record_solver("block", int(iterations.sum()), worst_residual,
                          bool(converged.all()), n=n_total,
                          nnz=packed.matrix.nnz)
        obs.inc("block_solver_runs_total")
        obs.inc("block_solver_blocks_total", float(n_blocks))
        obs.inc("block_solver_sweeps_total", float(sweeps))
        obs.observe("block_solver_sweeps", float(sweeps))
        # Sites frozen during each sweep: the drop in active-block count
        # between consecutive sweep entries (the last sweep freezes down
        # to whatever remained unconverged).
        remaining = [*active_history[1:], int(block_ids.size)]
        for entering, left in zip(active_history, remaining):
            obs.observe("block_solver_frozen_per_sweep",
                        float(entering - left))

    return BlockSolveResult(
        vectors=[vector for vector in vectors],  # type: ignore[misc]
        iterations=iterations, converged=converged,
        final_residuals=final_residuals, sweeps=sweeps,
        active_history=active_history, residuals=history, tolerance=tol)


def _as_columns(vector: Optional[np.ndarray], uniform: np.ndarray,
                n_vectors: int) -> np.ndarray:
    """Materialise a (n, K) column matrix from a vector/matrix/None input."""
    base = uniform if vector is None else np.asarray(vector, dtype=float)
    if base.ndim == 1:
        return np.broadcast_to(
            base[:, None], (base.size, n_vectors)).copy()
    return base.copy()


def _block_aggregators(sizes: np.ndarray, offsets: np.ndarray,
                       dangling: np.ndarray):
    """Segment-sum operators for one active set, as CSR matrices.

    ``agg @ M`` sums the rows of each block (exactly what
    ``np.add.reduceat(M, offsets[:-1], axis=0)`` computes, in the same
    sequential element order, so results are bitwise identical) but runs
    through the ``csr_matvecs`` C kernel — the 2-D ``reduceat`` has no
    fast path in numpy and dominated the sweep cost on many-block
    batches.  ``agg_dangling`` folds the dangling indicator into the
    operator so the dangling-mass reduction needs no ``X * dangling``
    temporary.
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
    shares the SpMM's C kernels.  Unlike the single-vector loop this
    path compacts *columns* of the link matrix too: blocks leave the
    batch whole, so the active matrix stays square and the SpMM output
    needs no gather.
    """
    n_blocks = packed.n_blocks
    n_vectors = packed.n_vectors
    sizes = packed.sizes.copy()
    offsets = packed.offsets.copy()

    link = row_normalize(packed.matrix).tocsr()
    row_sums = np.asarray(link.sum(axis=1)).ravel()
    dangling = (row_sums == 0.0).astype(float)
    uniform = np.repeat(1.0 / sizes, sizes)
    teleport = _as_columns(packed.preference, uniform, n_vectors)
    teleport_term = (1.0 - damping) * teleport
    X = _as_columns(packed.start, uniform, n_vectors)

    block_ids = np.arange(n_blocks, dtype=np.int64)
    block_index = np.repeat(block_ids, sizes)
    agg, agg_dangling = _block_aggregators(sizes, offsets, dangling)
    has_dangling = bool(dangling.any())
    operator = link.T  # taken once per active set, never per sweep

    vectors: List[Optional[np.ndarray]] = [None] * n_blocks
    iterations = np.zeros((n_blocks, n_vectors), dtype=np.int64)
    converged = np.zeros((n_blocks, n_vectors), dtype=bool)
    final_residuals = np.full((n_blocks, n_vectors), np.inf)
    # Per-(block, column) freeze registry, indexed by *global* block id so
    # it survives compaction of the active set.
    column_done = np.zeros((n_blocks, n_vectors), dtype=bool)
    history: Optional[List[List[float]]] = (
        [[] for _ in range(n_blocks)] if record_residuals else None)
    active_history: List[int] = []

    sweeps = 0
    while block_ids.size and sweeps < max_iter:
        sweeps += 1
        active_history.append(int(block_ids.size))

        # One SpMM advances every column: (n_active, n_active)·(n_active, K);
        # the damped update runs in place on its output (same per-element
        # expression the single-vector loop evaluates).
        new_X = operator @ X
        if has_dangling:
            # Entry-wise exact zeros when nothing dangles, so the whole
            # term can be skipped without changing a single bit.
            mass = (agg_dangling @ X)[block_index]
            mass *= uniform[:, None]
            new_X += mass
        new_X *= damping
        new_X += teleport_term
        totals = agg @ new_X
        new_X /= np.where(totals > 0.0, totals, 1.0)[block_index]

        frozen = column_done[block_ids]
        pinning = freeze_columns and bool(frozen.any())
        if pinning:
            # Pin converged columns at their frozen value *before* the
            # residual read: a pinned entry's |new - old| is then exactly
            # zero, so the block residuals come out identical to zeroing
            # the frozen columns afterwards.
            pinned = frozen[block_index]
            new_X[pinned] = X[pinned]
        # Residuals in place through X's buffer — X's next value is new_X.
        np.subtract(new_X, X, out=X)
        np.abs(X, out=X)
        residuals = agg @ X
        if pinning:
            residuals[frozen] = 0.0
        X = new_X

        if history is not None:
            worst_by_block = residuals.max(axis=1)
            for block, residual in zip(block_ids, worst_by_block):
                history[block].append(float(residual))
        live = ~frozen
        final_residuals[block_ids] = np.where(
            live, residuals, final_residuals[block_ids])
        iterations[block_ids] = np.where(
            live, sweeps, iterations[block_ids])

        below = residuals < tol
        if freeze_columns:
            column_done[block_ids] |= below
            converged[block_ids] |= below
            block_done = column_done[block_ids].all(axis=1)
        else:
            # No per-column pinning: a block exits only the sweep every
            # column is simultaneously below tolerance.
            block_done = below.all(axis=1)
            done_ids = block_ids[block_done]
            converged[done_ids] = True
            column_done[done_ids] = True
        if not block_done.any():
            continue
        for position in np.flatnonzero(block_done):
            block = int(block_ids[position])
            vectors[block] = X[offsets[position]:offsets[position + 1]].copy()
        keep_blocks = ~block_done
        keep_entries = np.repeat(keep_blocks, sizes)
        block_ids = block_ids[keep_blocks]
        sizes = sizes[keep_blocks]
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        X = X[keep_entries]
        dangling = dangling[keep_entries]
        uniform = uniform[keep_entries]
        teleport_term = teleport_term[keep_entries]
        # Blocks leave whole, so dropping their columns keeps the matrix
        # square (cross-block entries never existed in a block-diagonal
        # batch) and the next sweep's SpMM emits only active rows.
        operator = operator[:, keep_entries][keep_entries]
        block_index = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        agg, agg_dangling = _block_aggregators(sizes, offsets, dangling)
        has_dangling = bool(dangling.any())

    for position, block in enumerate(block_ids):
        vectors[int(block)] = X[offsets[position]:offsets[position + 1]].copy()

    if block_ids.size and raise_on_failure:
        worst_by_block = final_residuals[block_ids].max(axis=1)
        worst = int(block_ids[int(np.argmax(worst_by_block))])
        raise ConvergenceError(
            f"{block_ids.size} of {n_blocks} blocks did not converge within "
            f"{max_iter} iterations (worst: block {worst} at residual "
            f"{float(final_residuals[worst].max()):.3e}, tol {tol:.3e})",
            iterations=max_iter,
            residual=float(final_residuals[worst].max()))

    if obs.enabled():
        worst_residual = (float(final_residuals.max())
                          if final_residuals.size else 0.0)
        obs.record_solver("block", int(iterations.max(axis=1).sum()),
                          worst_residual, bool(converged.all()),
                          n=packed.n_rows, nnz=packed.matrix.nnz,
                          vectors=n_vectors)
        obs.inc("block_solver_runs_total")
        obs.inc("block_solver_blocks_total", float(n_blocks))
        obs.inc("block_solver_sweeps_total", float(sweeps))
        obs.observe("block_solver_sweeps", float(sweeps))
        remaining = [*active_history[1:], int(block_ids.size)]
        for entering, left in zip(active_history, remaining):
            obs.observe("block_solver_frozen_per_sweep",
                        float(entering - left))

    return BlockSolveResult(
        vectors=[vector for vector in vectors],  # type: ignore[misc]
        iterations=iterations, converged=converged,
        final_residuals=final_residuals, sweeps=sweeps,
        active_history=active_history, residuals=history, tolerance=tol)


__all__ = [
    "BlockSolveResult",
    "PackedBlocks",
    "pack_block_vectors",
    "pack_blocks",
    "solve_blocks",
]
