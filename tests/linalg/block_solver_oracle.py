"""The fused block solver's sweep loops from before halving compaction.

A frozen, test-only copy of :func:`repro.linalg.block_solver.solve_blocks`
(single-vector loop) and its K-column SpMM loop, from before the loops
learnt to keep frozen blocks in a working set, compact it on a halving
schedule and write one packed output vector.  That rewrite promises the
same floats: ``test_block_solver_oracle.py`` asserts every field of the
production result bitwise equal to what these loops return.  Keep this
file as it is; it is the reference, not a second implementation to
maintain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConvergenceError
from repro.linalg.block_solver import PackedBlocks
from repro.linalg.stochastic import row_normalize


@dataclass
class OracleResult:
    """The fields of a :class:`~repro.linalg.block_solver.BlockSolveResult`."""

    vectors: List[np.ndarray]
    iterations: np.ndarray
    converged: np.ndarray
    final_residuals: np.ndarray
    sweeps: int
    active_history: List[int]
    residuals: Optional[List[List[float]]]
    tolerance: float


def oracle_solve_blocks(packed: PackedBlocks, damping: float, *,
                        tol: float, max_iter: int,
                        record_residuals: bool = False,
                        raise_on_failure: bool = True,
                        freeze_columns: bool = True) -> OracleResult:
    """The single-vector loop (and dispatch to the K-column one), frozen."""
    if packed.n_vectors > 1:
        return _oracle_multi(
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

    return OracleResult(
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


def _oracle_multi(packed: PackedBlocks, damping: float, *,
                        tol: float, max_iter: int,
                        record_residuals: bool, raise_on_failure: bool,
                        freeze_columns: bool) -> OracleResult:
    """The K-column (SpMM) loop, frozen."""
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

    return OracleResult(
        vectors=[vector for vector in vectors],  # type: ignore[misc]
        iterations=iterations, converged=converged,
        final_residuals=final_residuals, sweeps=sweeps,
        active_history=active_history, residuals=history, tolerance=tol)
