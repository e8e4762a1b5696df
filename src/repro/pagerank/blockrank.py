"""BlockRank (Kamvar, Haveliwala, Manning & Golub 2003).

BlockRank is the closest prior work to the paper's layered method and the
paper explicitly contrasts the two (end of Section 3.2): in BlockRank the
weight of the edge between two blocks is the *sum of local PageRank values of
the source pages*, so the block-level computation depends on the local
computations and must be serialised; in the LMM only SiteLink counts are
used, so SiteRank and the local DocRanks can be computed in parallel.

We implement BlockRank faithfully so that the ablation benchmark (E12) can
compare both the ranking quality and the dependency structure (serial vs
parallel) of the two methods:

1. compute the local PageRank vector of every block;
2. build the block-level transition matrix with edge weights
   ``B[I, J] = Σ_{i in I} localPR_I(i) · Σ_{j in J} M[i, j]``;
3. compute the BlockRank vector over blocks;
4. form the approximate global vector ``x0(i) = localPR(i) · BlockRank(block(i))``;
5. (optionally) use ``x0`` as the starting vector of a standard global
   PageRank iteration until convergence.

Step 4's vector is exactly the same *functional form* as the LMM's layered
ranking — the difference lies in how the block-level matrix is weighted,
which is what the ablation isolates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .._validation import is_sparse, normalize_distribution
from ..exceptions import ValidationError
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..linalg.sparse_utils import submatrix
from ..linalg.stochastic import row_normalize
from ..markov.irreducibility import DEFAULT_DAMPING
from .pagerank import PageRankResult, pagerank


@dataclass
class BlockRankResult:
    """All intermediate and final artefacts of a BlockRank run."""

    #: Local PageRank vector per block (list indexed by block id).
    local_pageranks: List[np.ndarray]
    #: The block-level transition weights (dense, n_blocks x n_blocks).
    block_matrix: np.ndarray
    #: The BlockRank vector over blocks.
    block_rank: np.ndarray
    #: The approximate global vector (step 4).
    approximate_global: np.ndarray
    #: The refined global PageRank (step 5); equals ``approximate_global``
    #: when refinement was disabled.
    global_scores: np.ndarray
    #: Iterations used in the final global refinement (0 if disabled).
    refinement_iterations: int

    def top_k(self, k: int) -> List[int]:
        """The ``k`` highest-scoring node indices of the refined ranking."""
        order = np.lexsort((np.arange(self.global_scores.size),
                            -self.global_scores))
        return [int(i) for i in order[:k]]


def _block_members(blocks: np.ndarray, n_blocks: int) -> List[np.ndarray]:
    return [np.where(blocks == b)[0] for b in range(n_blocks)]


def blockrank(adjacency, blocks: Sequence[int], *,
              damping: float = DEFAULT_DAMPING,
              local_damping: Optional[float] = None,
              refine: bool = True,
              tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> BlockRankResult:
    """Run the BlockRank algorithm.

    Parameters
    ----------
    adjacency:
        Global document-level adjacency matrix.
    blocks:
        Length-``n`` assignment of every node to a block id in
        ``[0, n_blocks)``; in the web setting the block of a page is its
        web site.
    damping:
        Damping factor for the block-level and global computations.
    local_damping:
        Damping factor for the per-block local PageRanks (defaults to
        ``damping``).
    refine:
        Whether to run step 5 (global power iteration started from the
        approximate vector).  Disabling it yields the pure "aggregate of
        local ranks" approximation which is the fair comparison point
        against the LMM layered ranking.
    """
    blocks = np.asarray(list(blocks), dtype=np.int64)
    n = adjacency.shape[0]
    if blocks.size != n:
        raise ValidationError(
            f"blocks has length {blocks.size}, expected {n}")
    if blocks.size and blocks.min() < 0:
        raise ValidationError("block ids must be non-negative")
    n_blocks = int(blocks.max()) + 1 if blocks.size else 0
    members = _block_members(blocks, n_blocks)
    for b, idx in enumerate(members):
        if idx.size == 0:
            raise ValidationError(f"block {b} has no members")
    if local_damping is None:
        local_damping = damping

    # Step 1: local PageRank of every block.
    local_pageranks: List[np.ndarray] = []
    for idx in members:
        local_adj = submatrix(adjacency, idx)
        local_result = pagerank(local_adj, damping=local_damping, tol=tol,
                                max_iter=max_iter)
        local_pageranks.append(local_result.scores)

    # Step 2: block-level matrix weighted by local PageRank of source pages.
    row_stochastic = row_normalize(adjacency)
    dense_needed = not is_sparse(row_stochastic)
    csr = (row_stochastic if dense_needed
           else row_stochastic.tocsr())
    block_matrix = np.zeros((n_blocks, n_blocks), dtype=float)
    local_score_of_node = np.zeros(n, dtype=float)
    for b, idx in enumerate(members):
        local_score_of_node[idx] = local_pageranks[b]
    if dense_needed:
        rows, cols = np.nonzero(np.asarray(csr))
        values = np.asarray(csr)[rows, cols]
    else:
        coo = csr.tocoo()
        rows, cols, values = coo.row, coo.col, coo.data
    for i, j, value in zip(rows, cols, values):
        block_matrix[blocks[i], blocks[j]] += local_score_of_node[i] * value
    # Rows of the block matrix may not sum to one (dangling blocks); the
    # block-level PageRank handles that via its own dangling policy.

    # Step 3: BlockRank over blocks.
    block_result: PageRankResult = pagerank(block_matrix, damping=damping,
                                            tol=tol, max_iter=max_iter)
    block_rank = block_result.scores

    # Step 4: approximate global vector.
    approximate = np.zeros(n, dtype=float)
    for b, idx in enumerate(members):
        approximate[idx] = block_rank[b] * local_pageranks[b]
    approximate = normalize_distribution(approximate,
                                         name="approximate global vector")

    # Step 5: optional refinement with the standard global iteration.
    refinement_iterations = 0
    if refine:
        from ..linalg.power_iteration import (
            stationary_distribution_dangling_aware,
        )
        link = row_normalize(adjacency)
        refined = stationary_distribution_dangling_aware(
            link, damping, None, start=approximate, tol=tol,
            max_iter=max_iter)
        global_scores = refined.vector
        refinement_iterations = refined.iterations
    else:
        global_scores = approximate

    return BlockRankResult(
        local_pageranks=local_pageranks,
        block_matrix=block_matrix,
        block_rank=block_rank,
        approximate_global=approximate,
        global_scores=global_scores,
        refinement_iterations=refinement_iterations,
    )
