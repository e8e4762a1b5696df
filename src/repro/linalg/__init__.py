"""Stochastic linear-algebra substrate.

Everything in this subpackage is generic Markov-chain numerics with no
knowledge of the web: stochastic-matrix construction, power iteration, and
Perron–Frobenius structure tests.  Higher layers (:mod:`repro.pagerank`,
:mod:`repro.core`, :mod:`repro.web`) build on these primitives.
"""

from .block_solver import (
    BlockSolveResult,
    PackedBlocks,
    pack_block_vectors,
    pack_blocks,
    solve_blocks,
)
from .layout import (
    ALIGNMENT,
    CSR_FAMILY,
    BumpLayout,
    align_offset,
    family_nbytes,
)
from .power_iteration import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    PowerIterationResult,
    principal_eigenvector_dense,
    stationary_distribution,
    stationary_distribution_dangling_aware,
)
from .perron import (
    is_aperiodic,
    is_irreducible,
    is_positive,
    is_primitive,
    period,
    spectral_gap,
)
from .sparse_utils import (
    block_diagonal,
    coo_from_edges,
    empty_adjacency,
    in_degrees,
    nnz,
    out_degrees,
    submatrix,
)
from .stochastic import (
    dangling_nodes,
    is_row_stochastic,
    is_sub_stochastic,
    random_stochastic_matrix,
    row_normalize,
    to_column_stochastic,
    transition_matrix,
    uniform_distribution,
)

__all__ = [
    "BlockSolveResult",
    "PackedBlocks",
    "pack_block_vectors",
    "pack_blocks",
    "solve_blocks",
    "ALIGNMENT",
    "CSR_FAMILY",
    "BumpLayout",
    "align_offset",
    "family_nbytes",
    "DEFAULT_MAX_ITER",
    "DEFAULT_TOL",
    "PowerIterationResult",
    "principal_eigenvector_dense",
    "stationary_distribution",
    "stationary_distribution_dangling_aware",
    "is_aperiodic",
    "is_irreducible",
    "is_positive",
    "is_primitive",
    "period",
    "spectral_gap",
    "block_diagonal",
    "coo_from_edges",
    "empty_adjacency",
    "in_degrees",
    "nnz",
    "out_degrees",
    "submatrix",
    "dangling_nodes",
    "is_row_stochastic",
    "is_sub_stochastic",
    "random_stochastic_matrix",
    "row_normalize",
    "to_column_stochastic",
    "transition_matrix",
    "uniform_distribution",
]
