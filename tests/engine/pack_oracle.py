"""Reference implementations the site-major block layout is tested against.

How the engine cut and packed local subgraphs before
:class:`repro.web.docgraph.SiteBlocks`: one scipy fancy-index
``submatrix`` of the global adjacency per site, and ``scipy.sparse.block_diag``
gluing the pieces back together.  Kept here, outside ``src/``, as the
oracle of ``test_site_blocks.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.linalg import submatrix


def oracle_block(docgraph, site: str) -> Tuple[sp.csr_matrix, List[int]]:
    """One site's local adjacency, sliced out of the global matrix."""
    doc_ids = docgraph.documents_of_site(site)
    return submatrix(docgraph.adjacency(), doc_ids), doc_ids


def oracle_pack(matrices: Sequence) -> Tuple[sp.csr_matrix, np.ndarray]:
    """``(block-diagonal CSR, int64 offsets)`` of square matrices."""
    matrices = [sp.csr_matrix(matrix, dtype=float) for matrix in matrices]
    offsets = np.zeros(len(matrices) + 1, dtype=np.int64)
    np.cumsum([matrix.shape[0] for matrix in matrices], out=offsets[1:])
    packed = (matrices[0] if len(matrices) == 1
              else sp.block_diag(matrices, format="csr"))
    return packed.tocsr(), offsets


def oracle_packed_sites(docgraph, sites: Sequence[str]
                        ) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """``(matrix, offsets, doc_ids)`` of a run of sites, the old way."""
    blocks = [oracle_block(docgraph, site) for site in sites]
    matrix, offsets = oracle_pack([block for block, _ids in blocks])
    doc_ids = np.concatenate([np.asarray(ids, dtype=np.int64)
                              for _block, ids in blocks])
    return matrix, offsets, doc_ids


def assert_same_csr(got, want) -> None:
    """Array *and dtype* equality of two CSR matrices."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert got_array.dtype == want_array.dtype, name
        assert np.array_equal(got_array, want_array), name
