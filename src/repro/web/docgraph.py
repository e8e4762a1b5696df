"""The DocGraph: the document-level web graph ``G_D(V_D, E_D)``.

A :class:`DocGraph` stores web documents (identified by URL), the DocLinks
between them, and the assignment of every document to its web site.  It is
the input of both the flat PageRank baseline and the layered ranking
pipeline, and the object the SiteGraph (:mod:`repro.web.sitegraph`) is
aggregated from.

The class is deliberately an explicit, append-only builder (``add_document``
/ ``add_link``) rather than a thin wrapper around networkx: the distributed
simulation needs cheap per-site slicing, and the benchmarks need
deterministic document indexing.
"""

from __future__ import annotations

from array import array
from copy import copy
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..exceptions import GraphStructureError
from ..linalg.sparse_utils import coo_from_edges
from .registry import DocumentRegistry


@dataclass(frozen=True)
class Document:
    """One web document.

    Attributes
    ----------
    doc_id:
        Dense integer identifier (index into the adjacency matrix).
    url:
        Canonical URL.
    site:
        Identifier of the owning web site.
    is_dynamic:
        Whether the page is dynamically generated (query string / script
        extension) — kept because the paper includes dynamic pages on
        purpose and they dominate its Figure 3.
    """

    doc_id: int
    url: str
    site: str
    is_dynamic: bool = False


def block_rows(offsets: np.ndarray, blocks: Sequence[int]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of the rows of *blocks* (indices, in the order given)
    under the row boundaries *offsets*, and each block's run in them: where
    a packed batch reads its rows from and its results go back to."""
    blocks = np.asarray(blocks, dtype=np.int64)
    low = offsets[blocks]
    sizes = offsets[blocks + 1] - low
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return np.arange(bounds[-1]) + np.repeat(low - bounds[:-1],
                                             sizes), bounds


class SiteBlocks:
    """Every site's local link matrix, stored once in site-major order.

    The paper's local subgraphs ``G^s_d`` are the diagonal blocks of the
    DocGraph once documents are numbered site by site.  ``order`` is that
    numbering (document ids; sites first-seen, each site's ids ascending),
    ``offsets`` the ``n_sites + 1`` block boundaries, ``nnz`` the entries
    per block and ``matrix`` the ``N x N`` block-diagonal CSR of intra-site
    link counts in site-major positions, built by one array pass over the
    links.  A value snapshot: graph mutations build a new object.
    """

    def __init__(self, site_of_doc: np.ndarray, n_sites: int,
                 sources: np.ndarray, targets: np.ndarray) -> None:
        self.order = np.argsort(site_of_doc, kind="stable")
        self.offsets = np.pad(
            np.cumsum(np.bincount(site_of_doc, minlength=n_sites)), (1, 0))
        self._position = np.empty_like(self.order)
        self._position[self.order] = np.arange(self.order.size)
        local = np.flatnonzero(
            site_of_doc.take(sources) == site_of_doc.take(targets))
        self._set_matrix(coo_from_edges(
            np.column_stack((self._position.take(sources.take(local)),
                             self._position.take(targets.take(local)))),
            self.order.size))

    def _set_matrix(self, matrix: sp.csr_matrix) -> None:
        self.matrix = matrix
        self.nnz = np.diff(matrix.indptr[self.offsets])

    def with_link(self, source: int, target: int) -> "SiteBlocks":
        """This layout plus one intra-site link, as a new object.

        One sparse addition instead of a rebuild; the document numbering
        is shared with (and the matrix of) this object left untouched.
        """
        patched = copy(self)
        patched._set_matrix(self.matrix + sp.csr_matrix(
            ([1.0], ([self._position[source]], [self._position[target]])),
            shape=self.matrix.shape))
        return patched

    @cached_property
    def doc_ids(self) -> Tuple[int, ...]:
        """:attr:`order` as Python ints, built once per layout."""
        return tuple(self.order.tolist())

    def packed(self, sites: Sequence[int]
               ) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """``(matrix, offsets, doc_ids)`` of some sites' blocks, packed.

        A row-range gather into fresh buffers: the block-diagonal CSR of
        the named sites (by index, in the order given; index dtype of the
        source), its ``int64`` block boundaries and the document id of
        every packed row.
        """
        source = self.matrix
        rows, offsets = block_rows(self.offsets, sites)
        # Source entry of every packed entry; columns move by their
        # row's shift.
        shift = rows - np.arange(rows.size)
        counts = source.indptr[rows + 1] - source.indptr[rows]
        indptr = np.pad(np.cumsum(counts, dtype=counts.dtype), (1, 0))
        entries = np.arange(indptr[-1]) + np.repeat(
            source.indptr[rows] - indptr[:-1], counts)
        columns = source.indices[entries] - np.repeat(shift, counts).astype(
            source.indices.dtype)
        matrix = sp.csr_matrix((source.data[entries], columns, indptr),
                               shape=(rows.size, rows.size))
        return matrix, offsets, self.order[rows]


class SiteBlockRef:
    """One site's block of a :class:`SiteBlocks`, cut on demand.

    What a per-site engine task carries in place of a CSR matrix; pickling
    ships the block itself, never the shared layout.
    """

    __slots__ = ("blocks", "index")

    def __init__(self, blocks: SiteBlocks, index: int) -> None:
        self.blocks = blocks
        self.index = index

    @property
    def shape(self) -> Tuple[int, int]:
        offsets = self.blocks.offsets
        n = int(offsets[self.index + 1] - offsets[self.index])
        return (n, n)

    @property
    def nnz(self) -> int:
        return int(self.blocks.nnz[self.index])

    def tocsr(self) -> sp.csr_matrix:
        """The block as a real CSR matrix (caller-owned buffers)."""
        return self.blocks.packed([self.index])[0]

    def __reduce__(self):
        block = self.tocsr()
        return (sp.csr_matrix, ((block.data, block.indices, block.indptr),
                                block.shape))


class DocGraph:
    """A directed graph of web documents grouped into web sites.

    Document identity lives in a
    :class:`~repro.web.registry.DocumentRegistry` (each distinct URL
    spelling is parsed once); DocLinks are two growable int64 columns of
    source / target ids, handed to the matrix builders as arrays.

    Parameters
    ----------
    site_extractor:
        Callable mapping a URL to its site identifier; defaults to the
        host-based :func:`repro.web.url.site_of`.
    normalize:
        Whether to normalise URLs on insertion (recommended; disable only
        when the caller guarantees canonical identifiers, e.g. synthetic
        generators).
    """

    def __init__(self, *, site_extractor: Optional[Callable[[str], str]] = None,
                 normalize: bool = True) -> None:
        self._registry = DocumentRegistry(site_extractor=site_extractor,
                                          normalize=normalize)
        self._sources = array("q")
        self._targets = array("q")
        self._adjacency_cache: Optional[sp.csr_matrix] = None
        self._site_blocks_cache: Optional[SiteBlocks] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_document(self, url: str, *, site: Optional[str] = None,
                     is_dynamic: Optional[bool] = None) -> int:
        """Add a document (idempotent) and return its integer id.

        Parameters
        ----------
        site:
            Explicit site identifier; derived from the URL when omitted.
        is_dynamic:
            Explicit dynamic-page flag; derived from the URL when omitted.
        """
        n = len(self._registry)
        doc_id = self._registry.add(url, site=site, is_dynamic=is_dynamic)
        if doc_id == n:
            self._adjacency_cache = self._site_blocks_cache = None
        return doc_id

    def add_link(self, source_url: str, target_url: str) -> Tuple[int, int]:
        """Add a DocLink; both endpoints are added if missing.

        Self-links are kept (a page may link to itself), duplicate links are
        kept as parallel edges and accumulate weight in the adjacency matrix,
        which is exactly how the paper counts SiteLinks.
        """
        source = self.add_document(source_url)
        target = self.add_document(target_url)
        self.add_link_by_id(source, target)
        return source, target

    def add_link_by_id(self, source: int, target: int) -> None:
        """Add a DocLink between two already-registered document ids."""
        n = len(self._registry)
        if not (0 <= source < n and 0 <= target < n):
            raise GraphStructureError(
                f"link ({source}, {target}) references unknown documents "
                f"(graph has {n})")
        self._sources.append(source)
        self._targets.append(target)
        self._adjacency_cache = None
        # The layout only holds intra-site links, and one more of those is
        # a patch, not a rebuild (what keeps a live add_link cheap).
        doc_site = self._registry.doc_site
        if self._site_blocks_cache is not None \
                and doc_site[source] == doc_site[target]:
            self._site_blocks_cache = self._site_blocks_cache.with_link(
                source, target)

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[str, str]], *,
                   site_extractor: Optional[Callable[[str], str]] = None,
                   normalize: bool = True) -> "DocGraph":
        """Build a DocGraph from an iterable of ``(source URL, target URL)``."""
        graph = cls(site_extractor=site_extractor, normalize=normalize)
        graph._sources, graph._targets = graph._registry.add_edges(edges)
        return graph

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def registry(self) -> DocumentRegistry:
        """The document-identity table behind this graph."""
        return self._registry

    @property
    def n_documents(self) -> int:
        """Number of documents ``N_D``."""
        return len(self._registry)

    @property
    def n_links(self) -> int:
        """Number of DocLinks (counting multiplicity)."""
        return len(self._sources)

    @property
    def n_sites(self) -> int:
        """Number of distinct web sites ``N_S``."""
        return len(self._registry.sites)

    def __len__(self) -> int:
        return self.n_documents

    def __contains__(self, url: str) -> bool:
        return self._registry.find(url) is not None

    def documents(self) -> Iterator[Document]:
        """Iterate over all documents in id order."""
        return map(self.document, range(len(self._registry)))

    def document(self, doc_id: int) -> Document:
        """The :class:`Document` with the given id, built from the registry."""
        site, registry = self.site_of_document(doc_id), self._registry
        return Document(doc_id=int(doc_id), url=registry.urls[doc_id],
                        site=site, is_dynamic=bool(registry.dynamic[doc_id]))

    def document_by_url(self, url: str) -> Document:
        """The :class:`Document` with the given URL."""
        doc_id = self._registry.find(url)
        if doc_id is None:
            raise GraphStructureError(f"unknown document URL {url!r}")
        return self.document(doc_id)

    def urls(self) -> List[str]:
        """All document URLs in id order."""
        return list(self._registry.urls)

    def sites(self) -> List[str]:
        """All site identifiers, in first-seen order."""
        return list(self._registry.sites)

    def site_of_document(self, doc_id: int) -> str:
        """Site identifier of a document id."""
        registry = self._registry
        if not 0 <= doc_id < len(registry):
            raise GraphStructureError(f"unknown document id {doc_id}")
        return registry.sites[registry.doc_site[doc_id]]

    def documents_of_site(self, site: str) -> List[int]:
        """Document ids belonging to a site ("V_d(s)" in the paper)."""
        index = self._registry.site_index.get(site)
        if index is None:
            raise GraphStructureError(f"unknown site {site!r}")
        return list(self._registry.docs_by_site[index])

    def site_sizes(self) -> Dict[str, int]:
        """``size(s)`` for every site: the number of local documents ``n_s``."""
        return {site: len(ids) for site, ids in zip(
            self._registry.sites, self._registry.docs_by_site)}

    def edges(self) -> List[Tuple[int, int]]:
        """All DocLinks as ``(source id, target id)`` pairs."""
        return list(zip(self._sources, self._targets))

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All DocLinks as ``(source ids, target ids)`` int64 arrays (copies)."""
        return (np.array(self._sources, dtype=np.int64),
                np.array(self._targets, dtype=np.int64))

    def site_indices(self) -> np.ndarray:
        """Per-document index into :meth:`sites` (int64 array, a copy)."""
        return np.array(self._registry.doc_site, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Matrices
    # ------------------------------------------------------------------ #
    def adjacency(self) -> sp.csr_matrix:
        """The ``N_D x N_D`` sparse adjacency (link-count) matrix."""
        if self.n_documents == 0:
            raise GraphStructureError("DocGraph is empty")
        if self._adjacency_cache is None:
            self._adjacency_cache = coo_from_edges(
                np.column_stack(self.edge_arrays()), self.n_documents)
        return self._adjacency_cache

    def site_blocks(self) -> SiteBlocks:
        """The site-major block layout of the intra-site links (cached)."""
        if self.n_documents == 0:
            raise GraphStructureError("DocGraph is empty")
        if self._site_blocks_cache is None:
            with obs.span("plan.site_blocks.build"):
                self._site_blocks_cache = SiteBlocks(
                    self.site_indices(), self.n_sites, *self.edge_arrays())
            obs.inc("site_blocks_builds_total")
        return self._site_blocks_cache

    def local_block(self, site: str) -> Tuple[SiteBlockRef, List[int]]:
        """One site's ``(lazy block reference, document ids)``.

        The form the engine plans with: no matrix is cut until the
        reference is resolved, and references into the same
        :meth:`site_blocks` pack with a single gather.
        """
        doc_ids = self.documents_of_site(site)
        return (SiteBlockRef(self.site_blocks(),
                             self._registry.site_index[site]), doc_ids)

    def local_adjacency(self, site: str) -> Tuple[sp.csr_matrix, List[int]]:
        """The local subgraph ``G^s_d`` of one site.

        Returns the adjacency matrix restricted to the site's documents
        (only intra-site links, per the paper's definition of ``E_d(s)``)
        together with the list of global document ids in local order.
        A contiguous row slice of :meth:`site_blocks`; the global
        :meth:`adjacency` is not built.
        """
        block, doc_ids = self.local_block(site)
        return block.tocsr(), doc_ids

    def in_degrees(self) -> np.ndarray:
        """In-degree (number of incoming DocLinks) of every document."""
        return np.asarray(self.adjacency().sum(axis=0)).ravel()

    def out_degrees(self) -> np.ndarray:
        """Out-degree (number of outgoing DocLinks) of every document."""
        return np.asarray(self.adjacency().sum(axis=1)).ravel()

    def to_networkx(self):
        """Export to a :class:`networkx.MultiDiGraph` (URLs as node labels)."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        for document in self.documents():
            graph.add_node(document.url, site=document.site,
                           is_dynamic=document.is_dynamic)
        urls = self._registry.urls
        for source, target in zip(self._sources, self._targets):
            graph.add_edge(urls[source], urls[target])
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DocGraph(n_documents={self.n_documents}, "
                f"n_links={self.n_links}, n_sites={self.n_sites})")
