"""Local DocRank: ranking the documents *within* one web site (Step 3).

"For each Web site s, derive the subgraph G^s_d, its matrix representation
M̂^s_d = M̂(G^s_d) and compute its π_D(s) = DocRank(M̂^s_d) using the classical
PageRank algorithm.  This step can be completely decentralized in a
peer-to-peer search system."

A local DocRank only ever looks at the intra-site links of its own site, so
every site's computation is independent — the property the distributed
simulation (:mod:`repro.distributed`) exploits.  The solve is the
matrix-free sparse power iteration
(:func:`repro.linalg.power_iteration.stationary_distribution_dangling_aware`)
whatever the site's size: memory stays proportional to the site's links,
and dangling documents spread their mass uniformly, as in the fused block
solver that small sites ride.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .._validation import ensure_doc_id
from ..exceptions import ValidationError
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..markov.irreducibility import DEFAULT_DAMPING
from ..pagerank.pagerank import pagerank
from .docgraph import DocGraph


@dataclass
class LocalDocRank:
    """The DocRank of one site's local document collection.

    Attributes
    ----------
    site:
        The owning web site.
    doc_ids:
        Global document ids in local order (the order of *scores*).
    scores:
        Local DocRank distribution ``π_D(s)`` over the site's documents.
    iterations:
        Power iterations used for this site.
    """

    site: str
    doc_ids: List[int]
    scores: np.ndarray
    iterations: int
    #: ``{doc_id: position}``, built by the first :meth:`score_of` call
    #: (a fit never makes one).
    _position: Optional[Dict[int, int]] = field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if len(self.doc_ids) != self.scores.size:
            raise ValidationError("doc_ids and scores must align")

    @property
    def n_documents(self) -> int:
        """Number of documents of the site."""
        return len(self.doc_ids)

    def score_of(self, doc_id: int) -> float:
        """Local DocRank value of a global document id."""
        ensure_doc_id(doc_id)
        if self._position is None:
            self._position = {doc: i for i, doc in enumerate(self.doc_ids)}
        try:
            return float(self.scores[self._position[doc_id]])
        except KeyError:
            raise ValidationError(
                f"document {doc_id} does not belong to site {self.site!r}"
            ) from None

    def top_k(self, k: int) -> List[int]:
        """The ``k`` best documents of the site (global ids), best first."""
        if k <= 0:
            return []
        return [self.doc_ids[int(i)] for i in best_positions(self.scores, k)]


def best_positions(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` best *scores*, best first, ties by position.

    The order of a full ``np.lexsort((positions, -scores))`` cut at *k*,
    without the full sort when ``k < n`` (the serving layer's per-shard
    rebuild pattern): an ``O(n)`` partition finds the k-th score, and
    only the pool at or above it is sorted — ties *across* the cut
    included, so the position tie-break decides them, not the partition's
    arbitrary placement.  ``-0.0`` ties ``0.0`` as it does in the sort.
    """
    negated = -np.asarray(scores, dtype=float)
    n = negated.size
    if k < n:
        cutoff = np.partition(negated, k - 1)[k - 1]
        if not np.isnan(cutoff):
            pool = np.flatnonzero(negated <= cutoff)
            return pool[np.lexsort((pool, negated[pool]))][:k]
    return np.lexsort((np.arange(n), negated))[:k]


class LocalRanks(Mapping):
    """Every site's local DocRank at once, held site-major.

    One score vector over all documents in the site-major order of
    :class:`~repro.web.docgraph.SiteBlocks`, the matching document ids,
    the ``n_sites + 1`` site boundaries and one iteration count per site.
    As a read-only mapping ``site -> LocalDocRank`` it builds each
    :class:`LocalDocRank` on access, as a view of the site's range, so
    holding every site's result costs no Python object per site.
    """

    def __init__(self, sites: Sequence[str], doc_ids: Sequence[int],
                 scores: np.ndarray, offsets: np.ndarray,
                 iterations: np.ndarray) -> None:
        if not (len(doc_ids) == scores.size == int(offsets[-1])
                and len(sites) + 1 == offsets.size == iterations.size + 1):
            raise ValidationError(
                "sites, doc_ids, scores, offsets and iterations must align")
        self.sites = sites
        self.doc_ids = doc_ids
        self.scores = scores
        self.offsets = offsets
        self.iterations = iterations
        self._index: Optional[Dict[str, int]] = None

    @classmethod
    def from_ranks(cls, ranks: Sequence[LocalDocRank]) -> "LocalRanks":
        """Concatenate per-site results, in the order given."""
        sizes = [rank.scores.size for rank in ranks]
        return cls([rank.site for rank in ranks],
                   list(chain.from_iterable(rank.doc_ids for rank in ranks)),
                   np.concatenate([rank.scores for rank in ranks]),
                   np.pad(np.cumsum(sizes, dtype=np.int64), (1, 0)),
                   np.array([rank.iterations for rank in ranks],
                            dtype=np.int64))

    @property
    def sizes(self) -> np.ndarray:
        """Documents per site, in :attr:`sites` order."""
        return np.diff(self.offsets)

    @property
    def total_iterations(self) -> int:
        """Power iterations summed over the sites."""
        return int(self.iterations.sum())

    def _site_index(self, site: str) -> Optional[int]:
        if self._index is None:
            self._index = {name: index
                           for index, name in enumerate(self.sites)}
        return self._index.get(site)

    def __getitem__(self, site: str) -> LocalDocRank:
        index = self._site_index(site)
        if index is None:
            raise KeyError(site)
        low, high = int(self.offsets[index]), int(self.offsets[index + 1])
        return LocalDocRank(site=site, doc_ids=list(self.doc_ids[low:high]),
                            scores=self.scores[low:high],
                            iterations=int(self.iterations[index]))

    def __contains__(self, site: object) -> bool:
        return isinstance(site, str) and self._site_index(site) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self.sites)

    def __len__(self) -> int:
        return len(self.sites)


@dataclass
class SiteColumns:
    """Per-segment local DocRank columns of one site (multi-vector solve).

    The K-column sibling of :class:`LocalDocRank`: ``columns[:, k]`` is the
    site's local stationary distribution under preference column ``k``.
    Produced by :func:`solve_local_columns` and by the engine's fused
    multi-vector batches.
    """

    site: str
    doc_ids: List[int]
    columns: np.ndarray
    iterations: int

    def __post_init__(self) -> None:
        self.columns = np.asarray(self.columns, dtype=float)
        if self.columns.ndim != 2 or len(self.doc_ids) != self.columns.shape[0]:
            raise ValidationError("doc_ids and columns must align")

    @property
    def n_documents(self) -> int:
        """Number of documents of the site."""
        return len(self.doc_ids)

    @property
    def n_vectors(self) -> int:
        """Number of preference columns solved."""
        return int(self.columns.shape[1])

    def column(self, index: int) -> np.ndarray:
        """One segment's local distribution (view, in local doc order)."""
        return self.columns[:, index]


def solve_local_columns(site: str, local_adjacency, doc_ids: List[int],
                        preference: np.ndarray,
                        damping: float = DEFAULT_DAMPING, *,
                        tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER,
                        start: Optional[np.ndarray] = None) -> SiteColumns:
    """Solve one site's local DocRank for K preference columns in one pass.

    The multi-vector kernel behind segment personalisation: *preference* is
    an ``(n, K)`` matrix and the site is solved as a single-block fused
    multi-vector power iteration (:func:`repro.linalg.block_solver.solve_blocks`)
    — one matrix sweep advances all K segment columns.
    """
    from ..linalg.block_solver import pack_blocks, solve_blocks

    preference = np.asarray(preference, dtype=float)
    if preference.ndim != 2 or preference.shape[0] != len(doc_ids):
        raise ValidationError(
            f"preference for site {site!r} must be ({len(doc_ids)}, K), "
            f"got shape {preference.shape!r}")
    packed = pack_blocks([(local_adjacency, start, preference)])
    result = solve_blocks(packed, damping, tol=tol, max_iter=max_iter)
    columns = result.vectors[0]
    if columns.ndim == 1:  # K == 1 degenerates to the classic path
        columns = columns[:, None]
    return SiteColumns(site=site, doc_ids=list(doc_ids), columns=columns,
                       iterations=int(np.max(result.iterations)))


def solve_local_docrank(site: str, local_adjacency, doc_ids: List[int],
                        damping: float = DEFAULT_DAMPING, *,
                        preference: Optional[np.ndarray] = None,
                        tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER,
                        start: Optional[np.ndarray] = None) -> LocalDocRank:
    """Solve one site's local DocRank from its already-extracted subgraph.

    This is the pure computational kernel shared by :func:`local_docrank`
    and the execution engine's per-site tasks
    (:class:`repro.engine.plan.LocalRankTask`): it touches no
    :class:`DocGraph`, only the ``(adjacency, doc_ids)`` pair, so it can
    run unchanged on the calling thread or a pool thread.
    """
    if preference is not None:
        preference = np.asarray(preference, dtype=float)
        if preference.size != len(doc_ids):
            raise ValidationError(
                f"preference for site {site!r} has length {preference.size}, "
                f"expected {len(doc_ids)}")
    # The matrix-free kernel at every size — a site never becomes an n × n
    # Google matrix; residual histories stay off — this is an engine hot
    # path and LocalDocRank does not carry them anyway.
    result = pagerank(local_adjacency, damping=damping, preference=preference,
                      tol=tol, max_iter=max_iter, method="sparse",
                      start=start, record_residuals=False)
    return LocalDocRank(site=site, doc_ids=list(doc_ids),
                        scores=result.scores, iterations=result.iterations)


def local_docrank(docgraph: DocGraph, site: str,
                  damping: float = DEFAULT_DAMPING, *,
                  preference: Optional[np.ndarray] = None,
                  tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  start: Optional[np.ndarray] = None) -> LocalDocRank:
    """Compute the local DocRank of a single site.

    Parameters
    ----------
    docgraph:
        The global DocGraph (only the site's local subgraph is used).
    site:
        Site identifier.
    preference:
        Optional personalisation distribution over the site's documents (in
        local order) — document-layer personalisation of Section 3.2.
    start:
        Optional warm-start distribution in local order (e.g. the site's
        previously converged vector); uniform when omitted.
    """
    local_adjacency, doc_ids = docgraph.local_adjacency(site)
    return solve_local_docrank(site, local_adjacency, doc_ids, damping,
                               preference=preference, tol=tol,
                               max_iter=max_iter, start=start)


def all_local_docranks(docgraph: DocGraph, damping: float = DEFAULT_DAMPING, *,
                       preferences: Optional[Dict[str, np.ndarray]] = None,
                       tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER,
                       executor=None, n_jobs: Optional[int] = None,
                       warm=None) -> Dict[str, LocalDocRank]:
    """Compute the local DocRank of every site of a DocGraph.

    The per-site computations are mutually independent (the paper's
    decentralisability claim), so they are dispatched through the execution
    engine: pass ``n_jobs`` or an ``executor`` to run them concurrently;
    the default remains a serial in-order run with identical results.
    This is a fit's step 3 (:func:`repro.engine.plan.layout_step`), so
    the vectors are bitwise a fit's: small sites fused into block-diagonal
    tasks (:mod:`repro.linalg.block_solver`), large ones solved alone.

    Parameters
    ----------
    preferences:
        Optional teleport vectors by site, validated before anything runs.
    executor / n_jobs:
        Execution backend selection, resolved by
        :func:`repro.engine.resolve_executor` (serial when both omitted).
    warm:
        Optional :class:`repro.engine.WarmStartState` supplying previously
        converged vectors to resume from.
    """
    from ..engine.plan import layout_step, solve_layout_steps

    step = layout_step(docgraph, damping, preferences=preferences, tol=tol,
                       max_iter=max_iter, warm=warm)
    _first, ((scores, iterations, _tail),), _n_tasks = solve_layout_steps(
        [(step, None)], executor=executor, n_jobs=n_jobs)
    return dict(step.local_ranks(scores, iterations))
