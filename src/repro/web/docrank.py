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

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

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
        if self._position is None:
            self._position = {doc: i for i, doc in enumerate(self.doc_ids)}
        try:
            return float(self.scores[self._position[doc_id]])
        except KeyError:
            raise ValidationError(
                f"document {doc_id} does not belong to site {self.site!r}"
            ) from None

    def top_k(self, k: int) -> List[int]:
        """The ``k`` best documents of the site (global ids), best first.

        For ``k ≪ n`` (the serving layer's per-shard rebuild pattern) this
        avoids a full ``O(n log n)`` sort: an ``O(n)`` partition finds the
        k-th score, only the candidates at or above it are sorted, and
        ties are broken by local position exactly like the historical full
        ``np.lexsort`` — including ties *across* the cut, which the
        candidate set keeps in full so the deterministic tie-break decides
        them, not the partition's arbitrary placement.
        """
        n = self.scores.size
        if k <= 0:
            return []
        if k < n:
            cutoff = np.partition(self.scores, n - k)[n - k]
            candidates = np.flatnonzero(self.scores >= cutoff)
            order = candidates[np.lexsort((candidates,
                                           -self.scores[candidates]))]
        else:
            order = np.lexsort((np.arange(n), -self.scores))
        return [self.doc_ids[int(i)] for i in order[:k]]


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
    :class:`DocGraph`, only the picklable ``(adjacency, doc_ids)`` pair, so
    it can run unchanged on the calling thread, a pool thread, or a worker
    process.
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
    Small sites are fused into block-diagonal tasks solved by one power
    iteration with per-site convergence freezing
    (:mod:`repro.linalg.block_solver`), large ones keep a dedicated solve;
    :func:`repro.engine.plan.fuse_schedule` decides from the sizes alone.
    A process backend ships the matrices through the engine's
    shared-memory arena (one segment per batch, attached zero-copy by the
    workers).

    Parameters
    ----------
    executor / n_jobs:
        Execution backend selection, resolved by
        :func:`repro.engine.resolve_executor` (serial when both omitted).
    warm:
        Optional :class:`repro.engine.WarmStartState` supplying previously
        converged vectors to resume from.
    """
    from ..engine.plan import execute_site_tasks, site_tasks_for

    preferences = preferences or {}
    tasks = site_tasks_for(docgraph, damping, preferences=preferences,
                           tol=tol, max_iter=max_iter, warm=warm)
    results = execute_site_tasks(tasks, executor=executor, n_jobs=n_jobs)
    return {result.site: result for result in results}
