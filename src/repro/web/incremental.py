"""Incremental maintenance of the layered DocRank.

A practical consequence of the Partition Theorem that the paper's
architecture section hints at ("its value changes less rapidly" about the
shared SiteRank): when the web changes, the layered ranking can be repaired
with work proportional to the *changed part*, not the whole web:

* if only a site's **internal** link structure changed, only that site's
  local DocRank needs recomputation — the SiteRank and every other site's
  vector are untouched;
* if **inter-site** links changed, the (tiny) SiteRank is recomputed and all
  existing local DocRanks are reused;
* the final composition is always a single O(N_D) multiplication pass.

:class:`IncrementalLayeredRanker` keeps the per-site vectors and the
SiteRank cached, applies targeted updates, and can report how much work each
update needed compared to ranking from scratch — the quantity the
incremental-update ablation benchmark measures.  Flat PageRank has no such
decomposition: any change invalidates the single global vector.

A refresh runs on the scheduler a fit runs on
(:func:`repro.engine.plan.sites_step` over the changed sites), with the
ranker's cached factors — the ``(ids, values)`` pairs a
:class:`~repro.engine.warm.WarmSource` aligns — as the warm source, so
every power iteration resumes from the site's previously converged vector
(new documents start from the uniform share).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
import scipy.sparse as sp

from ..exceptions import GraphStructureError, ValidationError
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..linalg.sparse_utils import coo_from_edges
from ..markov.irreducibility import DEFAULT_DAMPING
from .docgraph import DocGraph
from .docrank import LocalDocRank, SiteColumns
from .pipeline import (
    SegmentPreferences,
    WebRankingResult,
    build_segment_preferences,
    compose_ranking,
    weight_segment_columns,
)
from .sitegraph import SiteGraph
from .siterank import SiteRankResult


@dataclass
class UpdateReport:
    """What one incremental update had to recompute.

    Attributes
    ----------
    recomputed_sites:
        Sites whose local DocRank was recomputed.
    siterank_recomputed:
        Whether the SiteRank had to be recomputed.
    local_iterations:
        Power iterations spent in the recomputed local DocRanks.
    siterank_iterations:
        Power iterations spent on the SiteRank (0 when reused).
    documents_recomputed:
        Number of documents whose local vector was recomputed.
    documents_total:
        Total documents in the graph after the update.
    """

    recomputed_sites: List[str]
    siterank_recomputed: bool
    local_iterations: int
    siterank_iterations: int
    documents_recomputed: int
    documents_total: int
    #: Power iterations spent re-solving personalisation segment columns
    #: (0 when the ranker maintains no segments).
    segment_iterations: int = 0

    @property
    def recompute_fraction(self) -> float:
        """Fraction of the corpus whose local ranking was recomputed."""
        if self.documents_total == 0:
            return 0.0
        return self.documents_recomputed / self.documents_total


#: Signature of an update-notification callback (see
#: :meth:`IncrementalLayeredRanker.subscribe`).
UpdateListener = Callable[[UpdateReport], None]


def _previous(cache: Mapping, sites: Iterable[str], values: str) -> Dict:
    """Cached factors of *sites* as a warm source's ``(ids, values)`` pairs."""
    return {site: (cache[site].doc_ids, getattr(cache[site], values))
            for site in sites if site in cache}


class IncrementalLayeredRanker:
    """Maintains a layered DocRank over a mutable :class:`DocGraph`.

    The ranker owns the graph reference; callers mutate the graph through
    the ranker's ``add_*`` methods (or mutate it directly and then call
    :meth:`refresh` with the affected sites), and read the current ranking
    with :meth:`ranking`.
    """

    def __init__(self, docgraph: DocGraph, damping: float = DEFAULT_DAMPING, *,
                 site_damping: Optional[float] = None,
                 include_site_self_links: bool = False,
                 tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 executor=None, n_jobs: Optional[int] = None,
                 personalization: Optional[Mapping] = None) -> None:
        from ..engine.executor import resolve_executor

        if docgraph.n_documents == 0:
            raise GraphStructureError(
                "cannot build an incremental ranker over an empty DocGraph")
        self._docgraph = docgraph
        self._damping = damping
        self._site_damping = site_damping if site_damping is not None else damping
        self._include_site_self_links = include_site_self_links
        self._solver = {"tol": tol, "max_iter": max_iter}
        # All (re)computations — the initial build, refresh batches and
        # full rebuilds — are dispatched through one engine executor, so a
        # ranker over many sites repairs a multi-site change concurrently.
        self._executor, self._owns_executor = resolve_executor(executor,
                                                               n_jobs)
        self._local: Dict[str, LocalDocRank] = {}
        self._siterank: Optional[SiteRankResult] = None
        self._listeners: List[UpdateListener] = []
        #: Declarative segment spec (the RankingConfig shape); the solved
        #: per-site columns and segment-level SiteRank columns are cached
        #: alongside the base factors and repaired by the same refreshes.
        self._personalization = (dict(personalization) if personalization
                                 else None)
        self._segments: Optional[SegmentPreferences] = None
        self._local_columns: Dict[str, SiteColumns] = {}
        self._segment_site_state: Optional[
            Tuple[Tuple[str, ...], np.ndarray]] = None
        #: The SiteGraph of the graph's first ``n_documents`` documents
        #: and ``n_links`` links, as ``(sitegraph, (n_documents,
        #: n_links))``; :meth:`_sitegraph` patches it forward.
        self._site_graph: Optional[Tuple[SiteGraph, Tuple[int, int]]] = None
        self.full_rebuild()

    def close(self) -> None:
        """Release the engine executor if this ranker created it."""
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "IncrementalLayeredRanker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Update notifications
    # ------------------------------------------------------------------ #
    def subscribe(self, listener: UpdateListener) -> UpdateListener:
        """Register a callback invoked after every completed update.

        The listener receives the :class:`UpdateReport` of each
        :meth:`refresh` / :meth:`full_rebuild` (and therefore of every
        ``add_*`` mutation) once the cached factors are consistent again —
        the hook the serving layer uses to invalidate exactly the affected
        shards and cache entries.  Returns the listener so the call can be
        used as a decorator.
        """
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: UpdateListener) -> None:
        """Remove a previously registered listener (no-op when absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, report: UpdateReport) -> UpdateReport:
        for listener in list(self._listeners):
            listener(report)
        return report

    # ------------------------------------------------------------------ #
    # Full and partial recomputation
    # ------------------------------------------------------------------ #
    def full_rebuild(self) -> UpdateReport:
        """Recompute everything from scratch (construction and fallback).

        The rebuild runs as one cold-started :class:`~repro.engine.plan.RankingPlan`
        batch through the ranker's executor; it deliberately ignores any
        cached vectors so its cost is the honest from-scratch baseline the
        incremental reports are compared against.
        """
        from ..engine.plan import RankingPlan

        plan = RankingPlan.from_docgraph(
            self._docgraph, self._damping, site_damping=self._site_damping,
            include_site_self_links=self._include_site_self_links,
            **self._solver)
        execution = plan.execute(executor=self._executor)
        self._site_graph = (plan.sitegraph, (self._docgraph.n_documents,
                                             self._docgraph.n_links))
        self._siterank = execution.siterank
        self._local = dict(execution.local)
        segment_iterations = (self._rebuild_segments()
                              if self._personalization else 0)
        return self._notify(UpdateReport(
            recomputed_sites=list(self._local),
            siterank_recomputed=True,
            local_iterations=sum(rank.iterations
                                 for rank in self._local.values()),
            siterank_iterations=self._siterank.iterations,
            documents_recomputed=self._docgraph.n_documents,
            documents_total=self._docgraph.n_documents,
            segment_iterations=segment_iterations,
        ))

    def refresh(self, changed_sites: Iterable[str], *,
                intersite_changed: bool) -> UpdateReport:
        """Repair the cached ranking after an external mutation.

        The changed sites, sorted by name, are one layout step scheduled
        as a fit's step 3; with segments on, a K-column step over them
        (and the segment SiteRank block) rides along, and the SiteRank
        task, when needed, leads.  All of it is *one* batch, so a
        multi-site change is repaired concurrently on parallel executors;
        every power iteration is warm-started from the site's previously
        converged vector, which makes refresh iteration counts drop by an
        order of magnitude (asserted by the tests and benchmark E14).

        Parameters
        ----------
        changed_sites:
            Sites whose *internal* link structure (or document set) changed:
            a collection of site names (a bare string is rejected).
        intersite_changed:
            Whether any link between two different sites was added or
            removed (requires a SiteRank recomputation).
        """
        from ..engine import plan
        from ..engine.warm import WarmSource

        if isinstance(changed_sites, str):
            raise ValidationError(
                "changed_sites must be a collection of site names, got the "
                f"string {changed_sites!r}")
        changed: Set[str] = set(changed_sites)
        known_sites = set(self._docgraph.sites())
        unknown = changed - known_sites
        if unknown:
            raise GraphStructureError(
                f"unknown site {sorted(unknown)[0]!r}")
        new_sites = known_sites - set(self._local)
        changed |= new_sites
        ordered = sorted(changed)

        siterank_recomputed = bool(intersite_changed or new_sites)
        sitegraph = (self._sitegraph()
                     if siterank_recomputed or self._personalization else None)
        if self._personalization:
            # Preference columns are re-lowered each refresh: document
            # columns are row-aligned to the *current* local adjacency and
            # site columns to the current SiteGraph, either of which the
            # mutation may have changed.
            self._segments = build_segment_preferences(
                self._docgraph, sitegraph, self._personalization)

        warm = WarmSource(_previous(self._local, ordered, "scores"),
                          (self._siterank.sites, self._siterank.scores))
        # Scheduled over the changed sites' own sizes, not the whole web's.
        step = partial(plan.sites_step, self._docgraph.site_blocks(),
                       [self._docgraph.registry.site_index[site]
                        for site in ordered], ordered, self._damping,
                       **self._solver)
        steps = [step(warm=warm)]
        if self._segments is not None:
            segment_warm = WarmSource(
                _previous(self._local_columns, ordered, "columns"),
                self._segment_site_state)
            tail = plan.segment_siterank_task_for(
                sitegraph, self._segments, self._site_damping,
                warm=segment_warm, **self._solver) \
                if siterank_recomputed else None
            columns = self._segments.document_columns
            steps.append(step(
                preferences=[columns.get(site) for site in ordered],
                warm=segment_warm, n_vectors=self._segments.n_segments,
                tail=tail))
        solved: list = []
        siterank = plan.solve_windows(
            steps, sink=lambda _step, collected: solved.append(collected),
            executor=self._executor,
            first=plan.siterank_task_for(
                sitegraph, self._site_damping, warm=warm, **self._solver)
            if siterank_recomputed else None).siterank
        (scores, iterations, _), *segment_results = solved

        if siterank is not None:
            self._siterank = siterank
        local = steps[0].local_ranks(scores, iterations)
        self._local.update(local)
        segment_iterations = (self._store_segments(
            local.sites, local.doc_ids, local.offsets, *segment_results,
            sitegraph=sitegraph) if segment_results else 0)

        return self._notify(UpdateReport(
            recomputed_sites=ordered,
            siterank_recomputed=siterank_recomputed,
            local_iterations=local.total_iterations,
            siterank_iterations=(siterank.iterations
                                 if siterank is not None else 0),
            documents_recomputed=int(local.offsets[-1]),
            documents_total=self._docgraph.n_documents,
            segment_iterations=segment_iterations,
        ))

    # ------------------------------------------------------------------ #
    # Mutation helpers
    # ------------------------------------------------------------------ #
    def add_link(self, source_url: str, target_url: str) -> UpdateReport:
        """Add a DocLink and repair exactly the affected state."""
        source_id, target_id = self._docgraph.add_link(source_url, target_url)
        source_site = self._docgraph.site_of_document(source_id)
        target_site = self._docgraph.site_of_document(target_id)
        if source_site == target_site:
            return self.refresh([source_site], intersite_changed=False)
        # An inter-site link does not change either side's *local* subgraph,
        # but new documents may have been created on either side.
        changed = [site for site in (source_site, target_site)
                   if site not in self._local
                   or len(self._docgraph.documents_of_site(site))
                   != self._local[site].n_documents]
        return self.refresh(changed, intersite_changed=True)

    def add_document(self, url: str, *, site: Optional[str] = None) -> UpdateReport:
        """Add an (isolated) document and repair its site's local ranking."""
        doc_id = self._docgraph.add_document(url, site=site)
        owning_site = self._docgraph.site_of_document(doc_id)
        # A brand new site also changes the SiteGraph's node set.
        new_site = owning_site not in self._local
        return self.refresh([owning_site], intersite_changed=new_site)

    # ------------------------------------------------------------------ #
    # Reading the current ranking
    # ------------------------------------------------------------------ #
    @property
    def docgraph(self) -> DocGraph:
        """The (mutable) DocGraph the ranker maintains a ranking over."""
        return self._docgraph

    def ranking(self) -> WebRankingResult:
        """Compose the cached factors into the current global DocRank.

        When the ranker maintains personalisation segments, the per-segment
        score columns are composed from the cached segment factors in the
        same site-major document order and attached to the result.
        """
        assert self._siterank is not None
        sites = self._docgraph.sites()
        result = compose_ranking(self._docgraph, sites,
                                 self._siterank, dict(self._local),
                                 method="layered-incremental")
        if self._segments is not None and self._segment_site_state is not None:
            site_order, site_matrix = self._segment_site_state
            position = {site: index for index, site in enumerate(site_order)}
            columns = [self._local_columns[site].columns for site in sites]
            result.segments = self._segments.names
            result.segment_columns = weight_segment_columns(
                np.concatenate(columns, axis=0),
                site_matrix[[position[site] for site in sites]],
                [block.shape[0] for block in columns])
        return result

    @property
    def segments(self) -> Tuple[str, ...]:
        """Personalisation segment names the ranker maintains (``()`` when off)."""
        return self._segments.names if self._segments is not None else ()

    @property
    def siterank(self) -> SiteRankResult:
        """The cached SiteRank."""
        assert self._siterank is not None
        return self._siterank

    def local(self, site: str) -> LocalDocRank:
        """The cached local DocRank of one site."""
        if site not in self._local:
            raise GraphStructureError(f"unknown site {site!r}")
        return self._local[site]

    def segment_shard_columns(self, site: str) -> Optional[np.ndarray]:
        """One site's composed per-segment score columns (``None`` when off).

        ``local_columns · site_weights`` — the site's slice of
        :attr:`~repro.web.pipeline.WebRankingResult.segment_columns`, row
        aligned with :meth:`local`'s ``doc_ids``, before the global
        per-column renormalisation (which only absorbs float drift: every
        composed column already sums to one by construction).  The serving
        layer rebuilds one shard's segment scores from this without
        touching any other site.
        """
        if self._segments is None or self._segment_site_state is None:
            return None
        site_order, site_matrix = self._segment_site_state
        if site not in self._local_columns or site not in site_order:
            raise GraphStructureError(f"unknown site {site!r}")
        weights = site_matrix[site_order.index(site)]
        return self._local_columns[site].columns * weights[None, :]

    # ------------------------------------------------------------------ #
    # Personalisation segment maintenance (fused multi-vector tasks)
    # ------------------------------------------------------------------ #
    def _sitegraph(self) -> SiteGraph:
        """The current SiteGraph (step 2), patched forward from the last.

        What the graph gained since it was last read is folded in as a
        new value: a new site is one appended row and column, a new
        document one size bump, and the links between two sites (any
        link, with ``include_site_self_links``) one count matrix added to
        the adjacency — the arrays
        :func:`~repro.web.sitegraph.aggregate_sitegraph` builds from every
        edge, since integer counts sum exactly in any order.
        """
        docgraph, include_self = self._docgraph, self._include_site_self_links
        sitegraph, (n_documents, n_links) = self._site_graph
        registry = docgraph.registry
        doc_site = registry.doc_site
        pairs = [(doc_site[source], doc_site[target]) for source, target in
                 zip(*(ids.tolist() for ids in docgraph.edge_arrays(n_links)))]
        pairs = [pair for pair in pairs if include_self or pair[0] != pair[1]]
        if pairs or n_documents < docgraph.n_documents:
            adjacency = sitegraph.adjacency
            grown = docgraph.n_sites - len(sitegraph.sites)
            sizes = sitegraph.site_sizes + [0] * grown
            if grown:
                adjacency = sp.csr_matrix(
                    (adjacency.data, adjacency.indices,
                     np.pad(adjacency.indptr, (0, grown), mode="edge")),
                    shape=(len(sizes),) * 2)
                adjacency.has_canonical_format = True
            for doc_id in range(n_documents, docgraph.n_documents):
                sizes[doc_site[doc_id]] += 1
            if pairs:
                adjacency = adjacency + coo_from_edges(pairs, len(sizes))
                adjacency.has_canonical_format = True
            sitegraph = SiteGraph(sites=list(registry.sites),
                                  adjacency=adjacency, site_sizes=sizes,
                                  include_self_links=include_self)
        self._site_graph = (sitegraph, (docgraph.n_documents,
                                        docgraph.n_links))
        return sitegraph

    def _store_segments(self, sites: Sequence[str], doc_ids: Sequence[int],
                        offsets: np.ndarray, solved: Tuple, *,
                        sitegraph: Optional[SiteGraph]) -> int:
        """Fold a segment step's ``(values, iterations, tail)`` into caches.

        *sites*' rows are cut at *offsets*; returns the iterations spent.
        """
        values, iterations, tail = solved
        columns = values if values.ndim == 2 else values[:, None]
        bounds = offsets.tolist()
        for position, site in enumerate(sites):
            low, high = bounds[position], bounds[position + 1]
            self._local_columns[site] = SiteColumns(
                site=site, doc_ids=list(doc_ids[low:high]),
                columns=columns[low:high],
                iterations=int(iterations[position]))
        total = int(iterations.sum())
        if tail is not None:
            assert sitegraph is not None
            site_values, site_iterations = tail
            n_sites = len(sitegraph.sites)
            # A block solved as one column carries it for every segment.
            self._segment_site_state = (
                tuple(sitegraph.sites),
                np.broadcast_to(site_values.reshape(n_sites, -1),
                                (n_sites, self._segments.n_segments)).copy())
            total += site_iterations
        return total

    def _rebuild_segments(self) -> int:
        """Re-solve every site's segment columns (cold path, one batch)."""
        from ..engine.plan import solve_segment_layout

        sitegraph = self._sitegraph()
        self._segments = build_segment_preferences(
            self._docgraph, sitegraph, self._personalization)
        self._local_columns = {}
        self._segment_site_state = None
        blocks = self._docgraph.site_blocks()
        return self._store_segments(
            sitegraph.sites, blocks.doc_ids, blocks.offsets,
            solve_segment_layout(
                self._docgraph, sitegraph, self._segments, self._damping,
                site_damping=self._site_damping, executor=self._executor,
                **self._solver),
            sitegraph=sitegraph)
