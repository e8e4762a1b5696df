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

The ranker builds no engine task itself: a refresh asks the builders of
:mod:`repro.engine.plan` for the changed sites' tasks, handing them the
DocGraph as the block source and its own cached factors — exactly the
``(ids, values)`` pairs a :class:`~repro.engine.warm.WarmSource` aligns —
as the warm source, so every power iteration resumes from the site's
previously converged vector (new documents start from the uniform share).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from ..exceptions import GraphStructureError
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..markov.irreducibility import DEFAULT_DAMPING
from .docgraph import DocGraph
from .docrank import LocalDocRank, SiteColumns
from .pipeline import (
    SITERANK_BLOCK,
    SegmentPreferences,
    WebRankingResult,
    build_segment_preferences,
    compose_ranking,
    ensure_site_columns,
)
from .sitegraph import SiteGraph, aggregate_sitegraph
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
                 batch_sites: bool = True,
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
        #: Whether refresh batches (and the initial build) fuse small sites
        #: into block-diagonal batched tasks (repro.linalg.block_solver).
        self._batch_sites = bool(batch_sites)
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
            batch_sites=self._batch_sites, **self._solver)
        execution = plan.execute(executor=self._executor)
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

        All changed sites (plus, when needed, the SiteRank) are submitted
        to the engine as *one* batch, so a multi-site change is repaired
        concurrently on parallel executors (with the matrices riding the
        engine's shared-memory arena on a process backend); every power
        iteration is warm-started from the site's previously converged
        vector, which makes refresh iteration counts drop by an order of
        magnitude (asserted by the tests and benchmark E14).

        Parameters
        ----------
        changed_sites:
            Sites whose *internal* link structure (or document set) changed.
        intersite_changed:
            Whether any link between two different sites was added or
            removed (requires a SiteRank recomputation).
        """
        from ..engine import plan
        from ..engine.warm import WarmSource

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
        site_tasks = plan.site_tasks_for(
            self._docgraph, self._damping, sites=ordered, warm=warm,
            **self._solver)
        segment_tasks: List = []
        if self._segments is not None:
            segment_tasks = plan.segment_tasks_for(
                self._docgraph, sitegraph, self._segments, self._damping,
                site_damping=self._site_damping, sites=ordered,
                siterank=siterank_recomputed, warm=WarmSource(
                    _previous(self._local_columns, ordered, "columns"),
                    self._segment_site_state), **self._solver)
        # The changed-site set rides the same batched path as a full plan:
        # small sites fuse into block-diagonal tasks, large ones keep
        # dedicated tasks a parallel backend can overlap.
        site_payload, segment_payload = [
            plan.batch_site_tasks(batch) if self._batch_sites else batch
            for batch in (site_tasks, segment_tasks)]
        tasks = [*site_payload, *segment_payload]
        if siterank_recomputed:
            # Prepend so the site-level task overlaps the per-site work on
            # parallel backends (mirroring RankingPlan.execute).
            tasks.insert(0, plan.siterank_task_for(
                sitegraph, self._site_damping, warm=warm, **self._solver))
        results, _wall_seconds = plan.execute_tasks(tasks,
                                                    executor=self._executor)

        siterank_iterations = 0
        if siterank_recomputed:
            self._siterank = results.pop(0)
            siterank_iterations = self._siterank.iterations

        by_site = plan.collect_site_results(site_payload,
                                            results[:len(site_payload)])
        local_iterations = 0
        documents_recomputed = 0
        for site in ordered:
            rank = by_site[site]
            self._local[site] = rank
            local_iterations += rank.iterations
            documents_recomputed += rank.n_documents

        segment_iterations = 0
        if self._segments is not None:
            segment_iterations = self._store_segment_results(
                plan.collect_site_results(segment_payload,
                                          results[len(site_payload):]),
                sitegraph=sitegraph)

        return self._notify(UpdateReport(
            recomputed_sites=ordered,
            siterank_recomputed=siterank_recomputed,
            local_iterations=local_iterations,
            siterank_iterations=siterank_iterations,
            documents_recomputed=documents_recomputed,
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
            blocks = [self._local_columns[site].columns
                      * site_matrix[position[site]][None, :]
                      for site in sites]
            matrix = np.concatenate(blocks, axis=0)
            totals = matrix.sum(axis=0)
            result.segments = self._segments.names
            result.segment_columns = matrix / np.where(totals > 0.0,
                                                       totals, 1.0)
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
        if site not in self._local_columns:
            raise GraphStructureError(f"unknown site {site!r}")
        try:
            weights = site_matrix[site_order.index(site)]
        except ValueError:
            raise GraphStructureError(f"unknown site {site!r}") from None
        return self._local_columns[site].columns * weights[None, :]

    # ------------------------------------------------------------------ #
    # Personalisation segment maintenance (fused multi-vector tasks)
    # ------------------------------------------------------------------ #
    def _sitegraph(self) -> SiteGraph:
        """Aggregate the current SiteGraph (step 2, cheap and serial)."""
        return aggregate_sitegraph(
            self._docgraph,
            include_self_links=self._include_site_self_links)

    def _store_segment_results(self, by_site: Dict[str, SiteColumns], *,
                               sitegraph: Optional[SiteGraph]) -> int:
        """Fold one batch's segment results back into the caches."""
        iterations = 0
        for site, result in by_site.items():
            solved = ensure_site_columns(result)
            if site == SITERANK_BLOCK:
                assert sitegraph is not None
                self._segment_site_state = (tuple(sitegraph.sites),
                                            solved.columns.copy())
            else:
                self._local_columns[site] = solved
            iterations += solved.iterations
        return iterations

    def _rebuild_segments(self) -> int:
        """Re-solve every site's segment columns (cold path, one batch)."""
        from ..engine.plan import execute_site_tasks, segment_tasks_for

        sitegraph = self._sitegraph()
        self._segments = build_segment_preferences(
            self._docgraph, sitegraph, self._personalization)
        self._local_columns = {}
        self._segment_site_state = None
        tasks = segment_tasks_for(
            self._docgraph, sitegraph, self._segments, self._damping,
            site_damping=self._site_damping, **self._solver)
        results = execute_site_tasks(tasks, executor=self._executor,
                                     batch_sites=self._batch_sites)
        return self._store_segment_results(
            {task.site: result for task, result in zip(tasks, results)},
            sitegraph=sitegraph)
