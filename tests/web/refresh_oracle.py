"""The per-site incremental refresh the layout steps replaced.

Before the incremental ranker scheduled its refreshes off
:meth:`repro.web.docgraph.DocGraph.site_blocks` (``layout_step``), a
refresh built one ``LocalRankTask`` per changed site (``site_tasks_for``)
and one K-column task per changed site plus the ``SITERANK_BLOCK``
pseudo-site (``segment_tasks_for``), regrouped both lists into fused
batches (``batch_site_tasks``), ran them with the SiteRank task in front
(``execute_tasks``), keyed the results by site
(``collect_site_results``) and folded them into the caches one site at a
time (``_store_segment_results``, through ``ensure_site_columns``).  The
segment rebuild ran the same chain over every site
(``execute_site_tasks``) and ``ranking()`` weighted the segment columns
site by site.

:class:`OracleRanker` keeps that ranker: ``refresh``,
``_rebuild_segments``, ``_store_segment_results``, ``ranking()`` and
``segment_shard_columns`` are copied unchanged apart from the fuse
schedule's edges becoming parameters (*max_docs*, *target_docs*) and the
full rebuild running the frozen fit chain of ``tests/engine/fit_oracle.py``
(whose ``site_tasks_for``, ``batch_site_tasks``, ``collect_site_results``,
``ensure_site_columns`` and ``compose_ranking`` it reuses).  It is the
bitwise oracle of ``test_refresh_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from fit_oracle import (
    batch_site_tasks,
    collect_site_results,
    compose_ranking,
    ensure_site_columns,
    oracle_fit,
    site_tasks_for,
)
from repro.engine.plan import LocalRankTask, SiteRankTask
from repro.engine.warm import WarmSource
from repro.exceptions import GraphStructureError
from repro.web.docgraph import DocGraph
from repro.web.docrank import LocalDocRank, SiteColumns
from repro.web.incremental import UpdateReport
from repro.web.pipeline import (
    SITERANK_BLOCK,
    SegmentPreferences,
    WebRankingResult,
    build_segment_preferences,
)
from repro.web.sitegraph import SiteGraph, aggregate_sitegraph
from repro.web.siterank import SiteRankResult


def _previous(cache: Mapping, sites: Iterable[str], values: str) -> Dict:
    """Cached factors of *sites* as a warm source's ``(ids, values)`` pairs."""
    return {site: (cache[site].doc_ids, getattr(cache[site], values))
            for site in sites if site in cache}


def siterank_task_for(sitegraph: SiteGraph, damping: float, *, tol: float,
                      max_iter: int,
                      warm: Optional[WarmSource] = None) -> SiteRankTask:
    """Build the step-4 task of a SiteGraph, seeded from *warm*."""
    start = (warm.siterank_start(sitegraph.sites) if warm is not None
             else None)
    return SiteRankTask(sitegraph=sitegraph, damping=damping,
                        preference=None, tol=tol, max_iter=max_iter,
                        start=start)


def segment_tasks_for(source, sitegraph: SiteGraph,
                      segments: SegmentPreferences, damping: float, *,
                      site_damping: Optional[float] = None,
                      sites: Optional[Sequence[str]] = None,
                      siterank: bool = True, tol: float, max_iter: int,
                      warm: Optional[WarmSource] = None
                      ) -> List[LocalRankTask]:
    """The K-column site tasks, then the SiteRank pseudo-site."""
    n_vectors = segments.n_segments
    tasks = site_tasks_for(
        source, damping, sites=sitegraph.sites if sites is None else sites,
        preferences=segments.document_columns, tol=tol, max_iter=max_iter,
        warm=warm, n_vectors=n_vectors)
    if siterank:
        start = (warm.siterank_start(sitegraph.sites) if warm is not None
                 else None)
        tasks.append(LocalRankTask(
            site=SITERANK_BLOCK, adjacency=sitegraph.adjacency,
            doc_ids=tuple(range(len(sitegraph.sites))),
            damping=damping if site_damping is None else site_damping,
            preference=segments.site_columns, tol=tol, max_iter=max_iter,
            start=start, n_vectors=n_vectors))
    return tasks


def execute_tasks(tasks: Sequence) -> list:
    """Run a batch of tasks serially, results aligned with *tasks*."""
    return [task.run() for task in tasks]


class OracleRanker:
    """The incremental ranker as it refreshed through per-site tasks."""

    def __init__(self, docgraph: DocGraph, damping: float, *,
                 site_damping: Optional[float] = None, tol: float,
                 max_iter: int, max_docs: int, target_docs: int,
                 personalization: Optional[Mapping] = None) -> None:
        self._docgraph = docgraph
        self._damping = damping
        self._site_damping = site_damping if site_damping is not None else damping
        self._include_site_self_links = False
        self._solver = {"tol": tol, "max_iter": max_iter}
        self._schedule = {"max_docs": max_docs, "target_docs": target_docs}
        self._local: Dict[str, LocalDocRank] = {}
        self._siterank: Optional[SiteRankResult] = None
        self._personalization = (dict(personalization) if personalization
                                 else None)
        self._segments: Optional[SegmentPreferences] = None
        self._local_columns: Dict[str, SiteColumns] = {}
        self._segment_site_state: Optional[
            Tuple[Tuple[str, ...], np.ndarray]] = None
        self.full_rebuild()

    def full_rebuild(self) -> UpdateReport:
        """A cold fit through the frozen per-site chain, then the segments."""
        fitted = oracle_fit(self._docgraph, self._damping,
                            site_damping=self._site_damping, **self._solver,
                            **self._schedule)
        self._siterank = fitted.siterank
        self._local = dict(fitted.local_docranks)
        segment_iterations = (self._rebuild_segments()
                              if self._personalization else 0)
        return UpdateReport(
            recomputed_sites=list(self._local),
            siterank_recomputed=True,
            local_iterations=sum(rank.iterations
                                 for rank in self._local.values()),
            siterank_iterations=self._siterank.iterations,
            documents_recomputed=self._docgraph.n_documents,
            documents_total=self._docgraph.n_documents,
            segment_iterations=segment_iterations,
        )

    def refresh(self, changed_sites: Iterable[str], *,
                intersite_changed: bool) -> UpdateReport:
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
            self._segments = build_segment_preferences(
                self._docgraph, sitegraph, self._personalization)

        warm = WarmSource(_previous(self._local, ordered, "scores"),
                          (self._siterank.sites, self._siterank.scores))
        site_tasks = site_tasks_for(
            self._docgraph, self._damping, sites=ordered, warm=warm,
            **self._solver)
        segment_tasks: List = []
        if self._segments is not None:
            segment_tasks = segment_tasks_for(
                self._docgraph, sitegraph, self._segments, self._damping,
                site_damping=self._site_damping, sites=ordered,
                siterank=siterank_recomputed, warm=WarmSource(
                    _previous(self._local_columns, ordered, "columns"),
                    self._segment_site_state), **self._solver)
        site_payload = batch_site_tasks(site_tasks, **self._schedule)
        segment_payload = batch_site_tasks(segment_tasks, **self._schedule)
        tasks = [*site_payload, *segment_payload]
        if siterank_recomputed:
            tasks.insert(0, siterank_task_for(
                sitegraph, self._site_damping, warm=warm, **self._solver))
        results = execute_tasks(tasks)

        siterank_iterations = 0
        if siterank_recomputed:
            self._siterank = results.pop(0)
            siterank_iterations = self._siterank.iterations

        by_site = collect_site_results(site_payload,
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
                collect_site_results(segment_payload,
                                     results[len(site_payload):]),
                sitegraph=sitegraph)

        return UpdateReport(
            recomputed_sites=ordered,
            siterank_recomputed=siterank_recomputed,
            local_iterations=local_iterations,
            siterank_iterations=siterank_iterations,
            documents_recomputed=documents_recomputed,
            documents_total=self._docgraph.n_documents,
            segment_iterations=segment_iterations,
        )

    def add_link(self, source_url: str, target_url: str) -> UpdateReport:
        source_id, target_id = self._docgraph.add_link(source_url, target_url)
        source_site = self._docgraph.site_of_document(source_id)
        target_site = self._docgraph.site_of_document(target_id)
        if source_site == target_site:
            return self.refresh([source_site], intersite_changed=False)
        changed = [site for site in (source_site, target_site)
                   if site not in self._local
                   or len(self._docgraph.documents_of_site(site))
                   != self._local[site].n_documents]
        return self.refresh(changed, intersite_changed=True)

    def add_document(self, url: str) -> UpdateReport:
        doc_id = self._docgraph.add_document(url)
        owning_site = self._docgraph.site_of_document(doc_id)
        new_site = owning_site not in self._local
        return self.refresh([owning_site], intersite_changed=new_site)

    def ranking(self) -> WebRankingResult:
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

    def segment_shard_columns(self, site: str) -> Optional[np.ndarray]:
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

    def _sitegraph(self) -> SiteGraph:
        return aggregate_sitegraph(
            self._docgraph,
            include_self_links=self._include_site_self_links)

    def _store_segment_results(self, by_site: Dict[str, SiteColumns], *,
                               sitegraph: Optional[SiteGraph]) -> int:
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
        sitegraph = self._sitegraph()
        self._segments = build_segment_preferences(
            self._docgraph, sitegraph, self._personalization)
        self._local_columns = {}
        self._segment_site_state = None
        tasks = segment_tasks_for(
            self._docgraph, sitegraph, self._segments, self._damping,
            site_damping=self._site_damping, **self._solver)
        # execute_site_tasks
        payload = batch_site_tasks(tasks, **self._schedule)
        by_site = collect_site_results(payload, execute_tasks(payload))
        results = [by_site[task.site] for task in tasks]
        return self._store_segment_results(
            {task.site: result for task, result in zip(tasks, results)},
            sitegraph=sitegraph)
