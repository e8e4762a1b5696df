"""The per-site fit path the layout-scheduled plan replaced.

Before the plan scheduled step 3 straight off
:meth:`repro.web.docgraph.DocGraph.site_blocks`, a default fit built one
``LocalRankTask`` (a lazy ``SiteBlockRef`` plus a tuple of ids) per site
(``site_tasks_for``), regrouped them into fused batches
(``batch_site_tasks`` -> ``BatchedSiteTask.from_tasks``), unpacked every
fused batch into one ``LocalDocRank`` per site (``BatchedSiteTask.run``),
keyed them by site (``collect_site_results``) and composed the ranking
site by site (``compose_ranking``); the personalisation segment pass
built K-column tasks the same way (``solve_segment_columns``).  That
chain lives on here, copied
unchanged apart from being lifted out of ``RankingPlan`` and
``_layered_docrank`` into :func:`oracle_fit`, trimmed to the arguments a
fit (or, for ``site_tasks_for``'s ``sites``, the incremental refresh of
``tests/web/refresh_oracle.py``) passes and stripped of its metrics, as
the bitwise oracle of
``test_fit_oracle.py``: a ``Ranker.fit`` must return the same floats,
ids, URLs and iteration counts, the same SiteRank and the same per-site
local vectors.

The fused/dedicated split is a parameter here (*max_docs*,
*target_docs*), so the test can drive the schedule's edges on small webs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._validation import normalize_distribution
from repro.engine.plan import LocalRankTask, SiteRankTask
from repro.engine.warm import WarmSource, WarmStartState
from repro.exceptions import ValidationError
from repro.linalg.block_solver import (
    PackedBlocks,
    pack_block_vectors,
    pack_blocks,
    solve_blocks,
)
from repro.linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from repro.markov.irreducibility import DEFAULT_DAMPING
from repro.web.docgraph import DocGraph, SiteBlockRef
from repro.web.docrank import LocalDocRank, SiteColumns
from repro.web.pipeline import (
    SITERANK_BLOCK,
    WebRankingResult,
    build_segment_preferences,
)
from repro.web.sitegraph import SiteGraph, aggregate_sitegraph
from repro.web.siterank import SiteRankResult


@dataclass(frozen=True)
class BatchedSiteTask:
    """The fused batch as it was: unpacked per site by :meth:`run`."""

    sites: Tuple[str, ...]
    adjacency: object
    offsets: np.ndarray
    doc_ids: np.ndarray
    damping: float = DEFAULT_DAMPING
    preference: object = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    start: object = None
    n_vectors: int = 1

    def run(self):
        """Solve every fused site; results in :attr:`sites` order."""
        offsets = np.asarray(self.offsets, dtype=np.int64)
        doc_ids = np.asarray(self.doc_ids, dtype=np.int64)
        packed = PackedBlocks(
            matrix=self.adjacency, offsets=offsets,
            start=self.start, preference=self.preference)
        solved = solve_blocks(packed, self.damping, tol=self.tol,
                              max_iter=self.max_iter)
        results = []
        all_ids, bounds = doc_ids.tolist(), offsets.tolist()
        vectors = solved.vectors  # views into one packed output vector
        # A K-column site resided in the batch as long as its slowest column.
        iterations = (solved.iterations if solved.iterations.ndim == 1
                      else solved.iterations.max(axis=1)).tolist()
        for index, site in enumerate(self.sites):
            ids = all_ids[bounds[index]:bounds[index + 1]]
            if self.n_vectors > 1:
                columns = vectors[index]
                if columns.ndim == 1:
                    # All-uniform preference degenerated to one column;
                    # every segment shares it.
                    columns = np.broadcast_to(
                        columns[:, None],
                        (columns.size, self.n_vectors)).copy()
                results.append(SiteColumns(
                    site=site, doc_ids=ids, columns=columns,
                    iterations=iterations[index]))
            else:
                results.append(LocalDocRank(
                    site=site, doc_ids=ids,
                    scores=vectors[index],
                    iterations=iterations[index]))
        return results

    @classmethod
    def from_tasks(cls, tasks: Sequence[LocalRankTask]) -> "BatchedSiteTask":
        """Fuse per-site tasks (which must share damping/tol/max_iter/K)."""
        if not tasks:
            raise ValidationError("cannot batch zero site tasks")
        head = tasks[0]
        for task in tasks[1:]:
            if (task.damping, task.tol, task.max_iter, task.n_vectors) != \
                    (head.damping, head.tol, head.max_iter, head.n_vectors):
                raise ValidationError(
                    "batched site tasks must share damping, tol, max_iter "
                    "and n_vectors")
        refs = [task.adjacency for task in tasks]
        if all(isinstance(ref, SiteBlockRef) and ref.blocks is refs[0].blocks
               for ref in refs):
            matrix, offsets, doc_ids = refs[0].blocks.packed(
                [ref.index for ref in refs])
            sizes = np.diff(offsets)
            start = pack_block_vectors([task.start for task in tasks],
                                       sizes, name="start")
            preference = pack_block_vectors(
                [task.preference for task in tasks], sizes,
                name="preference")
        else:
            doc_ids = np.concatenate([
                np.asarray(task.doc_ids, dtype=np.int64) for task in tasks])
            packed = pack_blocks([(task.adjacency.tocsr(), task.start,
                                   task.preference) for task in tasks])
            matrix, offsets = packed.matrix, packed.offsets
            start, preference = packed.start, packed.preference
        return cls(sites=tuple(task.site for task in tasks),
                   adjacency=matrix, offsets=offsets,
                   doc_ids=doc_ids, damping=head.damping,
                   preference=preference, tol=head.tol,
                   max_iter=head.max_iter, start=start,
                   n_vectors=head.n_vectors)


def fuse_schedule(sizes: Sequence[int], *, max_docs: int, target_docs: int
                  ) -> Tuple[List[List[int]], List[int]]:
    """The one fuse/flush rule, from document counts alone."""
    chunks: List[List[int]] = []
    dedicated: List[int] = []
    chunk: List[int] = []
    chunk_docs = 0
    for position, size in enumerate(sizes):
        if size > max_docs:
            dedicated.append(position)
            continue
        if chunk and chunk_docs + size > target_docs:
            chunks.append(chunk)
            chunk, chunk_docs = [], 0
        chunk.append(position)
        chunk_docs += size
    if len(chunk) == 1:
        dedicated.append(chunk[0])
    elif chunk:
        chunks.append(chunk)
    return chunks, dedicated


def batch_site_tasks(tasks: Sequence[LocalRankTask], *, max_docs: int,
                     target_docs: int) -> list:
    """Group small-site tasks into fused :class:`BatchedSiteTask` payloads."""
    passthrough: list = []
    groups: "OrderedDict[tuple, List[LocalRankTask]]" = OrderedDict()
    for task in tasks:
        key = (task.damping, task.tol, task.max_iter, task.n_vectors)
        groups.setdefault(key, []).append(task)

    fused: list = []
    for grouped in groups.values():
        chunks, dedicated = fuse_schedule(
            [task.n_documents for task in grouped],
            max_docs=max_docs, target_docs=target_docs)
        fused.extend(BatchedSiteTask.from_tasks([grouped[i] for i in chunk])
                     for chunk in chunks)
        passthrough.extend(grouped[i] for i in dedicated)
    return [*fused, *passthrough]


def collect_site_results(payload: Sequence, results: Sequence
                         ) -> Dict[str, LocalDocRank]:
    """Key a mixed fused/dedicated batch's results back by site."""
    by_site: Dict[str, LocalDocRank] = {}
    for task, result in zip(payload, results):
        if isinstance(task, BatchedSiteTask):
            for rank in result:
                by_site[rank.site] = rank
        else:
            by_site[task.site] = result
    return by_site


def site_tasks_for(source, damping: float = DEFAULT_DAMPING, *,
                   sites: Optional[Sequence[str]] = None,
                   preferences: Optional[Dict[str, np.ndarray]] = None,
                   tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER,
                   warm: Optional[WarmSource] = None,
                   n_vectors: int = 1) -> List[LocalRankTask]:
    """One task per site, its adjacency a lazy reference into the layout."""
    preferences = preferences or {}
    if sites is None:
        sites = source.sites()
    tasks = []
    for site in sites:
        adjacency, doc_ids = source.local_block(site)
        if isinstance(doc_ids, np.ndarray):
            doc_ids = doc_ids.tolist()
        start = warm.local_start(site, doc_ids) if warm is not None else None
        tasks.append(LocalRankTask(site=site, adjacency=adjacency,
                                   doc_ids=tuple(doc_ids), damping=damping,
                                   preference=preferences.get(site),
                                   tol=tol, max_iter=max_iter, start=start,
                                   n_vectors=n_vectors))
    return tasks


def ensure_site_columns(result) -> SiteColumns:
    """Adapt an engine result to column form."""
    if isinstance(result, SiteColumns):
        return result
    return SiteColumns(site=result.site, doc_ids=result.doc_ids,
                       columns=result.scores[:, None],
                       iterations=result.iterations)


def solve_segment_columns(docgraph: DocGraph, sitegraph: SiteGraph,
                          segments, damping: float, *, site_damping: float,
                          tol: float, max_iter: int, max_docs: int,
                          target_docs: int) -> Tuple[np.ndarray, int]:
    """The K segments' score columns from per-site K-column tasks."""
    n_vectors = segments.n_segments
    # segment_tasks_for: every site, then the SiteRank pseudo-site.
    tasks = site_tasks_for(docgraph, damping,
                           preferences=segments.document_columns, tol=tol,
                           max_iter=max_iter, n_vectors=n_vectors)
    tasks.append(LocalRankTask(
        site=SITERANK_BLOCK, adjacency=sitegraph.adjacency,
        doc_ids=tuple(range(len(sitegraph.sites))), damping=site_damping,
        preference=segments.site_columns, tol=tol, max_iter=max_iter,
        n_vectors=n_vectors))
    # execute_site_tasks
    payload = batch_site_tasks(tasks, max_docs=max_docs,
                               target_docs=target_docs)
    by_site = collect_site_results(payload, [task.run() for task in payload])

    siterank_block = ensure_site_columns(by_site[SITERANK_BLOCK])
    site_scores = siterank_block.columns  # (n_sites, K)
    blocks = []
    iterations = siterank_block.iterations
    for index, site in enumerate(sitegraph.sites):
        solved = ensure_site_columns(by_site[site])
        blocks.append(solved.columns * site_scores[index][None, :])
        iterations += solved.iterations
    matrix = np.concatenate(blocks, axis=0)
    totals = matrix.sum(axis=0)
    matrix = matrix / np.where(totals > 0.0, totals, 1.0)
    return matrix, int(iterations)


def compose_ranking(docgraph: DocGraph, sites: List[str],
                    site_result: SiteRankResult,
                    local: Dict[str, LocalDocRank], *,
                    method: str, iterations: int = 0) -> WebRankingResult:
    """Step 5: the ``π_S(s) · π_D(s)`` weighted concatenation."""
    ranks = [local[site] for site in sites]
    doc_ids = list(chain.from_iterable(rank.doc_ids for rank in ranks))
    site_scores = np.array([site_result.score_of(site) for site in sites])
    weighted = (np.concatenate([rank.scores for rank in ranks])
                * np.repeat(site_scores, [rank.scores.size for rank in ranks]))
    scores = normalize_distribution(weighted, name="layered DocRank")
    all_urls = docgraph.registry.urls
    urls = [all_urls[doc_id] for doc_id in doc_ids]
    return WebRankingResult(doc_ids=doc_ids, urls=urls, scores=scores,
                            method=method, siterank=site_result,
                            local_docranks=local, iterations=iterations)


def oracle_fit(docgraph: DocGraph, damping: float = DEFAULT_DAMPING, *,
               max_docs: int, target_docs: int,
               site_damping: Optional[float] = None,
               site_preference: Optional[np.ndarray] = None,
               document_preferences: Optional[Dict[str, np.ndarray]] = None,
               include_site_self_links: bool = False,
               tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
               warm: Optional[WarmStartState] = None,
               personalization=None) -> WebRankingResult:
    """``_layered_docrank`` over the per-site plan, serially."""
    if site_damping is None:
        site_damping = damping
    # RankingPlan.from_docgraph
    sitegraph: SiteGraph = aggregate_sitegraph(
        docgraph, include_self_links=include_site_self_links)
    tasks = site_tasks_for(docgraph, damping,
                           preferences=document_preferences,
                           tol=tol, max_iter=max_iter)
    siterank_task = SiteRankTask(sitegraph=sitegraph, damping=site_damping,
                                 preference=site_preference, tol=tol,
                                 max_iter=max_iter)
    # RankingPlan.execute (with_warm_state, then the serial batch)
    if warm is not None:
        tasks = [replace(task,
                         start=warm.local_start(task.site, task.doc_ids))
                 for task in tasks]
        siterank_task = replace(
            siterank_task, start=warm.siterank_start(sitegraph.sites))
    site_payload = batch_site_tasks(tasks, max_docs=max_docs,
                                    target_docs=target_docs)
    results = [task.run() for task in [siterank_task, *site_payload]]
    site_result: SiteRankResult = results[0]
    by_site = collect_site_results(site_payload, results[1:])
    local = {task.site: by_site[task.site] for task in tasks}
    if warm is not None:
        for site, rank in local.items():
            warm.record_local(site, rank.doc_ids, rank.scores)
        warm.record_siterank(site_result.sites, site_result.scores)
    # Step 5 and the segment pass
    method = "layered"
    if site_preference is not None or document_preferences:
        method = "layered-personalized"
    result = compose_ranking(
        docgraph, sitegraph.sites, site_result, local, method=method,
        iterations=site_result.iterations + sum(
            rank.iterations for rank in local.values()))
    if personalization:
        segments = build_segment_preferences(docgraph, sitegraph,
                                             personalization)
        columns, segment_iterations = solve_segment_columns(
            docgraph, sitegraph, segments, damping,
            site_damping=site_damping, tol=tol, max_iter=max_iter,
            max_docs=max_docs, target_docs=target_docs)
        result.segments = segments.names
        result.segment_columns = columns
        result.iterations += segment_iterations
    return result
