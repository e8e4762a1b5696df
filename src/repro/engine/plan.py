"""The :class:`RankingPlan`: the layered method as an explicit task graph.

The 5-step layered method (Section 3.2 of the paper) has a fixed dependency
structure that every compute layer of this package used to re-implement as
its own serial loop:

1. *input* — the global DocGraph ``G_D``;
2. *aggregate* — build the SiteGraph ``G_S`` (cheap, serial);
3. *local DocRanks* — one task per site, mutually independent;
4. *SiteRank* — one task, independent of every step-3 task (this is the
   decisive difference from BlockRank, whose aggregation consumes the
   local values);
5. *compose* — the ``π_S(s) · π_D(s)`` weighting at the barrier where
   steps 3 and 4 join.

A :class:`RankingPlan` materialises steps 3 and 4 as picklable task objects
(:class:`LocalRankTask`, :class:`SiteRankTask`) and executes them through
any :class:`~repro.engine.executor.Executor` in a single batch — the
barrier of the batch *is* the step-5 synchronisation point.  Because the
tasks are value-only, the same plan is the unit of scheduling for the
centralized pipeline, the incremental ranker's refresh batches, the
distributed simulator's peers, and the scaling benchmarks.  How a task's
values reach a worker process is :mod:`repro.engine.arena`'s business,
never the task's.

Step 3's inputs are the diagonal blocks of the DocGraph numbered site by
site, and the plan treats them as exactly that: a per-site task holds a
lazy reference into the graph's one site-major layout
(:meth:`repro.web.docgraph.DocGraph.site_blocks`), a fused batch is a
single row-range gather of that layout, and only a dedicated task ever
cuts its own matrix — no scipy object per site, no global adjacency.

This module is the only place that builds step-3 and step-4 tasks:
:func:`site_tasks_for`, :func:`siterank_task_for` and
:func:`segment_tasks_for` serve the plan, the out-of-core runner, the
incremental ranker and the segment pass alike.  They read blocks from any
**block source** — an object with ``sites()`` and ``local_block(site) ->
(adjacency, doc_ids)``: :class:`~repro.web.docgraph.DocGraph` (lazy
references into RAM) or :class:`~repro.io.diskgraph.DiskGraph` (fresh
memmaps) — and start vectors from any **warm source**
(:class:`~repro.engine.warm.WarmSource`), so power iterations resume from
the previously converged vector instead of restarting from uniform.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..exceptions import GraphStructureError, ValidationError
from ..linalg.block_solver import (
    PackedBlocks,
    pack_block_vectors,
    pack_blocks,
    solve_blocks,
)
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..markov.irreducibility import DEFAULT_DAMPING
from ..web.docgraph import DocGraph, SiteBlockRef
from ..web.docrank import (
    LocalDocRank,
    SiteColumns,
    solve_local_columns,
    solve_local_docrank,
)
from ..web.pipeline import SITERANK_BLOCK, SegmentPreferences
from ..web.sitegraph import SiteGraph, aggregate_sitegraph
from ..web.siterank import SiteRankResult, siterank
from .executor import Executor, resolve_executor
from .warm import WarmSource, WarmStartState


@dataclass(frozen=True)
class LocalRankTask:
    """Step 3: one site's local DocRank as a self-contained unit of work.

    The task carries its local subgraph by value — never a DocGraph
    reference — so it is independent of any shared mutable state, the
    property that lets every backend schedule it freely.  ``adjacency`` is
    the CSR matrix itself or a :class:`~repro.web.docgraph.SiteBlockRef`
    (the block of an immutable site-major snapshot, cut when the task runs
    and pickled as its own slice).
    """

    site: str
    adjacency: object  #: local link matrix: CSR or SiteBlockRef
    doc_ids: Tuple[int, ...]  #: global ids of the site's documents
    damping: float = DEFAULT_DAMPING
    preference: object = None  #: optional teleport vector (or K columns)
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    start: object = None  #: optional warm-start vector (or K columns)
    #: Preference columns carried per document.  ``1`` is the classic
    #: single-vector task; ``K > 1`` means ``preference``/``start`` hold an
    #: ``(n, K)`` matrix and the task yields a
    #: :class:`~repro.web.docrank.SiteColumns` instead of a LocalDocRank.
    n_vectors: int = 1

    @property
    def n_documents(self) -> int:
        """Number of documents the task ranks."""
        return len(self.doc_ids)

    @property
    def nnz(self) -> int:
        """Non-zeros of the local link matrix (cost-model input)."""
        return int(self.adjacency.nnz)

    def run(self):
        """Execute the task on the calling thread."""
        adjacency = self.adjacency.tocsr()
        if self.n_vectors > 1:
            preference = self.preference
            if preference is None:
                n = len(self.doc_ids)
                preference = np.full((n, self.n_vectors), 1.0 / n)
            return solve_local_columns(
                self.site, adjacency, self.doc_ids, preference,
                self.damping, tol=self.tol, max_iter=self.max_iter,
                start=self.start)
        return solve_local_docrank(
            self.site, adjacency, self.doc_ids, self.damping,
            preference=self.preference, tol=self.tol,
            max_iter=self.max_iter, start=self.start)


@dataclass(frozen=True)
class SiteRankTask:
    """Step 4: the SiteRank of the aggregated SiteGraph.

    Runs concurrently with every :class:`LocalRankTask` — the SiteGraph is
    built from link *counts* only, never from local rank values, which is
    exactly why the paper's method parallelises where BlockRank cannot.
    """

    sitegraph: SiteGraph
    damping: float = DEFAULT_DAMPING
    preference: object = None  #: optional teleport vector over the sites
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    start: object = None  #: optional warm-start vector over the sites

    def run(self) -> SiteRankResult:
        """Execute the task on the calling thread."""
        return siterank(self.sitegraph, self.damping,
                        preference=self.preference, tol=self.tol,
                        max_iter=self.max_iter, start=self.start)


#: Sites at or below this many documents ride a fused batched task by
#: default; larger sites keep their dedicated :class:`LocalRankTask` (their
#: linear algebra dominates, so fusing buys nothing and would serialise
#: work a pool could overlap).
BATCH_SITE_MAX_DOCS = 512

#: Target total documents per fused batch.  One giant batch would pin all
#: small-site work to a single task; chunking at this size keeps enough
#: independent fused tasks for the pooled backends to overlap while still
#: amortising the per-site interpreter overhead thousands of times over.
BATCH_TARGET_DOCS = 25_000


@dataclass(frozen=True)
class BatchedSiteTask:
    """Step 3 for *many small sites* as one fused unit of work.

    The constituent sites' local adjacencies are packed into a single
    block-diagonal CSR at construction (:meth:`from_tasks`)
    and solved by one fused power iteration with per-site convergence
    freezing (:func:`repro.linalg.block_solver.solve_blocks`) — thousands
    of Python-level solver loops become a handful of large SpMVs per
    sweep.  Like :class:`LocalRankTask` the payload is value-only and
    picklable, and it is one family of packed arrays (one CSR, one id
    vector, one offset vector, optional packed start/preference) rather
    than per-site buffers.
    """

    sites: Tuple[str, ...]
    adjacency: object  #: packed block-diagonal CSR
    offsets: np.ndarray  #: int64 block boundaries (len sites+1)
    doc_ids: np.ndarray  #: int64 concatenated global ids
    damping: float = DEFAULT_DAMPING
    preference: object = None  #: packed vector or (n, K) matrix, or None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    start: object = None  #: packed vector or (n, K) matrix, or None
    #: Preference columns per document; ``K > 1`` runs the fused SpMM
    #: solve and yields :class:`~repro.web.docrank.SiteColumns` per site.
    n_vectors: int = 1

    #: Marker the adaptive cost model keys on to re-price fused batches
    #: (duck-typed so :mod:`repro.engine.adaptive` needs no import).
    is_fused_batch = True

    @property
    def n_sites(self) -> int:
        """Number of fused sites."""
        return len(self.sites)

    @property
    def n_documents(self) -> int:
        """Total documents across the fused sites (cost-model input)."""
        return int(len(self.doc_ids))

    @property
    def nnz(self) -> int:
        """Non-zeros of the packed block-diagonal matrix."""
        return int(self.adjacency.nnz)

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
        """Fuse per-site tasks (which must share damping/tol/max_iter/K).

        Tasks whose adjacencies are references into one
        :class:`~repro.web.docgraph.SiteBlocks` pack with a single
        row-range gather of that layout; anything else (mmap'd disk
        blocks, the SiteRank pseudo-site riding a segment batch) is
        materialised and concatenated by
        :func:`~repro.linalg.block_solver.pack_blocks`.  Either way the
        packed buffers are copies.
        """
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
            with obs.span("plan.site_blocks.pack"):
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
        obs.inc("block_pack_builds_total")
        return cls(sites=tuple(task.site for task in tasks),
                   adjacency=matrix, offsets=offsets,
                   doc_ids=doc_ids, damping=head.damping,
                   preference=preference, tol=head.tol,
                   max_iter=head.max_iter, start=start,
                   n_vectors=head.n_vectors)


def fuse_schedule(sizes: Sequence[int], *, max_docs: int, target_docs: int
                  ) -> Tuple[List[List[int]], List[int]]:
    """The one fuse/flush rule, from document counts alone.

    Returns ``(chunks, dedicated)`` as positions into *sizes*: entries over
    *max_docs* are dedicated; the rest fuse in order, a chunk flushing
    whenever the next entry would take it past *target_docs*; a *trailing*
    chunk of one has nothing to amortise and is dedicated too (a
    mid-stream flush of one stays fused).  :func:`batch_site_tasks` and
    :func:`repro.engine.outofcore.plan_solve_units` both schedule with it,
    which is what keeps the out-of-core units equal to the in-memory ones.
    """
    if max_docs < 0 or target_docs < 1:
        raise ValidationError(
            "max_docs must be non-negative and target_docs positive")
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


def batch_site_tasks(tasks: Sequence[LocalRankTask], *,
                     max_docs: int = BATCH_SITE_MAX_DOCS,
                     target_docs: int = BATCH_TARGET_DOCS
                     ) -> List["RankTask"]:
    """Group small-site tasks into fused :class:`BatchedSiteTask` payloads.

    Tasks are grouped by their solver parameters and each group scheduled
    by :func:`fuse_schedule` (small sites fused, chunked at *target_docs*
    so pooled backends keep parallelism across batches); larger sites
    pass through untouched.  The returned list mixes fused and dedicated
    tasks; callers key results back by site, so ordering between the two
    kinds is irrelevant.
    """
    passthrough: List[RankTask] = []
    groups: "OrderedDict[tuple, List[LocalRankTask]]" = OrderedDict()
    for task in tasks:
        key = (task.damping, task.tol, task.max_iter, task.n_vectors)
        groups.setdefault(key, []).append(task)

    fused: List[RankTask] = []
    for grouped in groups.values():
        chunks, dedicated = fuse_schedule(
            [task.n_documents for task in grouped],
            max_docs=max_docs, target_docs=target_docs)
        fused.extend(BatchedSiteTask.from_tasks([grouped[i] for i in chunk])
                     for chunk in chunks)
        passthrough.extend(grouped[i] for i in dedicated)
    return [*fused, *passthrough]


#: Union of the engine's task types.
RankTask = Union[LocalRankTask, SiteRankTask, BatchedSiteTask]


def run_task(task: RankTask):
    """Execute one engine task (module-level so process pools can pickle it)."""
    return task.run()


def execute_tasks(tasks: Sequence[RankTask], *,
                  executor: Optional[Executor] = None,
                  n_jobs: Optional[int] = None) -> Tuple[list, float]:
    """Run a batch of tasks through an executor; a barrier with timing.

    Returns ``(results, wall_seconds)`` with results aligned to *tasks*.
    The measured wall-clock is what the scaling benchmarks and the
    distributed simulator report next to their modeled costs.
    """
    resolved, owned = resolve_executor(executor, n_jobs)
    started = time.perf_counter()
    try:
        results = resolved.map(run_task, list(tasks))
    finally:
        if owned:
            resolved.close()
    return results, time.perf_counter() - started


def site_tasks_for(source, damping: float = DEFAULT_DAMPING, *,
                   sites: Optional[Sequence[str]] = None,
                   preferences: Optional[Dict[str, np.ndarray]] = None,
                   tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER,
                   warm: Optional[WarmSource] = None,
                   n_vectors: int = 1) -> List[LocalRankTask]:
    """Build the step-3 task list for (a subset of) a block source's sites.

    Each task's adjacency is whatever ``source.local_block(site)`` hands
    out: a DocGraph's lazy reference into its one
    :meth:`~repro.web.docgraph.DocGraph.site_blocks` snapshot (no matrix is
    cut per site; later graph mutations do not reach the tasks) or a
    DiskGraph's memmap views, unmapped when the task is dropped.  *warm*
    seeds each task's start from the previously converged values; with
    ``n_vectors = K > 1`` preferences and starts are ``(n, K)`` matrices.
    """
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


def siterank_task_for(sitegraph: SiteGraph, damping: float = DEFAULT_DAMPING,
                      *, preference: Optional[np.ndarray] = None,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER,
                      warm: Optional[WarmSource] = None) -> SiteRankTask:
    """Build the step-4 task of a SiteGraph, seeded from *warm*."""
    start = (warm.siterank_start(sitegraph.sites) if warm is not None
             else None)
    return SiteRankTask(sitegraph=sitegraph, damping=damping,
                        preference=preference, tol=tol, max_iter=max_iter,
                        start=start)


def segment_tasks_for(source, sitegraph: SiteGraph,
                      segments: SegmentPreferences,
                      damping: float = DEFAULT_DAMPING, *,
                      site_damping: Optional[float] = None,
                      sites: Optional[Sequence[str]] = None,
                      siterank: bool = True,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER,
                      warm: Optional[WarmSource] = None
                      ) -> List[LocalRankTask]:
    """Build the K-column tasks of the personalisation segment pass.

    One K-column site task per entry of *sites* (default: all of the
    SiteGraph's) and, with *siterank*, the segment-level SiteRank as the
    :data:`~repro.web.pipeline.SITERANK_BLOCK` pseudo-site last: the
    SiteGraph adjacency is just one more K-column block for the fused
    solver.  *warm* must hold K-column values.
    """
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


def execute_site_tasks(tasks: Sequence[LocalRankTask], *,
                       executor: Optional[Executor] = None,
                       n_jobs: Optional[int] = None) -> List[LocalDocRank]:
    """Run step-3 tasks only (no SiteRank), preserving submission order.

    Small sites are fused into block-diagonal :class:`BatchedSiteTask`
    payloads before dispatch (:func:`batch_site_tasks`); the returned list
    is still aligned with *tasks*.
    """
    tasks = list(tasks)
    payload = batch_site_tasks(tasks)
    results, _seconds = execute_tasks(payload, executor=executor,
                                      n_jobs=n_jobs)
    by_site = collect_site_results(payload, results)
    return [by_site[task.site] for task in tasks]


def collect_site_results(payload: Sequence["RankTask"],
                         results: Sequence) -> Dict[str, LocalDocRank]:
    """Key a mixed fused/dedicated batch's results back by site."""
    by_site: Dict[str, LocalDocRank] = {}
    for task, result in zip(payload, results):
        if isinstance(task, BatchedSiteTask):
            for rank in result:
                by_site[rank.site] = rank
        else:
            by_site[task.site] = result
    return by_site


@dataclass
class PlanExecution:
    """Everything one :meth:`RankingPlan.execute` run produced.

    Attributes
    ----------
    local:
        Per-site local DocRanks, keyed by site, in plan (site) order.
    siterank:
        The SiteRank computed at step 4.
    wall_seconds:
        Measured wall-clock of the concurrent step-3/step-4 batch.
    executor_name:
        Backend that executed the batch (``"serial"``/``"threaded"``/…).
    n_tasks:
        Number of task payloads actually dispatched — fused
        :class:`BatchedSiteTask` payloads count once, so this is typically
        far below ``n_sites + 1``.
    """

    local: Dict[str, LocalDocRank]
    siterank: SiteRankResult
    wall_seconds: float
    executor_name: str
    n_tasks: int

    @property
    def total_iterations(self) -> int:
        """Power iterations summed over every task of the batch."""
        return self.siterank.iterations + sum(
            rank.iterations for rank in self.local.values())


class RankingPlan:
    """The layered method's step-3/4/5 dependency graph over one DocGraph.

    Construction performs the cheap serial steps (step 2's SiteGraph
    aggregation and the per-site subgraph extraction); :meth:`execute`
    dispatches the concurrent steps through an executor and returns at the
    step-5 barrier.  The plan itself is immutable once built, so one plan
    can be executed on several backends — the determinism-guard tests do
    exactly that and require bitwise-identical results.
    """

    def __init__(self, sitegraph: SiteGraph,
                 site_tasks: Sequence[LocalRankTask],
                 siterank_task: SiteRankTask) -> None:
        task_sites = [task.site for task in site_tasks]
        if sorted(task_sites) != sorted(sitegraph.sites):
            raise ValidationError(
                "site tasks must cover exactly the SiteGraph's sites")
        self.sitegraph = sitegraph
        self.site_tasks = list(site_tasks)
        self.siterank_task = siterank_task

    # ------------------------------------------------------------------ #
    @classmethod
    def from_docgraph(cls, docgraph: DocGraph,
                      damping: float = DEFAULT_DAMPING, *,
                      site_damping: Optional[float] = None,
                      site_preference: Optional[np.ndarray] = None,
                      document_preferences: Optional[Dict[str, np.ndarray]] = None,
                      include_site_self_links: bool = False,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER,
                      warm: Optional[WarmStartState] = None
                      ) -> "RankingPlan":
        """Build the plan for a DocGraph (steps 1–2 happen here, serially)."""
        if docgraph.n_documents == 0:
            raise GraphStructureError("cannot plan over an empty DocGraph")
        if site_damping is None:
            site_damping = damping
        with obs.span(obs.PHASE_PLAN_BUILD):
            sitegraph = aggregate_sitegraph(
                docgraph, include_self_links=include_site_self_links)
            tasks = site_tasks_for(docgraph, damping,
                                   preferences=document_preferences,
                                   tol=tol, max_iter=max_iter, warm=warm)
            siterank_task = siterank_task_for(
                sitegraph, site_damping, preference=site_preference,
                tol=tol, max_iter=max_iter, warm=warm)
        return cls(sitegraph, tasks, siterank_task)

    # ------------------------------------------------------------------ #
    @property
    def n_sites(self) -> int:
        """Number of step-3 tasks."""
        return len(self.site_tasks)

    @property
    def n_tasks(self) -> int:
        """Total tasks of the concurrent batch (sites + the SiteRank)."""
        return len(self.site_tasks) + 1

    def task_for(self, site: str) -> LocalRankTask:
        """The step-3 task of one site."""
        for task in self.site_tasks:
            if task.site == site:
                return task
        raise ValidationError(f"plan has no task for site {site!r}")

    def with_warm_state(self, warm: WarmStartState) -> "RankingPlan":
        """A copy of this plan re-seeded from *warm* (tasks otherwise equal)."""
        tasks = [replace(task,
                         start=warm.local_start(task.site, task.doc_ids))
                 for task in self.site_tasks]
        siterank_task = replace(
            self.siterank_task,
            start=warm.siterank_start(self.sitegraph.sites))
        return RankingPlan(self.sitegraph, tasks, siterank_task)

    # ------------------------------------------------------------------ #
    def execute(self, *, executor: Optional[Executor] = None,
                n_jobs: Optional[int] = None,
                warm: Optional[WarmStartState] = None) -> PlanExecution:
        """Run steps 3 and 4 concurrently; return at the step-5 barrier.

        The SiteRank task is submitted *first* so that on parallel
        backends the single site-level computation overlaps the per-site
        work instead of trailing it.  Results are keyed back to their
        tasks by position, so scheduling order never affects the output.
        Small sites are fused into block-diagonal :class:`BatchedSiteTask`
        payloads at dispatch time (:func:`fuse_schedule` decides from the
        sizes alone) and their results spliced back per site.

        When *warm* is given, the execution also records every converged
        vector back into it, making consecutive executions resume from
        each other.
        """
        plan = self if warm is None else self.with_warm_state(warm)
        resolved, owned = resolve_executor(executor, n_jobs)
        site_payload = batch_site_tasks(plan.site_tasks)
        batch: List[RankTask] = [plan.siterank_task, *site_payload]
        obs.inc("plan_executions_total", executor=resolved.name)
        obs.observe("plan_batch_tasks", float(len(batch)),
                    executor=resolved.name)
        started = time.perf_counter()
        try:
            with obs.span(obs.PHASE_PLAN_EXECUTE):
                results = resolved.map(run_task, batch)
        finally:
            if owned:
                resolved.close()
        wall_seconds = time.perf_counter() - started
        site_result: SiteRankResult = results[0]
        by_site = collect_site_results(site_payload, results[1:])
        local = {task.site: by_site[task.site] for task in plan.site_tasks}
        if warm is not None:
            for site, rank in local.items():
                warm.record_local(site, rank.doc_ids, rank.scores)
            warm.record_siterank(site_result.sites, site_result.scores)
        return PlanExecution(local=local, siterank=site_result,
                             wall_seconds=wall_seconds,
                             executor_name=resolved.name,
                             n_tasks=len(batch))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankingPlan(n_sites={self.n_sites})"
