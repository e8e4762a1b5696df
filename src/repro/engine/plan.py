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
site, and a plan over a DocGraph (:meth:`RankingPlan.from_docgraph`)
works on exactly that layout
(:meth:`repro.web.docgraph.DocGraph.site_blocks`): it schedules from the
blocks' sizes, builds each fused batch with one row-range gather by site
index, scatters each batch's packed result into one site-major vector
and hands step 5 that vector (a :class:`~repro.web.docrank.LocalRanks`).
Only a site too large to fuse gets a task of its own, holding a lazy
reference into the layout — no Python object per fused site, no scipy
object per site, no global adjacency.

This module is the only place that builds step-3 and step-4 tasks:
:func:`site_tasks_for`, :func:`siterank_task_for` and
:func:`segment_tasks_for` serve the out-of-core runner, the incremental
ranker and the segment pass alike (a plan over a DocGraph cuts the same
tasks from its layout, field for field).  They read blocks from any
**block source** — an object with ``sites()`` and ``local_block(site) ->
(adjacency, doc_ids)``: :class:`~repro.web.docgraph.DocGraph` (lazy
references into RAM) or a disk graph's
:class:`~repro.io.diskgraph.UnitBlocks` (views of one mapping per solve
unit) — and start vectors from any **warm source**
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
    BlockSolveResult,
    PackedBlocks,
    pack_block_vectors,
    pack_blocks,
    solve_blocks,
)
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..markov.irreducibility import DEFAULT_DAMPING
from ..web.docgraph import DocGraph, SiteBlockRef, SiteBlocks
from ..web.docrank import (
    LocalDocRank,
    LocalRanks,
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
#: default; larger sites keep their dedicated :class:`LocalRankTask`, which
#: a pool can overlap with other work.  Their linear algebra does not
#: dominate yet: at 1240 documents (~4.6 links each) one matrix-free
#: iteration takes ~17 µs, of which the sparse product's C kernel is ~5 µs,
#: scipy's dispatch around it ~3 µs and numpy's in-place updates the rest
#: (2-core x86 box, one core pinned).
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
    block-diagonal CSR at construction (:meth:`from_layout`, or
    :meth:`from_tasks` for blocks outside a layout) and solved by one
    fused power iteration with per-site convergence
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

    def solve(self) -> BlockSolveResult:
        """Solve every fused site in one run; the packed result."""
        packed = PackedBlocks(
            matrix=self.adjacency,
            offsets=np.asarray(self.offsets, dtype=np.int64),
            start=self.start, preference=self.preference)
        return solve_blocks(packed, self.damping, tol=self.tol,
                            max_iter=self.max_iter)

    def run(self):
        """Solve every fused site; per-site results in :attr:`sites` order."""
        solved = self.solve()
        results = []
        all_ids = np.asarray(self.doc_ids, dtype=np.int64).tolist()
        bounds = solved.offsets.tolist()
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
    def from_layout(cls, blocks: SiteBlocks, indices: Sequence[int],
                    sites: Sequence[str], *,
                    damping: float = DEFAULT_DAMPING,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
                    starts: Optional[Sequence] = None,
                    preferences: Optional[Sequence] = None,
                    n_vectors: int = 1) -> "BatchedSiteTask":
        """Fuse some sites of one site-major layout, named by index.

        One row-range gather of *blocks* (:meth:`SiteBlocks.packed`);
        *sites* names the blocks at *indices*.  *starts* / *preferences*,
        when given, hold one optional vector (or ``(n, K)`` matrix) per
        entry of *indices* and are validated and packed alongside.
        """
        with obs.span("plan.site_blocks.pack"):
            matrix, offsets, doc_ids = blocks.packed(indices)
        sizes = np.diff(offsets)
        start = preference = None
        if starts is not None:
            start = pack_block_vectors(starts, sizes, name="start")
        if preferences is not None:
            preference = pack_block_vectors(preferences, sizes,
                                            name="preference")
        obs.inc("block_pack_builds_total")
        return cls(sites=tuple(sites), adjacency=matrix, offsets=offsets,
                   doc_ids=doc_ids, damping=damping, preference=preference,
                   tol=tol, max_iter=max_iter, start=start,
                   n_vectors=n_vectors)

    @classmethod
    def from_tasks(cls, tasks: Sequence[LocalRankTask]) -> "BatchedSiteTask":
        """Fuse per-site tasks (which must share damping/tol/max_iter/K).

        Tasks whose adjacencies are references into one
        :class:`~repro.web.docgraph.SiteBlocks` pack through
        :meth:`from_layout`; anything else (mmap'd disk blocks, the
        SiteRank pseudo-site riding a segment batch) is materialised and
        concatenated by :func:`~repro.linalg.block_solver.pack_blocks`.
        Either way the packed buffers are copies.
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
            return cls.from_layout(
                refs[0].blocks, [ref.index for ref in refs],
                [task.site for task in tasks], damping=head.damping,
                tol=head.tol, max_iter=head.max_iter,
                starts=[task.start for task in tasks],
                preferences=[task.preference for task in tasks],
                n_vectors=head.n_vectors)
        doc_ids = np.concatenate([
            np.asarray(task.doc_ids, dtype=np.int64) for task in tasks])
        packed = pack_blocks([(task.adjacency.tocsr(), task.start,
                               task.preference) for task in tasks])
        obs.inc("block_pack_builds_total")
        return cls(sites=tuple(task.site for task in tasks),
                   adjacency=packed.matrix, offsets=packed.offsets,
                   doc_ids=doc_ids, damping=head.damping,
                   preference=packed.preference, tol=head.tol,
                   max_iter=head.max_iter, start=packed.start,
                   n_vectors=head.n_vectors)


def fuse_schedule(sizes: Sequence[int], *, max_docs: int, target_docs: int
                  ) -> Tuple[List[List[int]], List[int]]:
    """The one fuse/flush rule, from document counts alone.

    Returns ``(chunks, dedicated)`` as positions into *sizes*: entries over
    *max_docs* are dedicated; the rest fuse in order, a chunk flushing
    whenever the next entry would take it past *target_docs*; a *trailing*
    chunk of one has nothing to amortise and is dedicated too (a
    mid-stream flush of one stays fused).  :func:`batch_site_tasks`, a
    plan over a DocGraph's layout and
    :func:`repro.engine.outofcore.plan_solve_units` all schedule with it,
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


def solve_task(task: RankTask):
    """:func:`run_task`, but a fused batch answers its packed result."""
    return task.solve() if isinstance(task, BatchedSiteTask) else task.run()


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
    disk graph's mapped views, unmapped when the tasks and their source
    are dropped.  *warm*
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


def solve_segment_layout(docgraph: DocGraph, sitegraph: SiteGraph,
                         segments: SegmentPreferences,
                         damping: float = DEFAULT_DAMPING, *,
                         site_damping: Optional[float] = None,
                         tol: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER,
                         executor: Optional[Executor] = None,
                         n_jobs: Optional[int] = None):
    """The segment pass's K-column solves, scheduled off the layout.

    Every site is one K-column block of the DocGraph's
    :meth:`~repro.web.docgraph.DocGraph.site_blocks`; the segment-level
    SiteRank (the :data:`~repro.web.pipeline.SITERANK_BLOCK` task of
    :func:`segment_tasks_for`) rides as the tail block.  Returns
    :meth:`_LayoutStep.collect`'s ``(values, iterations, (site values,
    site iterations))``.
    """
    preferences = segments.document_columns
    layout = _LayoutStep(
        docgraph.site_blocks(), list(sitegraph.sites), damping, tol,
        max_iter, n_vectors=segments.n_segments,
        preferences=([preferences.get(site) for site in sitegraph.sites]
                     if preferences else None))
    tail, = segment_tasks_for(docgraph, sitegraph, segments, damping,
                              site_damping=site_damping, sites=(), tol=tol,
                              max_iter=max_iter)
    tasks, places = layout.payload(tail)
    resolved, owned = resolve_executor(executor, n_jobs)
    try:
        results = resolved.map(solve_task, tasks)
    finally:
        if owned:
            resolved.close()
    return layout.collect(places, results)


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


@dataclass(frozen=True)
class _LayoutStep:
    """Step 3 of a plan, read straight off a DocGraph's site-major layout.

    Sites are the layout's, by index.  ``starts`` / ``preferences`` hold
    one optional vector (``(n, K)`` matrix for ``n_vectors = K > 1``) per
    site, or are ``None`` when no site has one — the default fit, which
    then packs no vector at all.
    """

    blocks: SiteBlocks
    sites: List[str]
    damping: float
    tol: float
    max_iter: int
    starts: Optional[List[Optional[np.ndarray]]] = None
    preferences: Optional[List[Optional[np.ndarray]]] = None
    n_vectors: int = 1

    def doc_ids(self, index: int) -> Tuple[int, ...]:
        """The document ids of one site, in its block's row order."""
        offsets = self.blocks.offsets
        return self.blocks.doc_ids[offsets[index]:offsets[index + 1]]

    def with_starts(self, warm: WarmSource) -> "_LayoutStep":
        """This step with every site's start taken from *warm*."""
        return replace(self, starts=[warm.local_start(site, self.doc_ids(i))
                                     for i, site in enumerate(self.sites)])

    def task(self, index: int) -> LocalRankTask:
        """The dedicated task of one site (what ``site_tasks_for`` builds)."""
        return LocalRankTask(
            site=self.sites[index],
            adjacency=SiteBlockRef(self.blocks, index),
            doc_ids=self.doc_ids(index), damping=self.damping,
            preference=_pick(self.preferences, index), tol=self.tol,
            max_iter=self.max_iter, start=_pick(self.starts, index),
            n_vectors=self.n_vectors)

    def payload(self, tail: Optional[LocalRankTask] = None
                ) -> Tuple[List["RankTask"], list]:
        """The fused and dedicated tasks, with where each result goes.

        :func:`fuse_schedule` over the layout's block sizes; each chunk is
        one :meth:`BatchedSiteTask.from_layout` gather (its place: the
        chunk's site indices), each dedicated site a :class:`LocalRankTask`
        (its place: the site index).  *tail*, a block outside the layout
        (the segment pass's SiteRank pseudo-site), is scheduled after the
        last site as :func:`batch_site_tasks` would — with the sites when
        it shares their settings, alone otherwise — and placed at index
        ``len(sites)``; a batch it joins is packed by
        :meth:`BatchedSiteTask.from_tasks`.
        """
        n_sites = len(self.sites)
        sizes = np.diff(self.blocks.offsets).tolist()
        joined = tail is not None and (tail.damping, tail.tol,
                                       tail.max_iter) == (self.damping,
                                                          self.tol,
                                                          self.max_iter)
        chunks, dedicated = fuse_schedule(
            sizes + [tail.n_documents] if joined else sizes,
            max_docs=BATCH_SITE_MAX_DOCS, target_docs=BATCH_TARGET_DOCS)
        tasks: List[RankTask] = [
            BatchedSiteTask.from_tasks([*map(self.task, chunk[:-1]), tail])
            if chunk[-1] == n_sites else BatchedSiteTask.from_layout(
                self.blocks, chunk, [self.sites[i] for i in chunk],
                damping=self.damping, tol=self.tol, max_iter=self.max_iter,
                starts=_pick_all(self.starts, chunk),
                preferences=_pick_all(self.preferences, chunk),
                n_vectors=self.n_vectors)
            for chunk in chunks]
        if tail is not None and not joined:
            dedicated.append(n_sites)
        tasks.extend(tail if index == n_sites else self.task(index)
                     for index in dedicated)
        return tasks, [*chunks, *dedicated]

    def collect(self, places: list, results: Sequence):
        """Scatter :meth:`payload`'s results site-major.

        Returns every site's values in one array (``(n,)``, or ``(n, K)``
        columns for ``n_vectors = K > 1``), the per-site iterations (a
        K-column site resided as long as its slowest column) and the tail
        block's ``(values, iterations)`` (``None`` without a tail).
        """
        offsets, n_sites = self.blocks.offsets, len(self.sites)
        values = np.empty((int(offsets[-1]),) if self.n_vectors == 1
                          else (int(offsets[-1]), self.n_vectors))
        iterations = np.empty(n_sites, dtype=np.int64)
        tail = None
        for place, result in zip(places, results):
            if isinstance(result, BlockSolveResult):
                solved, counts = result.values, result.iterations
                if counts.ndim == 2:
                    counts = counts.max(axis=1)
                if place[-1] == n_sites:  # the tail's rows come last
                    cut = int(result.offsets[-2])
                    tail = (solved[cut:], int(counts[-1]))
                    solved, counts = solved[:cut], counts[:-1]
                    place = place[:-1]
                # A K-column batch solved as one column (every preference
                # uniform) fills all K columns with it.
                values[self.blocks.rows(place)[0]] = (
                    solved[:, None] if solved.ndim < values.ndim else solved)
            else:
                solved = (result.columns if isinstance(result, SiteColumns)
                          else result.scores)
                counts = result.iterations
                if place == n_sites:
                    tail = (solved, counts)
                    continue
                values[offsets[place]:offsets[place + 1]] = solved
            iterations[place] = counts
        return values, iterations, tail


def _pick(values: Optional[list], index: int):
    return None if values is None else values[index]


def _pick_all(values: Optional[list], indices: Sequence[int]):
    return None if values is None else [values[i] for i in indices]


@dataclass
class PlanExecution:
    """Everything one :meth:`RankingPlan.execute` run produced.

    Attributes
    ----------
    local:
        Per-site local DocRanks held site-major, in plan (site) order: a
        read-only mapping whose entries are views built on access.
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

    local: LocalRanks
    siterank: SiteRankResult
    wall_seconds: float
    executor_name: str
    n_tasks: int

    @property
    def total_iterations(self) -> int:
        """Power iterations summed over every task of the batch."""
        return self.siterank.iterations + self.local.total_iterations


class RankingPlan:
    """The layered method's step-3/4/5 dependency graph over one DocGraph.

    Construction performs the cheap serial steps (step 2's SiteGraph
    aggregation; for a plan :meth:`from_docgraph` builds, capturing the
    graph's site-major layout); :meth:`execute` dispatches the concurrent
    steps through an executor and returns at the step-5 barrier.  The plan
    itself is immutable once built, so one plan can be executed on several
    backends — the determinism-guard tests do exactly that and require
    bitwise-identical results.
    """

    def __init__(self, sitegraph: SiteGraph,
                 site_tasks: Sequence[LocalRankTask],
                 siterank_task: SiteRankTask) -> None:
        task_sites = [task.site for task in site_tasks]
        if sorted(task_sites) != sorted(sitegraph.sites):
            raise ValidationError(
                "site tasks must cover exactly the SiteGraph's sites")
        self.sitegraph = sitegraph
        self.siterank_task = siterank_task
        self._site_tasks: Optional[List[LocalRankTask]] = list(site_tasks)
        self._layout: Optional[_LayoutStep] = None

    @classmethod
    def _over_layout(cls, sitegraph: SiteGraph, layout: _LayoutStep,
                     siterank_task: SiteRankTask) -> "RankingPlan":
        plan = cls.__new__(cls)
        plan.sitegraph, plan.siterank_task = sitegraph, siterank_task
        plan._site_tasks, plan._layout = None, layout
        return plan

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
        """Build the plan for a DocGraph (steps 1–2 happen here, serially).

        Step 3 is scheduled from the graph's
        :meth:`~repro.web.docgraph.DocGraph.site_blocks` at execution: no
        per-site task exists unless :attr:`site_tasks` is read.
        """
        if docgraph.n_documents == 0:
            raise GraphStructureError("cannot plan over an empty DocGraph")
        if site_damping is None:
            site_damping = damping
        with obs.span(obs.PHASE_PLAN_BUILD):
            sitegraph = aggregate_sitegraph(
                docgraph, include_self_links=include_site_self_links)
            sites = sitegraph.sites
            preferences = None
            if document_preferences:
                preferences = [document_preferences.get(site)
                               for site in sites]
            layout = _LayoutStep(docgraph.site_blocks(), sites, damping,
                                 tol, max_iter, preferences=preferences)
            if warm is not None:
                layout = layout.with_starts(warm)
            siterank_task = siterank_task_for(
                sitegraph, site_damping, preference=site_preference,
                tol=tol, max_iter=max_iter, warm=warm)
        return cls._over_layout(sitegraph, layout, siterank_task)

    # ------------------------------------------------------------------ #
    @property
    def site_tasks(self) -> List[LocalRankTask]:
        """The step-3 tasks, one per site.

        A plan over a layout builds them on first read (as
        :func:`site_tasks_for` would); :meth:`execute` never reads them.
        """
        if self._site_tasks is None:
            self._site_tasks = [self._layout.task(index)
                                for index in range(len(self._layout.sites))]
        return self._site_tasks

    @property
    def n_sites(self) -> int:
        """Number of step-3 tasks."""
        return len(self.sitegraph.sites)

    @property
    def n_tasks(self) -> int:
        """Total tasks of the concurrent batch (sites + the SiteRank)."""
        return self.n_sites + 1

    def task_for(self, site: str) -> LocalRankTask:
        """The step-3 task of one site."""
        for task in self.site_tasks:
            if task.site == site:
                return task
        raise ValidationError(f"plan has no task for site {site!r}")

    def with_warm_state(self, warm: WarmStartState) -> "RankingPlan":
        """A copy of this plan re-seeded from *warm* (tasks otherwise equal)."""
        siterank_task = replace(
            self.siterank_task,
            start=warm.siterank_start(self.sitegraph.sites))
        if self._layout is not None:
            return self._over_layout(self.sitegraph,
                                     self._layout.with_starts(warm),
                                     siterank_task)
        tasks = [replace(task,
                         start=warm.local_start(task.site, task.doc_ids))
                 for task in self.site_tasks]
        return RankingPlan(self.sitegraph, tasks, siterank_task)

    # ------------------------------------------------------------------ #
    def execute(self, *, executor: Optional[Executor] = None,
                n_jobs: Optional[int] = None,
                warm: Optional[WarmStartState] = None) -> PlanExecution:
        """Run steps 3 and 4 concurrently; return at the step-5 barrier.

        The SiteRank task is submitted *first* so that on parallel
        backends the single site-level computation overlaps the per-site
        work instead of trailing it.  Small sites are fused into
        block-diagonal :class:`BatchedSiteTask` payloads at dispatch time
        (:func:`fuse_schedule` decides from the sizes alone).  A plan over
        a layout gathers each batch by site index and scatters each
        batch's packed result into one site-major vector; a plan of
        explicit tasks batches them with :func:`batch_site_tasks` and
        concatenates the results in task order.  Scheduling order never
        affects the output.

        When *warm* is given, the execution also records every converged
        vector back into it, making consecutive executions resume from
        each other.
        """
        plan = self if warm is None else self.with_warm_state(warm)
        resolved, owned = resolve_executor(executor, n_jobs)
        if plan._layout is None:
            site_payload, places = batch_site_tasks(plan.site_tasks), None
        else:
            site_payload, places = plan._layout.payload()
        batch: List[RankTask] = [plan.siterank_task, *site_payload]
        obs.inc("plan_executions_total", executor=resolved.name)
        obs.observe("plan_batch_tasks", float(len(batch)),
                    executor=resolved.name)
        started = time.perf_counter()
        try:
            with obs.span(obs.PHASE_PLAN_EXECUTE):
                results = resolved.map(
                    run_task if places is None else solve_task, batch)
        finally:
            if owned:
                resolved.close()
        wall_seconds = time.perf_counter() - started
        site_result: SiteRankResult = results[0]
        if places is None:
            by_site = collect_site_results(site_payload, results[1:])
            local = LocalRanks.from_ranks([by_site[task.site]
                                           for task in plan.site_tasks])
        else:
            scores, iterations, _ = plan._layout.collect(places, results[1:])
            local = LocalRanks(plan._layout.sites, plan._layout.blocks.doc_ids,
                               scores, plan._layout.blocks.offsets,
                               iterations)
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
