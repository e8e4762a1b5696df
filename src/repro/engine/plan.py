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

A :class:`RankingPlan` materialises steps 3 and 4 as value-only task
objects (:class:`LocalRankTask`, :class:`BatchedSiteTask`,
:class:`SiteRankTask`) and executes them through any
:class:`~repro.engine.executor.Executor` in a single batch — the barrier
of the batch *is* the step-5 synchronisation point.

Step 3's inputs are the diagonal blocks of the DocGraph numbered site by
site (:meth:`repro.web.docgraph.DocGraph.site_blocks`).  Every step 3 is
one scheduler over such a layout, run by :func:`solve_layout_steps`:
sites named by layout index, fused batches cut by one row-range gather,
each batch's packed result scattered into one vector over the step's
sites.  Only a site too large to fuse gets a task of its own, a lazy
reference into the layout.  A fit, the segment pass, the incremental
refresh and :func:`~repro.web.docrank.all_local_docranks` build their
step with :func:`layout_step`; a subset of sites that must rank as the
whole web's fit ranks them — a simulated or live peer's sites, a mapped
window of a disk graph's layout in the out-of-core round — with
:func:`sites_step`, which keeps every site's whole-web kind.

The per-site builders (:func:`site_tasks_for`, :func:`batch_site_tasks`)
remain for calibration, over any **block source** (``sites()`` and
``local_block(site) -> (adjacency, doc_ids)``).  Start vectors come from
any **warm source** (:class:`~repro.engine.warm.WarmSource`), so power
iterations resume from the previously converged vector instead of
restarting from uniform.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from .._validation import ensure_distribution
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
from ..web.docgraph import DocGraph, SiteBlockRef, SiteBlocks, block_rows
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
    #: solve (read through :meth:`solve`).
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

    def run(self) -> List[LocalDocRank]:
        """Solve every fused site; per-site results in :attr:`sites` order.

        What the per-site callers read; a K-column batch answers
        :meth:`solve` only.
        """
        if self.n_vectors > 1:
            raise ValidationError("a K-column batch answers solve() only")
        solved = self.solve()
        results = []
        all_ids = np.asarray(self.doc_ids, dtype=np.int64).tolist()
        bounds = solved.offsets.tolist()
        vectors = solved.vectors  # views into one packed output vector
        # A (n, 1) preference solves as a one-column block.
        iterations = (solved.iterations if solved.iterations.ndim == 1
                      else solved.iterations.max(axis=1)).tolist()
        for index, site in enumerate(self.sites):
            ids = all_ids[bounds[index]:bounds[index + 1]]
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

        One row-range gather of *blocks* (:meth:`SiteBlocks.packed`,
        over a DocGraph's layout or a mapped disk window);
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
        :meth:`from_layout`; anything else (blocks of another source, the
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
    """Execute one engine task (the callable every executor maps)."""
    return task.run()


def solve_task(task: RankTask):
    """:func:`run_task`, but a fused batch answers its packed result."""
    return task.solve() if isinstance(task, BatchedSiteTask) else task.run()


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
    disk graph's block, gathered from its mapped window.  *warm*
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


def segment_siterank_task_for(sitegraph: SiteGraph,
                              segments: SegmentPreferences, damping: float,
                              *, tol: float, max_iter: int,
                              warm: Optional[WarmSource] = None
                              ) -> LocalRankTask:
    """The segment pass's K-column SiteRank: the SiteGraph as one more block.

    The :data:`~repro.web.pipeline.SITERANK_BLOCK` pseudo-site, the tail of
    a segment step; *damping* is the SiteRank's, *warm* K-column values.
    """
    start = (warm.siterank_start(sitegraph.sites) if warm is not None
             else None)
    return LocalRankTask(
        site=SITERANK_BLOCK, adjacency=sitegraph.adjacency,
        doc_ids=tuple(range(len(sitegraph.sites))), damping=damping,
        preference=segments.site_columns, tol=tol, max_iter=max_iter,
        start=start, n_vectors=segments.n_segments)


def solve_segment_layout(docgraph: DocGraph, sitegraph: SiteGraph,
                         segments: SegmentPreferences,
                         damping: float = DEFAULT_DAMPING, *,
                         site_damping: Optional[float] = None,
                         tol: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER,
                         executor: Optional[Executor] = None,
                         n_jobs: Optional[int] = None):
    """The segment pass: every site one K-column block of the layout.

    The segment SiteRank (:func:`segment_siterank_task_for`) is the tail.
    Returns :meth:`_LayoutStep.collect`'s ``(values, iterations, (site
    values, site iterations))`` over every site, in layout order.
    """
    step = layout_step(docgraph, damping, preferences=(
        segments.document_columns or None), tol=tol, max_iter=max_iter,
        n_vectors=segments.n_segments)
    tail = segment_siterank_task_for(
        sitegraph, segments, damping if site_damping is None else site_damping,
        tol=tol, max_iter=max_iter)
    _first, (collected,), _n_tasks = solve_layout_steps(
        [(step, tail)], executor=executor, n_jobs=n_jobs)
    return collected


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
    """Step 3 over some sites of a site-major layout.

    ``blocks`` is a DocGraph's :class:`~repro.web.docgraph.SiteBlocks` or
    a disk graph's mapped window of it; every block the step takes, fused
    or dedicated, is one ``blocks.packed`` gather.  ``indices`` are
    the layout indices of the sites solved, in schedule order, ``sites``
    their names.  ``starts`` / ``preferences`` hold one optional vector
    (``(n, K)`` matrix for ``n_vectors = K > 1``) per site, or are
    ``None`` when no site has one (nothing is packed then).
    ``schedule``, when given, is the ``(chunks, dedicated)`` positions to
    run in place of :func:`fuse_schedule`'s.  Results are
    selection-major: the sites' rows in turn, cut at :attr:`offsets`.
    """

    blocks: object
    sites: Sequence[str]
    indices: Sequence[int]
    offsets: np.ndarray  #: ``len(sites) + 1`` boundaries of their rows
    damping: float
    tol: float
    max_iter: int
    starts: Optional[List[Optional[np.ndarray]]] = None
    preferences: Optional[List[Optional[np.ndarray]]] = None
    n_vectors: int = 1
    schedule: Optional[Tuple[List[List[int]], List[int]]] = None

    def doc_ids(self, position: int) -> Tuple[int, ...]:
        """The document ids of one selected site, in its block's row order."""
        return self.blocks.site_doc_ids(self.indices[position])

    def with_starts(self, warm: WarmSource) -> "_LayoutStep":
        """This step with every site's start taken from *warm*."""
        return replace(self, starts=[warm.local_start(site, self.doc_ids(p))
                                     for p, site in enumerate(self.sites)])

    def task(self, position: int) -> LocalRankTask:
        """The dedicated task of one selected site."""
        return LocalRankTask(
            site=self.sites[position],
            adjacency=SiteBlockRef(self.blocks, self.indices[position]),
            doc_ids=self.doc_ids(position), damping=self.damping,
            preference=_pick(self.preferences, position), tol=self.tol,
            max_iter=self.max_iter, start=_pick(self.starts, position),
            n_vectors=self.n_vectors)

    def payload(self, tail: Optional[LocalRankTask] = None
                ) -> Tuple[List["RankTask"], list]:
        """The fused and dedicated tasks, with where each result goes.

        :func:`fuse_schedule` over the sites' block sizes (or the step's
        own :attr:`schedule`); each chunk is one
        :meth:`BatchedSiteTask.from_layout` gather (its place: the chunk's
        positions), each dedicated site a :class:`LocalRankTask` (its
        place: its position).  *tail*, a block outside the layout (the
        segment SiteRank), is scheduled after the last site as
        :func:`batch_site_tasks` would — with the sites when it shares
        their settings and no schedule is given, alone otherwise — at
        position ``len(sites)``.
        """
        n_sites = len(self.sites)
        joined = tail is not None and self.schedule is None and (
            tail.damping, tail.tol, tail.max_iter) == (self.damping, self.tol,
                                                       self.max_iter)
        sizes = np.diff(self.offsets).tolist()
        chunks, dedicated = self.schedule or fuse_schedule(
            sizes + [tail.n_documents] if joined else sizes,
            max_docs=BATCH_SITE_MAX_DOCS, target_docs=BATCH_TARGET_DOCS)
        tasks: List[RankTask] = [
            BatchedSiteTask.from_tasks([*map(self.task, chunk[:-1]), tail])
            if chunk[-1] == n_sites else BatchedSiteTask.from_layout(
                self.blocks, [self.indices[p] for p in chunk],
                [self.sites[p] for p in chunk], damping=self.damping,
                tol=self.tol, max_iter=self.max_iter,
                starts=_pick_all(self.starts, chunk),
                preferences=_pick_all(self.preferences, chunk),
                n_vectors=self.n_vectors)
            for chunk in chunks]
        if tail is not None and not joined:
            dedicated = [*dedicated, n_sites]
        tasks.extend(tail if position == n_sites else self.task(position)
                     for position in dedicated)
        return tasks, [*chunks, *dedicated]

    def collect(self, places: list, results: Sequence):
        """Scatter :meth:`payload`'s results selection-major.

        Returns the selected sites' values in one array (``(n,)``, or
        ``(n, K)`` columns for ``n_vectors = K > 1``), their iterations (a
        K-column site resided as long as its slowest column) and the tail
        block's ``(values, iterations)`` (``None`` without a tail).
        """
        offsets, n_sites = self.offsets, len(self.sites)
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
                values[block_rows(offsets, place)[0]] = (
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

    def local_ranks(self, scores: np.ndarray,
                    iterations: np.ndarray) -> LocalRanks:
        """:meth:`collect`'s single-vector values as the sites' DocRanks."""
        blocks = self.blocks
        if np.array_equal(self.indices, np.arange(blocks.offsets.size - 1)):
            doc_ids = blocks.doc_ids
        else:
            doc_ids = tuple(chain.from_iterable(
                map(self.doc_ids, range(len(self.sites)))))
        return LocalRanks(self.sites, doc_ids, scores, self.offsets,
                          iterations)


def _pick(values: Optional[list], index: int):
    return None if values is None else values[index]


def _pick_all(values: Optional[list], indices: Sequence[int]):
    return None if values is None else [values[i] for i in indices]


def layout_step(docgraph: DocGraph, damping: float = DEFAULT_DAMPING, *,
                sites: Optional[Sequence[str]] = None,
                preferences: Optional[Mapping[str, np.ndarray]] = None,
                tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER,
                warm: Optional[WarmSource] = None,
                n_vectors: int = 1) -> _LayoutStep:
    """Step 3 over *sites* (default: all, in layout order) of a DocGraph.

    *preferences* maps sites to teleport vectors (``(n, K)`` matrices for
    ``n_vectors = K > 1``), validated here once: an unknown site, or a
    vector of the wrong shape, non-finite or not a distribution, is a
    :class:`~repro.exceptions.ValidationError` naming the site.  *warm*
    seeds every start.
    """
    blocks = docgraph.site_blocks()
    site_index = docgraph.registry.site_index
    if sites is None:
        sites = docgraph.sites()
        indices: Sequence[int] = range(len(sites))
    else:
        indices = [site_index[site] for site in sites]
    sizes = np.diff(blocks.offsets)[np.asarray(indices, dtype=np.int64)]
    picked = None
    if preferences:
        for site in preferences:
            if site not in site_index:
                raise ValidationError(
                    f"document preferences name unknown site {site!r}")
        picked = [preferences.get(site) for site in sites]
        for site, size, vector in zip(sites, sizes.tolist(), picked):
            if vector is not None:
                check_block_vector(f"document preference of site {site!r}",
                                   vector, size, n_vectors)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    step = _LayoutStep(blocks, sites, indices, offsets, damping, tol,
                       max_iter, preferences=picked, n_vectors=n_vectors)
    return step if warm is None else step.with_starts(warm)


def sites_step(blocks, indices: Sequence[int], sites: Sequence[str],
               damping: float = DEFAULT_DAMPING, *,
               fused: Optional[Sequence[bool]] = None,
               preferences: Optional[Sequence] = None,
               tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
               warm: Optional[WarmSource] = None) -> _LayoutStep:
    """Step 3 over some sites of a layout, each of its whole-web kind.

    *blocks* is a DocGraph's :class:`~repro.web.docgraph.SiteBlocks` or a
    disk graph's mapped window of it (:meth:`DiskGraph.unit_blocks`);
    *indices* are the layout indices of the sites solved, *sites* their
    names.  *fused* says per site whether :func:`fuse_schedule` over the
    whole web fuses it; by default it is read off the schedule of every
    block of *blocks*, which must then be the whole web's layout.  Fused
    sites are chunked in order at :data:`BATCH_TARGET_DOCS` documents (a
    chunk of one stays fused), every other site is a dedicated task: a
    site's result depends on its kind, never on its chunk, so any subset
    ranks bitwise as the whole web's fit ranks it.  *preferences* holds
    one optional vector per site; *warm* seeds every start.
    """
    picked = np.asarray(indices, dtype=np.int64)
    sizes = np.diff(blocks.offsets)
    if fused is None:
        chunks, _dedicated = fuse_schedule(
            sizes.tolist(), max_docs=BATCH_SITE_MAX_DOCS,
            target_docs=BATCH_TARGET_DOCS)
        web = np.zeros(sizes.size, dtype=bool)
        web[list(chain.from_iterable(chunks))] = True
        fused = web[picked].tolist()
    sizes = sizes[picked]
    chunks, dedicated, docs = [], [], 0
    for position, (size, kind) in enumerate(zip(sizes.tolist(), fused)):
        if not kind:
            dedicated.append(position)
            continue
        if not chunks or docs + size > BATCH_TARGET_DOCS:
            chunks.append([])
            docs = 0
        chunks[-1].append(position)
        docs += size
    if preferences is not None and all(v is None for v in preferences):
        preferences = None
    step = _LayoutStep(blocks, sites, indices,
                       np.concatenate(([0], np.cumsum(sizes))), damping, tol,
                       max_iter, preferences=preferences,
                       schedule=(chunks, dedicated))
    return step if warm is None else step.with_starts(warm)


def check_block_vector(name: str, vector, n: int, n_vectors: int = 1
                       ) -> None:
    """Raise :class:`~repro.exceptions.ValidationError`, citing *name*,
    unless *vector* is a distribution over a block of *n* documents
    (``(n, K)`` columns for ``n_vectors = K > 1``)."""
    shape = (n,) if n_vectors == 1 else (n, n_vectors)
    array = np.asarray(vector, dtype=float)
    columns = array.reshape(-1, 1) if n_vectors == 1 else array
    if columns.shape != (n, n_vectors):
        raise ValidationError(f"{name} has shape {array.shape}, "
                              f"expected {shape}")
    if not np.isfinite(columns).all():
        raise ValidationError(f"{name} has non-finite entries")
    for column in columns.T:
        ensure_distribution(column, name=name)


def solve_layout_steps(steps: Sequence[Tuple[_LayoutStep,
                                             Optional[LocalRankTask]]], *,
                       executor: Optional[Executor] = None,
                       n_jobs: Optional[int] = None,
                       first: Optional[RankTask] = None
                       ) -> Tuple[object, list, int]:
    """Run layout steps, each with its optional tail, as one batch.

    *first* (the SiteRank) leads, so a parallel backend overlaps it with
    the per-site work.  Returns its result (``None`` without one), every
    step's :meth:`_LayoutStep.collect` and the number of tasks run.
    """
    payloads = [step.payload(tail) for step, tail in steps]
    batch = [first] if first is not None else []
    for tasks, _places in payloads:
        batch.extend(tasks)
    resolved, owned = resolve_executor(executor, n_jobs)
    try:
        results = iter(resolved.map(solve_task, batch))
    finally:
        if owned:
            resolved.close()
    lead = next(results) if first is not None else None
    collected = [step.collect(places, [next(results) for _ in tasks])
                 for (step, _tail), (tasks, places) in zip(steps, payloads)]
    return lead, collected, len(batch)


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

    :meth:`from_docgraph` performs the cheap serial steps (step 2's
    SiteGraph aggregation, capturing the graph's site-major layout);
    :meth:`execute` dispatches the concurrent steps through an executor
    and returns at the step-5 barrier.  The plan is immutable, so one plan
    can run on several backends — bitwise alike, as the determinism tests
    require.  A plan of explicit tasks only holds them; it cannot execute.
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
            layout = layout_step(docgraph, damping,
                                 preferences=document_preferences, tol=tol,
                                 max_iter=max_iter, warm=warm)
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
            self._site_tasks = [self._layout.task(position)
                                for position in range(len(self._layout.sites))]
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

    def _checked_layout(self) -> _LayoutStep:
        if self._layout is None:
            raise ValidationError("a plan of explicit tasks cannot execute; "
                                  "build it with RankingPlan.from_docgraph")
        return self._layout

    def with_warm_state(self, warm: WarmStartState) -> "RankingPlan":
        """A copy of this plan re-seeded from *warm* (tasks otherwise equal)."""
        layout = self._checked_layout()
        return self._over_layout(
            self.sitegraph, layout.with_starts(warm),
            replace(self.siterank_task,
                    start=warm.siterank_start(self.sitegraph.sites)))

    # ------------------------------------------------------------------ #
    def execute(self, *, executor: Optional[Executor] = None,
                n_jobs: Optional[int] = None,
                warm: Optional[WarmStartState] = None) -> PlanExecution:
        """Run steps 3 and 4 concurrently; return at the step-5 barrier.

        The SiteRank task is submitted *first* so that on parallel
        backends the single site-level computation overlaps the per-site
        work instead of trailing it.  Step 3 is the plan's layout step
        (:func:`solve_layout_steps`); scheduling order never affects the
        output.

        When *warm* is given, the execution also records every converged
        vector back into it, making consecutive executions resume from
        each other.
        """
        plan = self if warm is None else self.with_warm_state(warm)
        layout = plan._checked_layout()
        resolved, owned = resolve_executor(executor, n_jobs)
        obs.inc("plan_executions_total", executor=resolved.name)
        started = time.perf_counter()
        try:
            with obs.span(obs.PHASE_PLAN_EXECUTE):
                site_result, ((scores, iterations, _),), n_tasks = \
                    solve_layout_steps([(layout, None)], executor=resolved,
                                       first=plan.siterank_task)
        finally:
            if owned:
                resolved.close()
        wall_seconds = time.perf_counter() - started
        obs.observe("plan_batch_tasks", float(n_tasks),
                    executor=resolved.name)
        local = layout.local_ranks(scores, iterations)
        if warm is not None:
            for site, rank in local.items():
                warm.record_local(site, rank.doc_ids, rank.scores)
            warm.record_siterank(site_result.sites, site_result.scores)
        return PlanExecution(local=local, siterank=site_result,
                             wall_seconds=wall_seconds,
                             executor_name=resolved.name, n_tasks=n_tasks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankingPlan(n_sites={self.n_sites})"
