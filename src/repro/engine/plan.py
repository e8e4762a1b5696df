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
site (:meth:`repro.web.docgraph.DocGraph.site_blocks`).  :func:`sites_step`
builds every step 3 over such a layout: sites named by layout index,
scheduled over their own sizes or by their whole-web kinds
(:func:`fused_sites`), fused batches cut by one row-range gather, only a
site too large to fuse a task of its own.
:func:`solve_windows` runs every step 3 — a fit, the segment pass, the
refresh, a peer, each out-of-core window — on one resolved executor.

The per-site builders (:func:`site_tasks_for`, :func:`batch_site_tasks`)
remain for the frozen system benchmark and the tests' oracles, over any
**block source** (``sites()`` and ``local_block(site) -> (adjacency,
doc_ids)``).  Start vectors come from any **warm source**
(:class:`~repro.engine.warm.WarmSource`), so power iterations resume from
the previously converged vector instead of restarting from uniform.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
from .executor import Executor, resolve_executor, warmup_for
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
    mid-stream flush of one stays fused).  Every step's schedule
    (:func:`sites_step`) and :func:`batch_site_tasks` come from it.
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
    tail = segment_siterank_task_for(
        sitegraph, segments, damping if site_damping is None else site_damping,
        tol=tol, max_iter=max_iter)
    step = sites_step(docgraph.site_blocks(), range(docgraph.n_sites),
                      docgraph.sites(), damping,
                      preferences=segments.document_columns, tol=tol,
                      max_iter=max_iter, n_vectors=segments.n_segments,
                      tail=tail)
    solved: list = []
    solve_windows([step], sink=lambda _step, values: solved.append(values),
                  executor=executor, n_jobs=n_jobs)
    return solved[0]


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
    """Step 3 over some sites of a site-major layout (:func:`sites_step`).

    Every block the step takes, fused or dedicated, is one
    ``blocks.packed`` gather of the sites at ``indices`` (named
    ``sites``).  ``schedule`` is the ``(chunks, dedicated)`` positions to
    run; ``tail``, a block outside the layout, has position ``len(sites)``.
    ``starts`` / ``preferences`` hold one optional vector (``(n, K)``
    matrix for ``n_vectors = K > 1``) per site, or are ``None`` when no
    site has one.  Results are selection-major: the sites' rows in turn,
    cut at :attr:`offsets`.
    """

    blocks: object
    sites: Sequence[str]
    indices: Sequence[int]
    offsets: np.ndarray  #: ``len(sites) + 1`` boundaries of their rows
    damping: float
    tol: float
    max_iter: int
    schedule: Tuple[List[List[int]], List[int]]
    starts: Optional[List[Optional[np.ndarray]]] = None
    preferences: Optional[List[Optional[np.ndarray]]] = None
    n_vectors: int = 1
    tail: Optional[LocalRankTask] = None

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

    def payload(self) -> Tuple[List["RankTask"], list]:
        """The fused and dedicated tasks, with where each result goes.

        Each chunk of :attr:`schedule` is one
        :meth:`BatchedSiteTask.from_layout` gather (its place: the chunk's
        positions) or, when it holds the tail, its sites' tasks and the
        tail packed together; each dedicated site is a
        :class:`LocalRankTask` (its place: its position).
        """
        n_sites = len(self.sites)
        chunks, dedicated = self.schedule
        tasks: List[RankTask] = [
            BatchedSiteTask.from_tasks([*map(self.task, chunk[:-1]),
                                        self.tail])
            if chunk[-1] == n_sites else BatchedSiteTask.from_layout(
                self.blocks, [self.indices[p] for p in chunk],
                [self.sites[p] for p in chunk], damping=self.damping,
                tol=self.tol, max_iter=self.max_iter,
                starts=_pick_all(self.starts, chunk),
                preferences=_pick_all(self.preferences, chunk),
                n_vectors=self.n_vectors)
            for chunk in chunks]
        tasks.extend(self.tail if position == n_sites else self.task(position)
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


def fused_sites(sizes: Sequence[int]) -> List[bool]:
    """Whether :func:`fuse_schedule` fuses each block of *sizes* documents:
    over the whole web, the kinds a peer's sites or a disk window keep."""
    chunks, _dedicated = fuse_schedule(
        list(sizes), max_docs=BATCH_SITE_MAX_DOCS,
        target_docs=BATCH_TARGET_DOCS)
    kinds = [False] * len(sizes)
    for position in chain.from_iterable(chunks):
        kinds[position] = True
    return kinds


def sites_step(blocks, indices: Sequence[int], sites: Sequence[str],
               damping: float = DEFAULT_DAMPING, *,
               fused: Optional[Sequence[bool]] = None,
               preferences: Union[Mapping, Sequence, None] = None,
               tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
               warm: Optional[WarmSource] = None, n_vectors: int = 1,
               tail: Optional[LocalRankTask] = None) -> _LayoutStep:
    """Step 3 over some sites of a layout: the one step builder.

    *blocks* is a DocGraph's :class:`~repro.web.docgraph.SiteBlocks` or a
    disk graph's mapped window of it; *indices* are the layout indices of
    the sites solved, *sites* their names.  By default the step schedules
    its own blocks with :func:`fuse_schedule` (a fit's: the whole web; a
    refresh's: its changed sites); *tail*, a block outside the layout (the
    segment SiteRank), comes last and joins the schedule when it shares
    damping, tol and max_iter, running alone otherwise.  *fused* instead
    gives each site its kind in the whole web's schedule
    (:func:`fused_sites`): fused sites chunk in order at
    :data:`BATCH_TARGET_DOCS` documents (a chunk of one stays fused), and
    as a result depends on the kind, never the chunk, a peer's sites or a
    disk window rank bitwise as a fit ranks them.  *preferences* maps
    sites to teleport vectors (``(n, K)`` for ``n_vectors = K > 1``) or
    holds one per site, all checked here: an unknown site, a wrong shape,
    non-finite entries or no distribution is a ValidationError naming the
    site.  *warm* seeds every start.
    """
    sizes = np.diff(blocks.offsets)[np.asarray(indices, dtype=np.int64)]
    counts = sizes.tolist()
    if fused is None:
        joins = tail is not None and (
            tail.damping, tail.tol, tail.max_iter) == (damping, tol, max_iter)
        chunks, dedicated = fuse_schedule(
            [*counts, tail.n_documents] if joins else counts,
            max_docs=BATCH_SITE_MAX_DOCS, target_docs=BATCH_TARGET_DOCS)
        if tail is not None and not joins:
            dedicated.append(len(counts))
    elif len(fused) != len(counts) or tail is not None:
        raise ValidationError("fused takes one kind per site and no tail")
    else:
        chunks, dedicated, docs = [], [], 0
        for position, (size, kind) in enumerate(zip(counts, fused)):
            if not kind:
                dedicated.append(position)
                continue
            if not chunks or docs + size > BATCH_TARGET_DOCS:
                chunks.append([])
                docs = 0
            chunks[-1].append(position)
            docs += size
    if isinstance(preferences, Mapping):
        unknown = set(preferences).difference(sites)
        if unknown:
            raise ValidationError(
                f"document preferences name unknown site {min(unknown)!r}")
        preferences = [preferences.get(site) for site in sites]
    if preferences is not None and all(v is None for v in preferences):
        preferences = None
    for site, size, vector in zip(sites, counts, preferences or ()):
        if vector is not None:
            check_block_vector(f"document preference of site {site!r}",
                               vector, size, n_vectors)
    step = _LayoutStep(blocks, sites, indices,
                       np.concatenate(([0], np.cumsum(sizes))), damping, tol,
                       max_iter, (chunks, dedicated), preferences=preferences,
                       n_vectors=n_vectors, tail=tail)
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


@dataclass
class PlanExecution:
    """What one :func:`solve_windows` run (a :meth:`RankingPlan.execute`) did.

    Attributes
    ----------
    local:
        Per-site local DocRanks held site-major, in step order (``None``
        when a sink took the windows).
    siterank:
        The SiteRank computed at step 4 (``None`` without a leading task).
    wall_seconds:
        Measured wall-clock of the concurrent step-3/step-4 batches.
    executor_name:
        Backend that executed the batches (``"serial"``/``"threaded"``/…).
    n_tasks:
        Number of task payloads actually dispatched — fused
        :class:`BatchedSiteTask` payloads count once, so this is typically
        far below ``n_sites + 1``.
    """

    local: Optional[LocalRanks]
    siterank: Optional[SiteRankResult]
    wall_seconds: float
    executor_name: str
    n_tasks: int

    @property
    def total_iterations(self) -> int:
        """Power iterations summed over every task of the batch."""
        return self.siterank.iterations + self.local.total_iterations


def solve_windows(windows: Iterable[_LayoutStep], *,
                  sink: Optional[Callable[[_LayoutStep, tuple], None]] = None,
                  first: Optional[RankTask] = None,
                  executor: Optional[Executor] = None,
                  n_jobs: Optional[int] = None,
                  span: Optional[str] = None) -> PlanExecution:
    """Step 3, window by window, on one executor: every driver's loop.

    Resolves *executor* / *n_jobs* once; *first* (the SiteRank) leads the
    first window's batch, so a pool overlaps it with the per-site work.
    Each window, a layout step taken from *windows* once the one before
    is done, runs as one batch (under the phase *span* when given), and
    its :meth:`_LayoutStep.collect` goes to ``sink(step, collected)``;
    without a sink, *windows* is one step and the run holds its sites'
    :class:`~repro.web.docrank.LocalRanks`.
    """
    resolved, owned = resolve_executor(executor, n_jobs)
    run = PlanExecution(None, None, 0.0, resolved.name, 0)
    try:
        for step in windows:
            started = time.perf_counter()
            with obs.span(span) if span else nullcontext():
                lead, collected, n_tasks = _solve_batch(resolved, step, first)
            run.wall_seconds += time.perf_counter() - started
            run.n_tasks += n_tasks
            if first is not None:
                run.siterank, first = lead, None
            if sink is None:
                run.local = step.local_ranks(*collected[:2])
            else:
                sink(step, collected)
            # A solved window goes now, not after the next one is built.
            del step, collected
    finally:
        if owned:
            resolved.close()
    return run


def _solve_batch(executor: Executor, step: _LayoutStep,
                 first: Optional[RankTask]) -> Tuple[object, tuple, int]:
    """One window's batch: *first*'s result, its collect, its task count."""
    tasks, places = step.payload()
    batch = tasks if first is None else [first, *tasks]
    warmup_for(executor, batch)
    results = list(executor.map(solve_task, batch))
    lead = None if first is None else results.pop(0)
    return lead, step.collect(places, results), len(batch)


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
            layout = sites_step(docgraph.site_blocks(),
                                range(docgraph.n_sites), docgraph.sites(),
                                damping, preferences=document_preferences,
                                tol=tol, max_iter=max_iter, warm=warm)
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
        work instead of trailing it.  Step 3 is the plan's layout step,
        one window of :func:`solve_windows`; scheduling order never
        affects the output.

        When *warm* is given, the execution also records every converged
        vector back into it, making consecutive executions resume from
        each other.
        """
        plan = self if warm is None else self.with_warm_state(warm)
        run = solve_windows([plan._checked_layout()],
                            first=plan.siterank_task, executor=executor,
                            n_jobs=n_jobs, span=obs.PHASE_PLAN_EXECUTE)
        obs.inc("plan_executions_total", executor=run.executor_name)
        obs.observe("plan_batch_tasks", float(run.n_tasks),
                    executor=run.executor_name)
        if warm is not None:
            for site, rank in run.local.items():
                warm.record_local(site, rank.doc_ids, rank.scores)
            warm.record_siterank(run.siterank.sites, run.siterank.scores)
        return run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankingPlan(n_sites={self.n_sites})"
