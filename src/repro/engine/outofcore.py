"""Out-of-core execution of the layered method over an mmap'd DiskGraph.

The layered decomposition is what makes ranking a web larger than RAM
possible at all: step 3 touches one site's local adjacency at a time and
step 4 only the (tiny) SiteGraph, so no step ever needs the global link
matrix resident.  :func:`rank_outofcore` is the planner's driver with one
*window* resident at a time: the in-memory plan's solve units
(:func:`plan_solve_units`, :func:`~repro.engine.plan.fuse_schedule` from
manifest sizes alone) cut into runs of at most
:data:`~repro.engine.plan.BATCH_TARGET_DOCS` documents.  A window is ONE
mapping of its blocks
(:meth:`~repro.io.diskgraph.DiskGraph.unit_blocks`), one dispatch of the
fit's scheduler (:func:`~repro.engine.plan.window_step`), one
:class:`~repro.web.docrank.LocalRanks` of results and one gather of its
URLs as undecoded bytes (:meth:`~repro.io.diskgraph.DiskGraph.url_bytes`);
start vectors come from any :class:`~repro.engine.warm.WarmSource`.  A
window is dropped as soon as it is solved, so peak RSS is bounded by a
window's documents, not the web's.  Each run of consecutive solved sites
goes to the :class:`repro.io.artifacts.GenerationWriter` with one
:meth:`~repro.io.artifacts.GenerationWriter.append_sites` call, in
site-major order; ``finalize`` performs the same single-sum normalisation
:func:`repro._validation.normalize_distribution` applies to the
concatenated in-memory vector.

Bitwise parity with the in-memory pipeline is a hard requirement (the
out-of-core path must be an *optimisation*, not a different ranking):
same schedule, same solvers, same task code — and the generation files
are byte-identical to those of the per-site writer this round replaced.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..exceptions import ValidationError
from ..io.artifacts import ArtifactStore, GenerationWriter, RankedGeneration
from ..io.diskgraph import DiskGraph
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..markov.irreducibility import DEFAULT_DAMPING
from ..web.docrank import LocalRanks
from ..web.siterank import SiteRankResult
from .plan import (
    BATCH_SITE_MAX_DOCS,
    BATCH_TARGET_DOCS,
    fuse_schedule,
    siterank_task_for,
    solve_layout_steps,
    window_step,
)
from .warm import Previous, WarmSource, WarmStartState


@dataclass(frozen=True)
class SolveUnit:
    """One schedulable unit of step-3 work: a fused chunk or one big site."""

    kind: str  #: ``"fused"`` (block-diagonal batch) or ``"dedicated"``
    sites: Tuple[str, ...]


def plan_solve_units(sites: Sequence[str], sizes: Mapping[str, int], *,
                     max_docs: int = BATCH_SITE_MAX_DOCS,
                     target_docs: int = BATCH_TARGET_DOCS
                     ) -> List[SolveUnit]:
    """The in-memory plan's step-3 schedule, from sizes only.

    Because the out-of-core solves all share one parameter set, chunk
    membership depends only on each site's document count — which the
    disk-graph manifest records — so the whole schedule is planned by the
    shared :func:`~repro.engine.plan.fuse_schedule` without mapping a
    single adjacency block.
    """
    try:
        counts = [int(sizes[site]) for site in sites]
    except KeyError as missing:
        raise ValidationError(
            f"no size recorded for site {missing.args[0]!r}") from None
    chunks, dedicated = fuse_schedule(counts, max_docs=max_docs,
                                      target_docs=target_docs)
    return ([SolveUnit("fused", tuple(sites[i] for i in chunk))
             for chunk in chunks]
            + [SolveUnit("dedicated", (sites[i],)) for i in dedicated])


def _plan_windows(units: Sequence[SolveUnit], sizes: Mapping[str, int]
                  ) -> List[List[SolveUnit]]:
    """Cut *units*, in the order given, into windows: runs of consecutive
    units holding at most :data:`BATCH_TARGET_DOCS` documents, a larger
    unit (one dedicated site) a window of its own."""
    windows: List[List[SolveUnit]] = []
    docs = 0
    for unit in units:
        size = sum(int(sizes[site]) for site in unit.sites)
        if not windows or docs + size > BATCH_TARGET_DOCS:
            windows.append([])
            docs = 0
        windows[-1].append(unit)
        docs += size
    return windows


class GenerationWarmStart(WarmSource):
    """Warm-start vectors read from a previous ranked generation.

    The artifact store persists every site's converged *local* vector
    (``local_scores.bin``) next to the composed scores, so the next
    out-of-core rank can resume power iterations from it without any
    in-RAM :class:`~repro.engine.warm.WarmStartState` surviving between
    runs — the vectors round-trip through the store, and being a
    :class:`~repro.engine.warm.WarmSource` a warm resume from disk is
    bitwise the in-memory warm resume.  The id and vector files are
    mapped once, for the lifetime of this object.
    """

    def __init__(self, generation: RankedGeneration) -> None:
        self._generation = generation
        self._shards = {str(shard["site"]): shard
                        for shard in generation.shards()}
        # Plain ndarray views: slicing a memmap costs several times more.
        self._ids = np.asarray(generation.map_array("doc_ids"))
        self._vectors = np.asarray(generation.map_array("local_scores"))

    def previous_local(self, site: str) -> Optional[Previous]:
        shard = self._shards.get(site)
        if shard is None:
            return None
        offset, count = int(shard["offset"]), int(shard["count"])
        return (self._ids[offset:offset + count].tolist(),
                np.array(self._vectors[offset:offset + count], dtype=float))

    def previous_siterank(self) -> Optional[Previous]:
        block = self._generation.siterank()
        return ([str(site) for site in block.get("sites", ())],
                np.asarray(block.get("scores", ()), dtype=float))


@dataclass
class OutOfCoreRanking:
    """What one :func:`rank_outofcore` run produced (scores stay on disk).

    The composed score vector is *not* held here — it lives in the
    published generation's ``scores.bin``; serve it with
    :class:`repro.serving.mmapstore.MmapScoreStore` or compare it against
    an in-memory run via :attr:`generation`'s arrays.
    """

    store: ArtifactStore
    generation: RankedGeneration
    siterank: SiteRankResult
    method: str
    iterations: int

    @property
    def n_documents(self) -> int:
        """Documents ranked."""
        return self.generation.n_documents


def rank_outofcore(graph: DiskGraph,
                   store: Union[ArtifactStore, str, os.PathLike],
                   damping: float = DEFAULT_DAMPING, *,
                   site_damping: Optional[float] = None,
                   site_preference: Optional[np.ndarray] = None,
                   tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER,
                   warm: Union[WarmSource, RankedGeneration, None] = None,
                   ) -> OutOfCoreRanking:
    """Rank a DiskGraph in bounded memory, publishing a ranked generation.

    Steps 2 and 4 run in RAM (the SiteGraph is orders of magnitude smaller
    than the web); step 3 streams windows of solve units through memory
    one at a time, so memory is bounded per window, in documents (at most
    :data:`~repro.engine.plan.BATCH_TARGET_DOCS`, or one larger site).  Each window's blocks are read through one mapping
    (:meth:`DiskGraph.unit_blocks`) for the window's lifetime, solved as
    one layout step and its URLs gathered as undecoded bytes in one read
    (:meth:`DiskGraph.url_bytes`).  Solved sites go to the artifact store
    as soon as every site before them has — one
    :meth:`~repro.io.artifacts.GenerationWriter.append_sites` per run of
    consecutive sites, so held vectors never exceed a window's worth plus
    the sites a fused chunk straddles — and the finished generation is
    published with an atomic manifest-pointer flip.

    *warm* is any :class:`~repro.engine.warm.WarmSource` — a live
    :class:`~repro.engine.warm.WarmStartState` is also recorded into, like
    :meth:`RankingPlan.execute` — or a previous
    :class:`~repro.io.artifacts.RankedGeneration`, the store itself
    persisting the vectors between processes.
    """
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore(store, create=True)
    seed = GenerationWarmStart(warm) if isinstance(warm, RankedGeneration) \
        else warm
    if seed is not None and not isinstance(seed, WarmSource):
        raise ValidationError(
            "warm must be a WarmSource (WarmStartState, "
            "GenerationWarmStart) or a RankedGeneration")
    record = warm if isinstance(warm, WarmStartState) else None
    common = {"tol": tol, "max_iter": max_iter, "warm": seed}
    sites = graph.sites()
    sizes = graph.site_sizes()
    with obs.span("outofcore.rank"):
        # Step 4 — the SiteGraph fits in RAM by construction; its
        # adjacency is still read straight off the block file.  Its sites
        # are the graph's, in order: a run's site scores are a slice.
        site_result = siterank_task_for(
            graph.sitegraph(),
            damping if site_damping is None else site_damping,
            preference=site_preference, **common).run()
        method = ("layered-personalized"
                  if site_preference is not None
                  or graph.personalized_sites() else "layered")
        # Units in the order their first site comes: the generation is
        # written in site order, so a unit is solved when the write
        # cursor first needs one of its sites.
        order = {site: index for index, site in enumerate(sites)}
        units = sorted(plan_solve_units(sites, sizes),
                       key=lambda unit: order[unit.sites[0]])
        writer = store.create_generation(method=method,
                                         n_documents=graph.n_documents)
        pending: Dict[str, Tuple[_SolvedWindow, int]] = {}
        cursor = 0
        iterations = site_result.iterations
        try:
            for window in _plan_windows(units, sizes):
                ranks = _solve_window(graph, window, order, damping, common)
                with obs.span("outofcore.window.write"):
                    solved = _SolvedWindow(ranks,
                                           *graph.url_bytes(ranks.doc_ids))
                    pending.update((site, (solved, position)) for position,
                                   site in enumerate(ranks.sites))
                    start = cursor
                    while cursor < len(sites) and sites[cursor] in pending:
                        cursor += 1
                    if cursor > start:
                        iterations += _append_run(
                            writer, sites[start:cursor],
                            [pending.pop(site) for site in sites[start:cursor]],
                            site_result.scores[start:cursor], record)
                    # A written window goes now, not after the next solve.
                    del ranks, solved
            generation = writer.finalize(
                siterank_sites=site_result.sites,
                siterank_scores=site_result.scores,
                siterank_iterations=site_result.iterations,
                siterank_damping=site_result.damping,
                iterations=iterations)
        except BaseException:
            writer.abort()
            raise
    if record is not None:
        record.record_siterank(site_result.sites, site_result.scores)
    store.publish(generation.name)
    return OutOfCoreRanking(store=store, generation=generation,
                            siterank=site_result, method=method,
                            iterations=iterations)


def _solve_window(graph: DiskGraph, window: Sequence[SolveUnit],
                  order: Mapping[str, int], damping: float,
                  common: dict) -> LocalRanks:
    """Solve one window over one mapping of its blocks, in site order.

    The units' kinds are the *whole web's* schedule (a mid-stream chunk
    of one stays fused, a trailing one is dedicated): the window's fused
    sites are one batch, every other site a dedicated task.
    """
    obs.inc("outofcore_windows_total")
    obs.inc("outofcore_units_total", len(window))
    sites = sorted((site for unit in window for site in unit.sites),
                   key=order.__getitem__)
    fused = {site for unit in window if unit.kind == "fused"
             for site in unit.sites}
    chunk = [position for position, site in enumerate(sites) if site in fused]
    schedule = ([chunk] if chunk else [],
                [position for position, site in enumerate(sites)
                 if site not in fused])
    with obs.span("outofcore.window.map"):
        step = window_step(graph.unit_blocks(sites), schedule, damping,
                           **common)
    with obs.span("outofcore.window.solve"):
        _first, ((scores, iterations, _tail),), _n_tasks = \
            solve_layout_steps([(step, None)])
        return step.local_ranks(scores, iterations)


@dataclass
class _SolvedWindow:
    """A solved window's sites, waiting for their turn in site order."""

    ranks: LocalRanks
    url_bytes: np.ndarray
    url_lengths: np.ndarray

    def cut(self, low: int, high: int) -> tuple:
        """Sites ``low:high``: counts, ids, scores, URLs and iterations."""
        ranks = self.ranks
        first, last = ranks.offsets[low], ranks.offsets[high]
        lengths = self.url_lengths[first:last]
        skip = int(self.url_lengths[:first].sum())
        return (ranks.sizes[low:high], ranks.doc_ids[first:last],
                ranks.scores[first:last],
                self.url_bytes[skip:skip + int(lengths.sum())], lengths,
                ranks.iterations[low:high])


def _append_run(writer: GenerationWriter, sites: Sequence[str],
                run: Sequence[Tuple[_SolvedWindow, int]],
                site_scores: np.ndarray,
                record: Optional[WarmStartState]) -> int:
    """Write a run of consecutive solved sites with one writer call.

    *run* holds each site's ``(window, position)``; consecutive positions
    of one window are cut as one slice.  Returns the run's iterations.
    """
    pieces: List[list] = []
    for window, position in run:
        if pieces and pieces[-1][0] is window and pieces[-1][2] == position:
            pieces[-1][2] += 1
        else:
            pieces.append([window, position, position + 1])
    counts, doc_ids, scores, url_bytes, url_lengths, iterations = (
        np.concatenate(column) for column in zip(
            *(window.cut(low, high) for window, low, high in pieces)))
    writer.append_sites(sites, counts, doc_ids, scores, url_bytes,
                        url_lengths, site_scores, iterations.tolist())
    if record is not None:
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        for site, low, high in zip(sites, bounds, bounds[1:]):
            record.record_local(site, doc_ids[low:high].tolist(),
                                scores[low:high])
    return int(iterations.sum())


__all__ = [
    "GenerationWarmStart",
    "OutOfCoreRanking",
    "SolveUnit",
    "plan_solve_units",
    "rank_outofcore",
]
