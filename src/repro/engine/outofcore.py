"""Out-of-core execution of the layered method over an mmap'd DiskGraph.

The layered decomposition is what makes ranking a web larger than RAM
possible at all: step 3 touches one site's local adjacency at a time and
step 4 only the (tiny) SiteGraph, so no step ever needs the global link
matrix resident.  :func:`rank_outofcore` is the planner's driver with one
*window* resident at a time: a run of consecutive sites holding at most
:data:`~repro.engine.plan.BATCH_TARGET_DOCS` documents, or one larger
site alone.  A window is ONE checked mapping of its rows of the stored
layout (:meth:`~repro.io.diskgraph.DiskGraph.unit_blocks`, a
:class:`~repro.web.docgraph.SiteBlocks`), one dispatch of the
fit's scheduler (:func:`~repro.engine.plan.sites_step`, every site of
the kind the in-memory plan's solve units give it:
:func:`plan_solve_units`, :func:`~repro.engine.plan.fuse_schedule` from
manifest sizes alone), one :class:`~repro.web.docrank.LocalRanks` of
results, one gather of its URLs as undecoded bytes
(:meth:`~repro.io.diskgraph.DiskGraph.url_bytes`) and one
:meth:`~repro.io.artifacts.GenerationWriter.append_sites` call; start
vectors come from any :class:`~repro.engine.warm.WarmSource`.  A window
is dropped as soon as it is written, so peak RSS is bounded by a
window's documents, not the web's; ``finalize`` performs the same
single-sum normalisation :func:`repro._validation.normalize_distribution`
applies to the concatenated in-memory vector.

Bitwise parity with the in-memory pipeline is a hard requirement (the
out-of-core path must be an *optimisation*, not a different ranking):
same schedule, same solvers, same task code — and the generation files
are byte-identical to those of the per-site writer this round replaced.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..exceptions import ValidationError
from ..io.artifacts import ArtifactStore, RankedGeneration
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
    sites_step,
    solve_layout_steps,
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


def _plan_windows(sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """Cut sites of *sizes* documents, in order, into windows: ``(low,
    high)`` runs holding at most :data:`BATCH_TARGET_DOCS` documents, a
    larger site a window of its own."""
    bounds, docs = [0], 0
    for position, size in enumerate(sizes):
        if position > bounds[-1] and docs + size > BATCH_TARGET_DOCS:
            bounds.append(position)
            docs = 0
        docs += size
    bounds.append(len(sizes))
    return list(zip(bounds, bounds[1:]))


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
    than the web); step 3 streams windows of consecutive sites through
    memory one at a time, so memory is bounded per window, in documents
    (at most :data:`~repro.engine.plan.BATCH_TARGET_DOCS`, or one larger
    site).  Each window's blocks are read through one mapping
    (:meth:`DiskGraph.unit_blocks`; a corrupt one fails the round, and
    nothing is published), solved as one layout step, its URLs
    gathered as undecoded bytes in one read (:meth:`DiskGraph.url_bytes`)
    and its sites written with one
    :meth:`~repro.io.artifacts.GenerationWriter.append_sites`; the
    finished generation is published with an atomic manifest-pointer flip.

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
        # Each site keeps the kind the whole web's schedule gives it.
        fused = {site for unit in plan_solve_units(sites, sizes)
                 if unit.kind == "fused" for site in unit.sites}
        writer = store.create_generation(method=method,
                                         n_documents=graph.n_documents)
        iterations = site_result.iterations
        try:
            for low, high in _plan_windows([sizes[site] for site in sites]):
                window = sites[low:high]
                ranks = _solve_window(graph, window,
                                      [site in fused for site in window],
                                      damping, common)
                with obs.span("outofcore.window.write"):
                    url_bytes, url_lengths = graph.url_bytes(ranks.doc_ids)
                    writer.append_sites(
                        window, ranks.sizes, ranks.doc_ids, ranks.scores,
                        url_bytes, url_lengths, site_result.scores[low:high],
                        ranks.iterations.tolist())
                    iterations += ranks.total_iterations
                    if record is not None:
                        bounds = ranks.offsets.tolist()
                        for site, first, last in zip(window, bounds,
                                                     bounds[1:]):
                            record.record_local(
                                site, ranks.doc_ids[first:last].tolist(),
                                ranks.scores[first:last])
                    # A written window goes now, not after the next solve.
                    del ranks, url_bytes
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


def _solve_window(graph: DiskGraph, sites: Sequence[str],
                  fused: Sequence[bool], damping: float,
                  common: dict) -> LocalRanks:
    """Solve one window over one mapping of its blocks, in site order.

    Counts the window (``outofcore_windows_total``) and the solve tasks it
    dispatched, one per fused batch and one per dedicated site
    (``outofcore_units_total``).
    """
    obs.inc("outofcore_windows_total")
    with obs.span("outofcore.window.map"):
        blocks, preferences = graph.unit_blocks(sites)
        step = sites_step(blocks, range(len(sites)), sites, damping,
                          fused=fused, preferences=preferences, **common)
    with obs.span("outofcore.window.solve"):
        _first, ((scores, iterations, _tail),), n_tasks = \
            solve_layout_steps([(step, None)])
        obs.inc("outofcore_units_total", n_tasks)
        return LocalRanks(sites, blocks.order, scores, blocks.offsets,
                          iterations)


__all__ = [
    "GenerationWarmStart",
    "OutOfCoreRanking",
    "SolveUnit",
    "plan_solve_units",
    "rank_outofcore",
]
