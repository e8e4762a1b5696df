"""Out-of-core execution of the layered method over an mmap'd DiskGraph.

The layered decomposition is what makes ranking a web larger than RAM
possible at all: step 3 touches one site's local adjacency at a time and
step 4 only the (tiny) SiteGraph, so no step ever needs the global link
matrix resident.  :func:`rank_outofcore` runs the planner's one loop
(:func:`~repro.engine.plan.solve_windows`) over *windows*: runs of
consecutive sites, each ONE checked mapping of its rows of the stored
layout (:meth:`~repro.io.diskgraph.DiskGraph.unit_blocks`), one layout
step whose sites keep their whole-web kinds
(:func:`~repro.engine.plan.fused_sites` over the manifest's sizes) and
one :meth:`~repro.io.artifacts.GenerationWriter.append_sites` call.  A
window is dropped as soon as it is written, so peak RSS is bounded by a
window's documents, not the web's; ``finalize`` performs the same
single-sum normalisation :func:`repro._validation.normalize_distribution`
applies to the concatenated in-memory vector.

Bitwise parity with the in-memory pipeline is a hard requirement (the
out-of-core path must be an *optimisation*, not a different ranking):
same schedule, same solvers, same task code — and the generation files
are byte-identical to those of the per-site writer this round replaced.
:func:`plan_solve_units` names the schedule's units for the frozen system
benchmark and the tests' oracles.
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
from ..web.siterank import SiteRankResult
from .executor import Executor
from .plan import (
    BATCH_SITE_MAX_DOCS,
    BATCH_TARGET_DOCS,
    fuse_schedule,
    fused_sites,
    siterank_task_for,
    sites_step,
    solve_windows,
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
                   executor: Optional[Executor] = None,
                   n_jobs: Optional[int] = None,
                   ) -> OutOfCoreRanking:
    """Rank a DiskGraph in bounded memory, publishing a ranked generation.

    Steps 2 and 4 run in RAM (the SiteGraph is orders of magnitude smaller
    than the web); step 3 streams windows of consecutive sites, at most
    :data:`~repro.engine.plan.BATCH_TARGET_DOCS` documents or one larger
    site, through memory one at a time.  Each window's blocks are read
    through one mapping (a corrupt one fails the round, and nothing is
    published), solved on the ``executor`` / ``n_jobs`` pair every driver
    takes (serial when both omitted), its URLs gathered as undecoded
    bytes in one read (:meth:`DiskGraph.url_bytes`) and its sites written
    at once; the finished generation is published with an atomic
    manifest-pointer flip.

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
    counts = [sizes[site] for site in sites]
    with obs.span("outofcore.rank"):
        # Step 4 — the SiteGraph fits in RAM by construction; its
        # adjacency is still read straight off the block file.  Its sites
        # are the graph's, in order: a window's site scores are a slice.
        site_result = siterank_task_for(
            graph.sitegraph(),
            damping if site_damping is None else site_damping,
            preference=site_preference, **common).run()
        method = ("layered-personalized"
                  if site_preference is not None
                  or graph.personalized_sites() else "layered")
        # Each site keeps the kind the whole web's schedule gives it.
        kinds = fused_sites(counts)

        def window(low: int, high: int):
            obs.inc("outofcore_windows_total")
            with obs.span("outofcore.window.map"):
                blocks, preferences = graph.unit_blocks(sites[low:high])
                return sites_step(blocks, range(high - low), sites[low:high],
                                  damping, fused=kinds[low:high],
                                  preferences=preferences, **common)

        written, iterations = 0, site_result.iterations

        def write(step, collected) -> None:
            nonlocal written, iterations
            scores, site_iterations, _tail = collected
            doc_ids, bounds = step.blocks.order, step.offsets.tolist()
            low, written = written, written + len(step.sites)
            with obs.span("outofcore.window.write"):
                writer.append_sites(
                    step.sites, np.diff(step.offsets), doc_ids, scores,
                    *graph.url_bytes(doc_ids), site_result.scores[low:written],
                    site_iterations.tolist())
                iterations += int(site_iterations.sum())
                if record is not None:
                    for site, first, last in zip(step.sites, bounds,
                                                 bounds[1:]):
                        record.record_local(site,
                                            doc_ids[first:last].tolist(),
                                            scores[first:last])

        writer = store.create_generation(method=method,
                                         n_documents=graph.n_documents)
        try:
            run = solve_windows(
                (window(*bounds) for bounds in _plan_windows(counts)),
                sink=write, executor=executor, n_jobs=n_jobs,
                span="outofcore.window.solve")
            # One solve task per fused batch and per dedicated site.
            obs.inc("outofcore_units_total", run.n_tasks)
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


__all__ = [
    "GenerationWarmStart",
    "OutOfCoreRanking",
    "SolveUnit",
    "plan_solve_units",
    "rank_outofcore",
]
