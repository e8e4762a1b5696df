"""Out-of-core execution of the layered method over an mmap'd DiskGraph.

The layered decomposition is what makes ranking a web larger than RAM
possible at all: step 3 touches one site's local adjacency at a time and
step 4 only the (tiny) SiteGraph, so no step ever needs the global link
matrix resident.  :func:`rank_outofcore` is the planner's driver with one
solve unit resident at a time: the units come from the rule
:func:`repro.engine.plan.batch_site_tasks` schedules with
(:func:`~repro.engine.plan.fuse_schedule`, from manifest sizes alone), each
unit's tasks from the same :func:`~repro.engine.plan.site_tasks_for` the
in-memory plan calls, over the unit's block source
(:meth:`~repro.io.diskgraph.DiskGraph.unit_blocks`: ONE mapping of the
byte range holding the unit's arrays, every site a view of it) — and the
start vectors from any :class:`~repro.engine.warm.WarmSource`.  A unit is
dropped as soon as it is solved, so its mapping goes with it and peak RSS
is bounded by the largest unit, not the web.

The round moves arrays, not Python objects per site or per URL: a unit's
URLs are gathered once as undecoded UTF-8 bytes
(:meth:`~repro.io.diskgraph.DiskGraph.url_bytes`), and each run of
consecutive solved sites goes to the
:class:`repro.io.artifacts.GenerationWriter` with one
:meth:`~repro.io.artifacts.GenerationWriter.append_sites` call, in
site-major order.  The writer's ``finalize`` performs the same single-sum
normalisation :func:`repro._validation.normalize_distribution` applies to
the concatenated in-memory vector.

Bitwise parity with the in-memory pipeline is a hard requirement (the
out-of-core path must be an *optimisation*, not a different ranking):
same schedule, same builders, same task code — and the generation files
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
from ..web.docrank import LocalDocRank
from ..web.siterank import SiteRankResult
from .plan import (
    BATCH_SITE_MAX_DOCS,
    BATCH_TARGET_DOCS,
    BatchedSiteTask,
    collect_site_results,
    fuse_schedule,
    site_tasks_for,
    siterank_task_for,
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
    """The :func:`~repro.engine.plan.batch_site_tasks` schedule, from sizes only.

    Because the out-of-core tasks all share one parameter set, chunk
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
    than the web); step 3 streams the solve units of
    :func:`plan_solve_units` through memory one at a time, each unit's
    blocks read through one mapping (:meth:`DiskGraph.unit_blocks`) for
    the unit's lifetime and its URLs gathered as undecoded bytes in one
    read (:meth:`DiskGraph.url_bytes`).  Solved sites go to the artifact
    store as soon as every site before them has — one
    :meth:`~repro.io.artifacts.GenerationWriter.append_sites` per run of
    consecutive sites, so held vectors never exceed one chunk's worth plus
    the units a fused chunk straddles — and the finished generation is
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
    with obs.span("outofcore.rank"):
        # Step 4 — the SiteGraph fits in RAM by construction; its
        # adjacency is still read straight off the block file.
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
        first = {site: index for index, site in enumerate(sites)}
        units = sorted(plan_solve_units(sites, graph.site_sizes()),
                       key=lambda unit: first[unit.sites[0]])
        writer = store.create_generation(method=method,
                                         n_documents=graph.n_documents)
        pending: Dict[str, _SolvedSite] = {}
        cursor = 0
        iterations = site_result.iterations
        try:
            for unit in units:
                pending.update(_solve_unit(graph, unit, damping, common))
                run = []
                while cursor < len(sites) and sites[cursor] in pending:
                    run.append(pending.pop(sites[cursor]))
                    cursor += 1
                if run:
                    _append_run(writer, run, site_result)
                for solved in run:
                    iterations += solved.rank.iterations
                    if record is not None:
                        record.record_local(solved.rank.site,
                                            solved.rank.doc_ids,
                                            solved.rank.scores)
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


@dataclass
class _SolvedSite:
    """One solved site waiting for its turn in site order."""

    rank: LocalDocRank
    doc_ids: np.ndarray
    url_bytes: np.ndarray
    url_lengths: np.ndarray


def _solve_unit(graph: DiskGraph, unit: SolveUnit, damping: float,
                common: dict) -> Dict[str, _SolvedSite]:
    """Solve one unit over one mapping of its blocks; gather its URLs."""
    obs.inc("outofcore_units_total")
    source = graph.unit_blocks(unit.sites)
    preferences = {}
    for site in unit.sites:
        preference = source.preference(site)
        if preference is not None:
            preferences[site] = preference
    payload = site_tasks_for(source, damping, sites=unit.sites,
                             preferences=preferences, **common)
    site_ids = [source.local_block(site)[1] for site in unit.sites]
    counts = [ids.size for ids in site_ids]
    doc_ids = np.concatenate(site_ids)
    del source, preferences, site_ids
    if unit.kind == "fused":
        # The unit's kind is the *global* schedule's word (a mid-stream
        # chunk of one stays fused).  Packing copies the blocks into one
        # block-diagonal CSR; rebinding drops the per-site tasks, which
        # unmaps the source pages before the solve runs.
        payload = [BatchedSiteTask.from_tasks(payload)]
    ranks = collect_site_results(payload, [task.run() for task in payload])
    del payload
    url_bytes, url_lengths = graph.url_bytes(doc_ids)
    docs = np.concatenate(([0], np.cumsum(counts)))
    nbytes = np.concatenate(([0], np.cumsum(url_lengths)))[docs]
    return {site: _SolvedSite(ranks[site], doc_ids[start:stop],
                              url_bytes[first:last], url_lengths[start:stop])
            for site, start, stop, first, last in zip(
                unit.sites, docs.tolist(), docs[1:].tolist(),
                nbytes.tolist(), nbytes[1:].tolist())}


def _append_run(writer: GenerationWriter, run: Sequence[_SolvedSite],
                site_result: SiteRankResult) -> None:
    """Write a run of consecutive solved sites with one writer call."""
    writer.append_sites(
        [solved.rank.site for solved in run],
        [solved.doc_ids.size for solved in run],
        np.concatenate([solved.doc_ids for solved in run]),
        np.concatenate([solved.rank.scores for solved in run]),
        np.concatenate([solved.url_bytes for solved in run]),
        np.concatenate([solved.url_lengths for solved in run]),
        [site_result.score_of(solved.rank.site) for solved in run],
        [solved.rank.iterations for solved in run])


__all__ = [
    "GenerationWarmStart",
    "OutOfCoreRanking",
    "SolveUnit",
    "plan_solve_units",
    "rank_outofcore",
]
