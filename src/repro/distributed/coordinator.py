"""The coordinator of the distributed layered-ranking protocol.

Two deployment flavours from Section 3.2 of the paper are implemented:

* **flat** — the coordinator (any peer can play this role) gathers SiteLink
  summaries, computes the (cheap) SiteRank, announces it to all peers as a
  shared resource, and every peer returns its raw local DocRank vectors; the
  coordinator performs the final ``π_S(s) · π_D(s)`` weighting;
* **super-peer** — peers send their local DocRanks nowhere; instead each
  peer receives the SiteRank announcement, performs the weighting locally
  and ships a single already-weighted shard, so "rank aggregation is only
  performed at super-peers" and the coordinator merely concatenates shards.

Both produce the exact same global DocRank as the centralized pipeline
(:mod:`repro.web.pipeline`) — the property the integration tests verify —
but with different traffic patterns, which is what the distribution-cost
benchmark (E9) measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Tuple

import numpy as np

from .._validation import normalize_distribution
from ..engine.executor import Executor
from ..engine.plan import sites_step, solve_windows
from ..exceptions import SimulationError
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..linalg.sparse_utils import coo_from_edges
from ..markov.irreducibility import DEFAULT_DAMPING
from ..web.docgraph import DocGraph
from ..web.pipeline import WebRankingResult
from ..web.sitegraph import SiteGraph
from ..web.siterank import SiteRankResult, siterank
from .messages import (
    AssignSitesMessage,
    ComputeLocalRankRequest,
    SiteRankAnnouncement,
)
from .network import NetworkParameters, SimulatedNetwork
from .partitioning import PartitionPolicy, partition_sites
from .peer import Peer, local_work_seconds, summarize_sitelinks

Architecture = Literal["flat", "super-peer"]

#: Node name of the coordinator in the simulated network.
COORDINATOR = "coordinator"


def assemble_sitegraph(docgraph: DocGraph, counts) -> SiteGraph:
    """Build the SiteGraph from SiteLink count triples.

    *counts* is any iterable of ``(source_site, target_site, count)``
    triples, typically the concatenation of the peers' summaries.  The CSR
    canonicalisation sums duplicates and orders indices, and integer count
    sums are exact in floating point, so the result is bitwise independent
    of triple order and of how the summaries were split across peers —
    which is why the simulated and live coordinators (and the centralized
    pipeline's own aggregation) produce the identical SiteRank input.
    """
    sites = docgraph.sites()
    index_of_site = {site: i for i, site in enumerate(sites)}
    edges = []
    weights = []
    for source, target, count in counts:
        if source not in index_of_site or target not in index_of_site:
            raise SimulationError(
                f"summary references unknown site {source!r}->{target!r}")
        edges.append((index_of_site[source], index_of_site[target]))
        weights.append(float(count))
    adjacency = coo_from_edges(edges, len(sites), weights=weights)
    sizes = docgraph.site_sizes()
    return SiteGraph(sites=sites, adjacency=adjacency,
                     site_sizes=[sizes[site] for site in sites])


@dataclass
class DeploymentReport:
    """Everything a distributed ranking run produced.

    One report type serves both deployments: the in-process network
    simulator (``mode="simulated"``) and the live TCP cluster of
    :mod:`repro.cluster` (``mode="live"``).  ``SimulationReport`` remains
    an alias of this class.

    Attributes
    ----------
    ranking:
        The final global DocRank (same type as the centralized pipeline's).
    siterank:
        The SiteRank computed by the coordinator.
    architecture:
        ``"flat"`` or ``"super-peer"``.
    n_peers:
        Number of peers that participated.
    message_count, total_bytes:
        Traffic totals.
    messages_by_type, bytes_by_type:
        Traffic broken down by message class.
    makespan_seconds:
        Simulated wall-clock time of the whole computation (parallel).
    serial_compute_seconds:
        Sum of all local computation times — what a single machine doing the
        same per-site work sequentially would need; the ratio
        ``serial / makespan`` is the achieved parallel speed-up.
    coordinator_seconds:
        Simulated time spent on the coordinator (SiteRank + aggregation).
    per_peer_compute_seconds:
        Simulated local computation time per peer.
    measured_wall_seconds:
        *Measured* wall-clock of the per-site rank batch as executed by the
        engine on this machine — the empirical companion to the modeled
        ``makespan_seconds``, since both are derived from the same
        :class:`~repro.engine.plan.RankingPlan` tasks.
    executor_name:
        Engine backend that executed the batch.
    mode:
        ``"simulated"`` (in-process network model) or ``"live"`` (real
        TCP peers in separate OS processes).
    per_peer_wall_seconds:
        *Measured* wall-clock each peer spent computing, as reported by
        the peers themselves.  Empty in simulated mode (where
        ``per_peer_compute_seconds`` carries the modeled times instead).
    reassigned_sites:
        Sites that were re-assigned to a surviving peer after their
        original owner crashed mid-round (live mode fault tolerance;
        empty in simulated mode and in fault-free live rounds).
    """

    ranking: WebRankingResult
    siterank: SiteRankResult
    architecture: Architecture
    n_peers: int
    message_count: int
    total_bytes: int
    messages_by_type: Dict[str, int]
    bytes_by_type: Dict[str, int]
    makespan_seconds: float
    serial_compute_seconds: float
    coordinator_seconds: float
    per_peer_compute_seconds: Dict[str, float] = field(default_factory=dict)
    measured_wall_seconds: float = 0.0
    executor_name: str = "serial"
    mode: str = "simulated"
    per_peer_wall_seconds: Dict[str, float] = field(default_factory=dict)
    reassigned_sites: Tuple[str, ...] = ()

    @property
    def reassignment_count(self) -> int:
        """Number of sites that changed owner due to a peer crash."""
        return len(self.reassigned_sites)

    @property
    def parallel_speedup(self) -> float:
        """``serial_compute_seconds / makespan_seconds`` (>= 1 when parallelism helps)."""
        if self.makespan_seconds <= 0:
            return float("inf")
        return self.serial_compute_seconds / self.makespan_seconds

    @property
    def timings(self) -> Dict[str, float]:
        """Phase timings keyed by the canonical :mod:`repro.obs` phase names.

        ``plan.execute`` is the *measured* wall-clock of the engine batch
        (the back-compat alias ``measured_wall_seconds`` remains the
        primary field for one release); the ``sim.*`` keys carry the
        modeled network-simulation times that have no centralized
        counterpart.
        """
        return {
            "plan.execute": self.measured_wall_seconds,
            "sim.makespan": self.makespan_seconds,
            "sim.serial_compute": self.serial_compute_seconds,
            "sim.coordinator": self.coordinator_seconds,
        }


#: Historical name of :class:`DeploymentReport` (pre-live-cluster); kept
#: as a plain alias so existing imports and isinstance checks keep working.
SimulationReport = DeploymentReport


class DistributedRankingCoordinator:
    """Runs the layered ranking protocol over a simulated peer network.

    Parameters
    ----------
    docgraph:
        The global DocGraph being ranked.  Each peer only reads the local
        subgraphs of its own sites.
    n_peers:
        Number of peers (capped at the number of sites).
    architecture:
        ``"flat"`` or ``"super-peer"`` (see module docstring).
    partition_policy:
        How sites are assigned to peers.
    network:
        Latency/bandwidth parameters of the simulated network.
    damping / site_damping:
        Damping factors of the local DocRanks and the SiteRank.
    executor / n_jobs:
        Engine backend the peers' step 3 is *actually* executed on
        (serial by default).  It is the fit's own layout step, run by
        :func:`repro.engine.plan.solve_windows`, so every peer's local
        DocRanks are bitwise those of ``Ranker.fit``; the cost model
        charges each peer its sites' ``(n, nnz, iterations)``.
    """

    def __init__(self, docgraph: DocGraph, *, n_peers: int = 8,
                 architecture: Architecture = "flat",
                 partition_policy: PartitionPolicy = "balanced",
                 network: Optional[NetworkParameters] = None,
                 damping: float = DEFAULT_DAMPING,
                 site_damping: Optional[float] = None,
                 tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 executor: Optional[Executor] = None,
                 n_jobs: Optional[int] = None) -> None:
        if docgraph.n_documents == 0:
            raise SimulationError("cannot rank an empty DocGraph")
        if architecture not in ("flat", "super-peer"):
            raise SimulationError(f"unknown architecture {architecture!r}")
        self.docgraph = docgraph
        self.architecture: Architecture = architecture
        self.damping = damping
        self.site_damping = site_damping if site_damping is not None else damping
        self.tol = tol
        self.max_iter = max_iter
        self._executor_spec = (executor, n_jobs)
        self.assignment = partition_sites(docgraph, n_peers,
                                          policy=partition_policy)
        self.network = SimulatedNetwork(
            parameters=network or NetworkParameters())
        self.network.register(COORDINATOR)
        self.peers: Dict[str, Peer] = {}
        for peer_name, sites in self.assignment.items():
            self.network.register(peer_name)
            self.peers[peer_name] = Peer(name=peer_name, docgraph=docgraph,
                                         sites=sites)

    # ------------------------------------------------------------------ #
    def run(self) -> DeploymentReport:
        """Execute the protocol and return the full report."""
        network = self.network
        compute_seconds: Dict[str, float] = {name: 0.0 for name in self.peers}

        # Phase 0: the coordinator assigns sites to peers.
        for peer_name, peer in self.peers.items():
            network.send(AssignSitesMessage(sender=COORDINATOR,
                                            recipient=peer_name,
                                            sites=tuple(peer.sites)))

        # Phase 1a: peers summarise their outgoing SiteLinks.
        summaries = []
        for peer_name, peer in self.peers.items():
            summary = summarize_sitelinks(peer.docgraph, peer.sites,
                                          sender=peer_name,
                                          recipient=COORDINATOR)
            network.send(summary)
            summaries.append(summary)

        # Phase 1b: *in parallel*, peers compute their local DocRanks.  The
        # requests are tiny; the heavy lifting happens on the peers.  The
        # engine runs the fit's step 3 (measured wall-clock; only the
        # per-site half of a RankingPlan — the protocol derives its
        # SiteRank from the summaries in phase 2) while each peer's
        # simulated clock is charged the cost model's price for its sites.
        for peer_name, peer in self.peers.items():
            for site in peer.sites:
                network.send(ComputeLocalRankRequest(
                    sender=COORDINATOR, recipient=peer_name, site=site,
                    damping=self.damping, tol=self.tol,
                    max_iter=self.max_iter))
        graph = self.docgraph
        executor, n_jobs = self._executor_spec
        run = solve_windows(
            [sites_step(graph.site_blocks(), range(graph.n_sites),
                        graph.sites(), self.damping, tol=self.tol,
                        max_iter=self.max_iter)],
            executor=executor, n_jobs=n_jobs)
        nnz, site_index = graph.site_blocks().nnz, graph.registry.site_index
        for peer_name, peer in self.peers.items():
            for site in peer.sites:
                seconds = peer.adopt_local_rank(
                    site, run.local[site], int(nnz[site_index[site]]))
                network.compute(peer_name, seconds)
                compute_seconds[peer_name] += seconds

        # Phase 2: the coordinator assembles the SiteGraph from the summaries
        # and computes the SiteRank.  This happens concurrently with phase 1b
        # in a real deployment; the simulated clocks already model that,
        # because the coordinator's clock only waits for the (cheap) summary
        # messages, not for the local computations.
        sitegraph = self._assemble_sitegraph(summaries)
        site_result = siterank(sitegraph, self.site_damping, tol=self.tol,
                               max_iter=self.max_iter)
        coordinator_work = local_work_seconds(
            sitegraph.n_sites, int(sitegraph.adjacency.nnz),
            site_result.iterations)
        network.compute(COORDINATOR, coordinator_work)

        # Phase 3: aggregation, per architecture.
        site_scores = site_result.as_dict()
        if self.architecture == "flat":
            ranking = self._aggregate_flat(site_result)
        else:
            ranking = self._aggregate_superpeer(site_result, site_scores)

        serial = sum(compute_seconds.values()) + coordinator_work
        return DeploymentReport(
            ranking=ranking,
            siterank=site_result,
            architecture=self.architecture,
            n_peers=len(self.peers),
            message_count=network.log.count,
            total_bytes=network.log.total_bytes,
            messages_by_type=network.log.count_by_type(),
            bytes_by_type=network.log.bytes_by_type(),
            makespan_seconds=network.makespan,
            serial_compute_seconds=serial,
            coordinator_seconds=network.clock_of(COORDINATOR),
            per_peer_compute_seconds=compute_seconds,
            measured_wall_seconds=run.wall_seconds,
            executor_name=run.executor_name,
        )

    # ------------------------------------------------------------------ #
    def _assemble_sitegraph(self, summaries) -> SiteGraph:
        """Build the SiteGraph from the peers' SiteLink count summaries."""
        return assemble_sitegraph(
            self.docgraph,
            (triple for summary in summaries for triple in summary.counts))

    def _aggregate_flat(self, site_result: SiteRankResult) -> WebRankingResult:
        """Flat architecture: raw local vectors travel, coordinator weights them."""
        from ..web.pipeline import compose_ranking

        network = self.network
        # Peers ship each site's raw local DocRank to the coordinator.
        for peer_name, peer in self.peers.items():
            for site in peer.sites:
                message = peer.local_rank_message(site, COORDINATOR)
                network.send(message)
        network.barrier(self.peers.keys(), COORDINATOR)
        # The coordinator does the Theorem-2 multiplication through the same
        # step-5 composition as the centralized pipeline (global site order,
        # identical floating point operations).
        local_results = {
            site: next(peer for peer in self.peers.values()
                       if site in peer.sites).local_results[site]
            for site in self.docgraph.sites()
        }
        total_iterations = site_result.iterations + sum(
            r.iterations for r in local_results.values())
        ranking = compose_ranking(self.docgraph, self.docgraph.sites(),
                                  site_result, local_results,
                                  method="distributed-flat",
                                  iterations=total_iterations)
        # Aggregation cost: one multiplication per document.
        network.compute(COORDINATOR,
                        local_work_seconds(ranking.n_documents, 0, 1))
        return ranking

    def _aggregate_superpeer(self, site_result: SiteRankResult,
                             site_scores: Dict[str, float]) -> WebRankingResult:
        """Super-peer architecture: weighting happens on the peers."""
        network = self.network
        # The coordinator announces the SiteRank to every peer.
        announcement_sites = tuple(site_result.sites)
        announcement_scores = tuple(float(s) for s in site_result.scores)
        for peer_name in self.peers:
            network.send(SiteRankAnnouncement(sender=COORDINATOR,
                                              recipient=peer_name,
                                              sites=announcement_sites,
                                              scores=announcement_scores))
        # Peers weight locally and ship one shard each.
        shards = {}
        for peer_name, peer in self.peers.items():
            network.compute(peer_name, local_work_seconds(
                sum(len(peer.local_results[s].doc_ids) for s in peer.sites),
                0, 1))
            shard = peer.weighted_shard(site_scores, COORDINATOR)
            network.send(shard)
            shards[peer_name] = shard
        network.barrier(self.peers.keys(), COORDINATOR)

        score_by_doc: Dict[int, float] = {}
        for shard in shards.values():
            for doc_id, score in zip(shard.doc_ids, shard.scores):
                score_by_doc[doc_id] = score
        # Reassemble in the centralized pipeline's (site-major) order.
        doc_ids: List[int] = []
        local_results = {}
        for site in self.docgraph.sites():
            owner = next(peer for peer in self.peers.values()
                         if site in peer.sites)
            local = owner.local_results[site]
            local_results[site] = local
            doc_ids.extend(local.doc_ids)
        scores = normalize_distribution(
            np.asarray([score_by_doc[d] for d in doc_ids], dtype=float),
            name="distributed DocRank")
        all_urls = self.docgraph.registry.urls
        urls = [all_urls[d] for d in doc_ids]
        total_iterations = site_result.iterations + sum(
            r.iterations for r in local_results.values())
        return WebRankingResult(doc_ids=doc_ids, urls=urls, scores=scores,
                                method="distributed-super-peer",
                                siterank=site_result,
                                local_docranks=local_results,
                                iterations=total_iterations)
