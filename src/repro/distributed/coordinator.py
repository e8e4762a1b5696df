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

:class:`RoundState` is the coordinator's side of a round and
:class:`~repro.distributed.peer.Peer` the peers'; the simulator here and
the live :class:`~repro.cluster.coordinator.ClusterCoordinator` both run
them, and differ only in how messages travel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Sequence, Tuple

import numpy as np

from .._validation import normalize_distribution
from ..engine.executor import Executor
from ..engine.plan import solve_windows
from ..exceptions import ProtocolError, SimulationError
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..linalg.sparse_utils import coo_from_edges
from ..markov.irreducibility import DEFAULT_DAMPING
from ..web.docgraph import DocGraph
from ..web.docrank import LocalDocRank
from ..web.pipeline import WebRankingResult, compose_ranking
from ..web.sitegraph import SiteGraph
from ..web.siterank import SiteRankResult, siterank
from .messages import (
    COORDINATOR,
    AssignSitesMessage,
    ComputeLocalRankRequest,
    LocalRankResult,
    SiteLinkSummary,
    SiteRankAnnouncement,
)
from .network import NetworkParameters, SimulatedNetwork
from .partitioning import PartitionPolicy, partition_sites
from .peer import Peer, local_work_seconds, summarize_sitelinks

Architecture = Literal["flat", "super-peer"]


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
        *Measured* wall-clock of the peers' layout steps as executed by
        the engine on this machine — the empirical companion to the
        modeled ``makespan_seconds``, which charges the same solves.
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


class RoundState:
    """The coordinator's side of one round, in either deployment.

    It writes the assignment and request messages (starts from the
    ledger's warm state), tracks summary coverage, takes results into the
    :class:`~repro.cluster.ledger.JobLedger` (in memory without
    *ledger_path*), ranks the sites and composes step 5.  A resumed
    ledger's done sites come back bitwise, and their SiteLinks are
    counted here, since no peer is asked about them.
    """

    def __init__(self, docgraph: DocGraph, *, damping: float,
                 site_damping: float, tol: float, max_iter: int,
                 architecture: Architecture,
                 ledger_path: Optional[str] = None,
                 graph_digest: str = "") -> None:
        from ..cluster.ledger import JobLedger  # repro.cluster imports us

        self.docgraph = docgraph
        self.damping, self.site_damping = damping, site_damping
        self.tol, self.max_iter = tol, max_iter
        self.ledger = JobLedger.open(
            ledger_path, graph_digest=graph_digest,
            params={"damping": damping, "site_damping": site_damping,
                    "tol": tol, "max_iter": max_iter,
                    "architecture": architecture},
            sites=docgraph.sites())
        #: Every site's received (or resumed) local DocRank.
        self.local: Dict[str, LocalDocRank] = {}
        self._counts_by_source: Dict[str, Tuple] = {}
        resumed = self.ledger.resumed_sites
        for site in resumed:
            doc_ids, vector = self.ledger.warm.local_vector(site)
            self.local[site] = LocalDocRank(
                site=site, doc_ids=list(doc_ids), scores=vector,
                iterations=self.ledger.iterations_of(site))
        if resumed:
            self.on_summary(summarize_sitelinks(
                docgraph, resumed, sender=COORDINATOR,
                recipient=COORDINATOR))

    def assignment(self, peer: str,
                   sites: Sequence[str]) -> AssignSitesMessage:
        """*peer*'s assignment of *sites*, recorded in the ledger."""
        self.ledger.record_assignment(sites, peer)
        return AssignSitesMessage(sender=COORDINATOR, recipient=peer,
                                  sites=tuple(sites))

    def requests(self, peer: str, sites: Sequence[str]
                 ) -> List[ComputeLocalRankRequest]:
        """One compute request per site, started from the ledger."""
        starts = [self.ledger.warm.local_start(
            site, self.docgraph.documents_of_site(site)) for site in sites]
        return [ComputeLocalRankRequest(
            sender=COORDINATOR, recipient=peer, site=site,
            damping=self.damping, tol=self.tol, max_iter=self.max_iter,
            start=() if start is None else tuple(start.tolist()))
            for site, start in zip(sites, starts)]

    def on_summary(self, message: SiteLinkSummary) -> None:
        """Record SiteLink counts, first summary of a source site wins.

        After a re-assignment two peers may summarise the same site; the
        counts are identical (both derive from the same content-addressed
        graph), so first-wins keeps totals exact.
        """
        by_source: Dict[str, List[Tuple[str, str, int]]] = {
            site: [] for site in message.sites}
        for source, target, count in message.counts:
            by_source.setdefault(source, []).append((source, target, count))
        for source, triples in by_source.items():
            self._counts_by_source.setdefault(source, tuple(triples))

    @property
    def covered(self) -> bool:
        """Whether the summaries cover every site (the SiteRank can run)."""
        return all(site in self._counts_by_source
                   for site in self.docgraph.sites())

    def on_result(self, message: LocalRankResult) -> bool:
        """Take one site's local DocRank; ``False`` for a duplicate."""
        site = message.site
        if site not in self.ledger.jobs:
            raise ProtocolError(f"result for unknown site {site!r}")
        if site in self.local:
            return False  # duplicate after a false-positive death
        self.local[site] = LocalDocRank(
            site=site, doc_ids=list(message.doc_ids),
            scores=message.scores_array(), iterations=message.iterations)
        self.ledger.record_result(site, message.sender, message.doc_ids,
                                  message.scores, message.iterations)
        return True

    @property
    def done(self) -> bool:
        """Whether every site's local DocRank is in."""
        return len(self.local) == len(self.ledger.jobs)

    def rank_sites(self) -> Tuple[SiteGraph, SiteRankResult]:
        """The SiteGraph assembled from the summaries, and its SiteRank.

        It needs every site :attr:`covered` and link counts only, so it
        can run while the peers' local DocRanks are still converging.  The
        CSR orders the counts, so the SiteGraph is bitwise independent of
        how the summaries were split across peers, and equals the fit's.
        """
        sites, index = self.docgraph.sites(), self.docgraph.registry.site_index
        triples = [triple for site in sites
                   for triple in self._counts_by_source[site]]
        unknown = {target for _source, target, _count in triples
                   if target not in index}
        if unknown:
            raise ProtocolError(f"summary names unknown site {min(unknown)!r}")
        adjacency = coo_from_edges(
            [(index[source], index[target]) for source, target, _ in triples],
            len(sites), weights=[float(count) for *_, count in triples])
        sizes = self.docgraph.site_sizes()
        sitegraph = SiteGraph(sites=sites, adjacency=adjacency,
                              site_sizes=[sizes[site] for site in sites])
        return sitegraph, siterank(sitegraph, self.site_damping,
                                   tol=self.tol, max_iter=self.max_iter)

    def compose(self, site_result: SiteRankResult) -> WebRankingResult:
        """The shared step-5 composition (bitwise the centralized one)."""
        sites = self.docgraph.sites()
        local = {site: self.local[site] for site in sites}
        total_iterations = site_result.iterations + sum(
            rank.iterations for rank in local.values())
        return compose_ranking(self.docgraph, sites, site_result, local,
                               method="distributed-flat",
                               iterations=total_iterations)


class DistributedRankingCoordinator:
    """Runs the layered ranking protocol over a simulated peer network.

    Parameters
    ----------
    docgraph:
        The global DocGraph being ranked.
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
        Engine backend the peers' steps are *actually* executed on (serial
        by default): every peer's layout step is one window of one
        :func:`repro.engine.plan.solve_windows` call, so its local
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
        self._params = dict(
            damping=damping, tol=tol, max_iter=max_iter,
            site_damping=damping if site_damping is None else site_damping)
        self._executor_spec = (executor, n_jobs)
        self.assignment = partition_sites(docgraph, n_peers,
                                          policy=partition_policy)
        self.network = SimulatedNetwork(
            parameters=network or NetworkParameters())
        for node in (COORDINATOR, *self.assignment):
            self.network.register(node)

    # ------------------------------------------------------------------ #
    def run(self) -> DeploymentReport:
        """Execute the protocol and return the full report."""
        network = self.network
        peers = self.peers = {name: Peer(name, self.docgraph)
                              for name in self.assignment}
        state = RoundState(self.docgraph, architecture=self.architecture,
                           **self._params)

        # Phase 0: the coordinator assigns sites to peers.
        assignments = [state.assignment(name, sites)
                       for name, sites in self.assignment.items()]
        for message in assignments:
            network.send(message)

        # Phase 1a: peers summarise their outgoing SiteLinks.
        for message in assignments:
            summary = peers[message.recipient].on_assignment(message)
            network.send(summary)
            state.on_summary(summary)

        # Phase 1b: *in parallel*, peers compute their local DocRanks.  The
        # requests are tiny; a peer's last one yields its layout step.
        # Every step is one window of one engine run (measured wall-clock)
        # whose sink hands the window back to its peer, while each peer's
        # simulated clock is charged the cost model's price for its sites.
        steps = []
        for name, sites in self.assignment.items():
            for request in state.requests(name, sites):
                network.send(request)
                step = peers[name].on_request(request)
            steps.append(step)
        owners = iter(peers.values())
        results: Dict[str, List[LocalRankResult]] = {}

        def sink(step, collected) -> None:
            peer = next(owners)
            results[peer.name] = peer.on_solved(
                step.local_ranks(*collected[:2]))

        executor, n_jobs = self._executor_spec
        run = solve_windows(steps, sink=sink, executor=executor,
                            n_jobs=n_jobs)
        compute_seconds: Dict[str, float] = {name: 0.0 for name in peers}
        for name, peer in peers.items():
            for result in results[name]:
                seconds = peer.work_seconds(result)
                network.compute(name, seconds)
                compute_seconds[name] += seconds

        # Phase 2: the coordinator assembles the SiteGraph from the summaries
        # and computes the SiteRank.  This happens concurrently with phase 1b
        # in a real deployment; the simulated clocks already model that,
        # because the coordinator's clock only waits for the (cheap) summary
        # messages, not for the local computations.
        sitegraph, site_result = state.rank_sites()
        coordinator_work = local_work_seconds(
            sitegraph.n_sites, int(sitegraph.adjacency.nnz),
            site_result.iterations)
        network.compute(COORDINATOR, coordinator_work)

        # Phase 3: aggregation, per architecture.
        if self.architecture == "flat":
            # Raw local vectors travel; the coordinator weights them by the
            # centralized pipeline's own step-5 composition.
            for name in peers:
                for result in results[name]:
                    network.send(result)
                    state.on_result(result)
            network.barrier(peers, COORDINATOR)
            ranking = state.compose(site_result)
            # Aggregation cost: one multiplication per document.
            network.compute(COORDINATOR,
                            local_work_seconds(ranking.n_documents, 0, 1))
        else:
            ranking = self._aggregate_superpeer(site_result)

        serial = sum(compute_seconds.values()) + coordinator_work
        return DeploymentReport(
            ranking=ranking,
            siterank=site_result,
            architecture=self.architecture,
            n_peers=len(peers),
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

    def _aggregate_superpeer(self, site_result: SiteRankResult
                             ) -> WebRankingResult:
        """Super-peer architecture: weighting happens on the peers."""
        network = self.network
        announcements = [SiteRankAnnouncement(
            sender=COORDINATOR, recipient=name,
            sites=tuple(site_result.sites),
            scores=tuple(site_result.scores.tolist())) for name in self.peers]
        for message in announcements:
            network.send(message)
        # Peers weight locally and ship one shard each.
        score_by_doc: Dict[int, float] = {}
        for message in announcements:
            peer = self.peers[message.recipient]
            network.compute(peer.name, local_work_seconds(
                sum(len(peer.local_results[s].doc_ids) for s in peer.sites),
                0, 1))
            shard = peer.on_announcement(message)
            network.send(shard)
            score_by_doc.update(zip(shard.doc_ids, shard.scores))
        network.barrier(self.peers, COORDINATOR)
        # Reassemble in the centralized pipeline's (site-major) order.
        held = {site: rank for peer in self.peers.values()
                for site, rank in peer.local_results.items()}
        local = {site: held[site] for site in self.docgraph.sites()}
        doc_ids = [doc for rank in local.values() for doc in rank.doc_ids]
        scores = normalize_distribution(
            np.asarray([score_by_doc[d] for d in doc_ids], dtype=float),
            name="distributed DocRank")
        urls = self.docgraph.registry.urls
        return WebRankingResult(
            doc_ids=doc_ids, urls=[urls[d] for d in doc_ids], scores=scores,
            method="distributed-super-peer", siterank=site_result,
            local_docranks=local, iterations=site_result.iterations + sum(
                rank.iterations for rank in local.values()))
