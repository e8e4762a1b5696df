"""The protocol peer: one implementation for the simulator and the cluster.

A :class:`Peer` owns some web sites (the web servers / search peers of the
paper's deployment, Section 3.2) and reads only their local link
structure.  It has no transport: each handler takes one message and
returns the peer's answer, so the simulator's peers and the live
cluster's (:class:`~repro.cluster.peer.ClusterPeer`) are one peer.

The simulator charges local computation to its clocks with a cost model
proportional to the power method's work on the local subgraph
(iterations × non-zeros, :func:`local_work_seconds`), so its makespan
reflects the parallelism of the decomposition rather than Python's speed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..engine.plan import check_block_vector, fused_sites, sites_step
from ..engine.warm import WarmSource
from ..exceptions import ProtocolError, SimulationError
from ..web.docgraph import DocGraph
from ..web.docrank import LocalDocRank, LocalRanks
from ..web.sitegraph import aggregate_sitegraph
from .messages import (
    COORDINATOR,
    AggregatedRankShard,
    AssignSitesMessage,
    ComputeLocalRankRequest,
    LocalRankResult,
    SiteLinkSummary,
    SiteRankAnnouncement,
)

#: Simulated seconds charged per (iteration × non-zero entry) of a local
#: power-method run.  The absolute value is arbitrary; only ratios between
#: centralized and distributed runs matter for the benchmarks.
SECONDS_PER_ITER_NNZ: float = 2e-8


def local_work_seconds(n_documents: int, nnz: int, iterations: int) -> float:
    """Cost-model estimate of a power-method run's duration.

    ``iterations × (nnz + n)`` floating point operations at
    :data:`SECONDS_PER_ITER_NNZ` seconds each — the ``+ n`` term accounts
    for the teleportation/normalisation work per iteration.
    """
    return SECONDS_PER_ITER_NNZ * iterations * (nnz + n_documents)


def summarize_sitelinks(docgraph: DocGraph, sites: Iterable[str], *,
                        sender: str, recipient: str) -> SiteLinkSummary:
    """Count the outgoing SiteLinks of *sites*.

    Only counts leave the owner — no rank values — which is what allows
    the SiteRank computation to proceed in parallel with the local
    DocRanks.  The counts are the sites' rows of the fit's own
    :func:`~repro.web.sitegraph.aggregate_sitegraph`, as
    ``(source, target, count)`` triples sorted by site name.
    """
    own_sites = sorted(set(sites))
    adjacency = aggregate_sitegraph(docgraph).adjacency
    names, index = docgraph.sites(), docgraph.registry.site_index
    counts = []
    for source in own_sites:
        row = slice(adjacency.indptr[index[source]],
                    adjacency.indptr[index[source] + 1])
        counts.extend((source, names[target], int(count)) for target, count
                      in zip(adjacency.indices[row].tolist(),
                             adjacency.data[row].tolist()))
    return SiteLinkSummary(sender=sender, recipient=recipient,
                           counts=tuple(sorted(counts)),
                           sites=tuple(own_sites))


class Peer:
    """One peer of the protocol, named *name*, over its copy of the web.

    It only ever reads the local subgraphs of the sites it is assigned
    (mirroring a web server that stores its own documents).
    """

    def __init__(self, name: str, docgraph: DocGraph) -> None:
        self.name = name
        self.docgraph = docgraph
        #: Every site assigned so far, in assignment order.
        self.sites: List[str] = []
        #: The local DocRank of every site solved so far.
        self.local_results: Dict[str, LocalDocRank] = {}
        self._awaiting: Dict[str, None] = {}  # assigned, in no step yet
        self._requests: Dict[str, ComputeLocalRankRequest] = {}
        self._solving: Sequence[str] = ()  # the sites of the step in flight

    def on_assignment(self, message: AssignSitesMessage) -> SiteLinkSummary:
        """Take on the assigned sites; their SiteLink counts go back."""
        unknown = set(message.sites) - set(self.docgraph.registry.site_index)
        if unknown:
            raise ProtocolError(f"peer {self.name!r} was assigned unknown "
                                f"site {min(unknown)!r}")
        fresh = [site for site in dict.fromkeys(message.sites)
                 if site not in self._awaiting]
        self._awaiting.update(dict.fromkeys(fresh))
        self.sites.extend(fresh)
        return summarize_sitelinks(self.docgraph, message.sites,
                                   sender=self.name,
                                   recipient=message.sender)

    def on_request(self, message: ComputeLocalRankRequest):
        """Queue one request; ``None`` until the assignment is covered.

        Then one :func:`~repro.engine.plan.sites_step` over the sites,
        each of its kind in the whole web's schedule (so the results are
        bitwise the fit's), every wire start checked against its site.
        """
        if message.site not in self._awaiting:
            raise ProtocolError(f"peer {self.name!r} got a request for "
                                f"unassigned site {message.site!r}")
        self._requests[message.site] = message
        if len(self._requests) < len(self._awaiting):
            return None
        requests = [self._requests.pop(site) for site in self._awaiting]
        self._awaiting = {}
        blocks = self.docgraph.site_blocks()
        indices = [self.docgraph.registry.site_index[request.site]
                   for request in requests]
        previous = {}
        for request, index in zip(requests, indices):
            start = request.start_vector()
            if start is not None:
                doc_ids = blocks.site_doc_ids(index)
                check_block_vector(f"warm start of site {request.site!r} "
                                   f"on peer {self.name!r}",
                                   start, len(doc_ids))
                previous[request.site] = (doc_ids, start)
        kinds = fused_sites(np.diff(blocks.offsets).tolist())
        head = requests[0]
        step = sites_step(blocks, indices,
                          [request.site for request in requests],
                          head.damping,
                          fused=[kinds[index] for index in indices],
                          tol=head.tol, max_iter=head.max_iter,
                          warm=WarmSource(previous) if previous else None)
        self._solving = step.sites
        return step

    def on_solved(self, local: LocalRanks) -> List[LocalRankResult]:
        """Hold the solved step's DocRanks; their results go back."""
        if list(local.sites) != list(self._solving) or not local.sites:
            raise ProtocolError(
                f"peer {self.name!r} has no step in flight for sites "
                f"{list(local.sites)!r}")
        self._solving = ()
        results = []
        for site, rank in local.items():
            self.local_results[site] = rank
            results.append(LocalRankResult(
                sender=self.name, recipient=COORDINATOR, site=site,
                doc_ids=tuple(rank.doc_ids),
                scores=tuple(rank.scores.tolist()),
                iterations=rank.iterations))
        return results

    def on_announcement(self, message: SiteRankAnnouncement
                        ) -> AggregatedRankShard:
        """Weight the peer's local vectors by SiteRank and ship the shard.

        This is the super-peer / push-down aggregation flavour: the final
        multiplication of Theorem 2 happens at the peer, and only the
        already-weighted scores travel to the coordinator.
        """
        site_scores = dict(zip(message.sites, message.scores))
        doc_ids: List[int] = []
        scores: List[float] = []
        for site in self.sites:
            if site not in self.local_results:
                raise SimulationError(
                    f"peer {self.name!r} has no local result for site {site!r}")
            if site not in site_scores:
                raise SimulationError(
                    f"SiteRank announcement is missing site {site!r}")
            weight = site_scores[site]
            result = self.local_results[site]
            doc_ids.extend(result.doc_ids)
            scores.extend(float(weight * value) for value in result.scores)
        return AggregatedRankShard(sender=self.name,
                                   recipient=message.sender,
                                   doc_ids=tuple(doc_ids),
                                   scores=tuple(scores))

    def work_seconds(self, result: LocalRankResult) -> float:
        """The cost model's seconds for the solve behind *result*."""
        index = self.docgraph.registry.site_index[result.site]
        return local_work_seconds(
            len(result.doc_ids), int(self.docgraph.site_blocks().nnz[index]),
            result.iterations)
