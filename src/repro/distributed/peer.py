"""Peer and super-peer node behaviour.

A :class:`Peer` owns one or more web sites (it models the web servers /
search peers of the paper's deployment), holds only the *local* link
structure of those sites, and can

* summarise its outgoing SiteLinks (for the coordinator's SiteGraph —
  :func:`summarize_sitelinks`, shared with the live cluster),
* hold the local DocRank of each of its sites, which the execution engine
  computes and hands back (:meth:`Peer.adopt_local_rank`),
* weight its local vectors by the announced SiteRank (when aggregation is
  pushed down to the peers / super-peers).

Local computation time is charged to the simulated clock using a simple
cost model proportional to the work of the power method on the local
subgraph (iterations × non-zeros), so the makespan reported by the
simulation reflects the parallelism of the decomposition rather than
Python's actual speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..exceptions import SimulationError
from ..web.docgraph import DocGraph
from ..web.docrank import LocalDocRank
from .messages import (
    AggregatedRankShard,
    LocalRankResult,
    SiteLinkSummary,
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
    DocRanks.  The simulated peers, the live cluster peers and the live
    coordinator (for sites a resumed round never asks a peer about) all
    summarise through this one function, so their counts agree exactly.
    """
    own_sites = set(sites)
    counts: Dict[Tuple[str, str], int] = {}
    for source, target in docgraph.edges():
        source_site = docgraph.site_of_document(source)
        if source_site not in own_sites:
            continue
        target_site = docgraph.site_of_document(target)
        if target_site == source_site:
            continue
        key = (source_site, target_site)
        counts[key] = counts.get(key, 0) + 1
    summary = tuple((source, target, count)
                    for (source, target), count in sorted(counts.items()))
    return SiteLinkSummary(sender=sender, recipient=recipient,
                           counts=summary, sites=tuple(sorted(own_sites)))


@dataclass
class Peer:
    """A peer responsible for the local DocRank of its sites.

    Attributes
    ----------
    name:
        Peer identifier.
    docgraph:
        The *global* DocGraph; the peer only ever reads the local subgraphs
        of its own sites from it (mirroring a web server that stores its own
        documents).
    sites:
        The sites this peer owns.
    """

    name: str
    docgraph: DocGraph
    sites: List[str]
    local_results: Dict[str, LocalDocRank] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def adopt_local_rank(self, site: str, result: LocalDocRank,
                         nnz: int) -> float:
        """Install a local DocRank the execution engine computed for this peer.

        The coordinator runs every peer's sites through one engine batch,
        the fit's own layout step (see
        :class:`~repro.distributed.coordinator.DistributedRankingCoordinator`);
        the result is handed back to the owning peer here so subsequent
        message construction (:meth:`local_rank_message`,
        :meth:`weighted_shard`) behaves exactly as if the peer had computed
        it itself.  Returns the cost-model seconds the simulated clock must
        be charged for the run.
        """
        if site not in self.sites:
            raise SimulationError(
                f"peer {self.name!r} handed a rank for site {site!r} "
                "it does not own")
        self.local_results[site] = result
        return local_work_seconds(result.n_documents, nnz, result.iterations)

    def local_rank_message(self, site: str, recipient: str) -> LocalRankResult:
        """Package a previously computed local DocRank for transmission."""
        if site not in self.local_results:
            raise SimulationError(
                f"peer {self.name!r} has no local result for site {site!r}")
        result = self.local_results[site]
        return LocalRankResult(sender=self.name, recipient=recipient,
                               site=site, doc_ids=tuple(result.doc_ids),
                               scores=tuple(float(s) for s in result.scores),
                               iterations=result.iterations)

    # ------------------------------------------------------------------ #
    def weighted_shard(self, site_scores: Dict[str, float],
                       recipient: str) -> AggregatedRankShard:
        """Weight the peer's local vectors by SiteRank and ship the shard.

        This is the super-peer / push-down aggregation flavour: the final
        multiplication of Theorem 2 happens at the peer, and only the
        already-weighted scores travel to the coordinator.
        """
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
        return AggregatedRankShard(sender=self.name, recipient=recipient,
                                   doc_ids=tuple(doc_ids),
                                   scores=tuple(scores))
