"""Analytical cost model: centralized PageRank vs the layered decomposition.

Section 2.3.3 of the paper contrasts the layered aggregation — "only
O(N_P) multiplications are necessary" after the per-layer computations —
with "a large number of multiplications of two N_P × N_P matrices until the
resulting vector converges".  This module quantifies that comparison with
floating-point-operation counts derived from the structures actually built
by the library, so the scaling benchmark (E8) can report the shape of the
cost curves without depending on Python's constant factors.

Flop conventions (per power-method iteration):

* a sparse matrix-vector product costs ``2 · nnz``;
* teleportation / dangling corrections and normalisation cost ``~5 · n``;
* the final layered aggregation costs ``N_D`` multiplications (one per
  document), executed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..engine.adaptive import power_method_flops  # noqa: F401  (re-export)
from ..exceptions import ValidationError
from ..web.docgraph import DocGraph
from ..web.sitegraph import aggregate_sitegraph


@dataclass
class CostBreakdown:
    """Flop counts of one ranking strategy on one graph.

    Attributes
    ----------
    strategy:
        ``"centralized-pagerank"`` or ``"layered"``.
    global_flops:
        Work performed on a single (central) node that cannot be
        parallelised over sites.
    local_flops_total:
        Total work of all per-site computations.
    local_flops_max:
        The largest single-site computation — the critical path of the
        parallel phase when every site has its own peer.
    aggregation_flops:
        Work of the final composition step.
    """

    strategy: str
    global_flops: float
    local_flops_total: float
    local_flops_max: float
    aggregation_flops: float

    @property
    def total_flops(self) -> float:
        """All work, as if executed serially on one machine."""
        return (self.global_flops + self.local_flops_total
                + self.aggregation_flops)

    @property
    def critical_path_flops(self) -> float:
        """Work on the critical path of a fully parallel deployment."""
        return (self.global_flops + self.local_flops_max
                + self.aggregation_flops)


def centralized_cost(docgraph: DocGraph, iterations: int) -> CostBreakdown:
    """Cost of flat PageRank over the whole DocGraph."""
    adjacency = docgraph.adjacency()
    flops = power_method_flops(docgraph.n_documents, int(adjacency.nnz),
                               iterations)
    return CostBreakdown(strategy="centralized-pagerank", global_flops=flops,
                         local_flops_total=0.0, local_flops_max=0.0,
                         aggregation_flops=0.0)


def layered_cost(docgraph: DocGraph, *,
                 site_iterations: int,
                 local_iterations: Dict[str, int],
                 include_aggregation: bool = True) -> CostBreakdown:
    """Cost of the layered method with measured per-site iteration counts.

    Parameters
    ----------
    site_iterations:
        Iterations of the SiteRank power method.
    local_iterations:
        Iterations of each site's local DocRank run (as reported by
        :class:`repro.web.docrank.LocalDocRank`).
    """
    sitegraph = aggregate_sitegraph(docgraph)
    global_flops = power_method_flops(sitegraph.n_sites,
                                      int(sitegraph.adjacency.nnz),
                                      site_iterations)
    local_total = 0.0
    local_max = 0.0
    for site in docgraph.sites():
        if site not in local_iterations:
            raise ValidationError(f"missing iteration count for site {site!r}")
        local_adjacency, doc_ids = docgraph.local_block(site)
        flops = power_method_flops(len(doc_ids), int(local_adjacency.nnz),
                                   local_iterations[site])
        local_total += flops
        local_max = max(local_max, flops)
    aggregation = float(docgraph.n_documents) if include_aggregation else 0.0
    return CostBreakdown(strategy="layered", global_flops=global_flops,
                         local_flops_total=local_total,
                         local_flops_max=local_max,
                         aggregation_flops=aggregation)


@dataclass
class CostComparison:
    """Side-by-side cost of the two strategies on one graph."""

    centralized: CostBreakdown
    layered: CostBreakdown

    @property
    def serial_speedup(self) -> float:
        """Centralized flops / layered total flops (single-machine view)."""
        if self.layered.total_flops == 0:
            return float("inf")
        return self.centralized.total_flops / self.layered.total_flops

    @property
    def parallel_speedup(self) -> float:
        """Centralized flops / layered critical-path flops (P2P view).

        This is the quantity the paper's scalability argument is about: with
        one peer per site, the layered method's wall-clock work is the
        SiteRank plus the *largest* single site, not the whole web.
        """
        if self.layered.critical_path_flops == 0:
            return float("inf")
        return self.centralized.total_flops / self.layered.critical_path_flops


def compare_costs(docgraph: DocGraph, *, centralized_iterations: int,
                  site_iterations: int,
                  local_iterations: Dict[str, int],
                  ) -> CostComparison:
    """Build a :class:`CostComparison` from measured iteration counts."""
    return CostComparison(
        centralized=centralized_cost(docgraph, centralized_iterations),
        layered=layered_cost(docgraph, site_iterations=site_iterations,
                             local_iterations=local_iterations),
    )
