"""Peer-to-peer deployment of the layered ranking computation.

Historically simulation-only; the message hierarchy now also travels over
real TCP sockets between OS processes via :mod:`repro.cluster`, encoded by
the wire codec in :mod:`repro.distributed.codec`.
"""

from .codec import (
    decode_frame,
    decode_message,
    encode_message,
    encoded_size,
    registered_message_types,
)
from .coordinator import (
    COORDINATOR,
    Architecture,
    DeploymentReport,
    DistributedRankingCoordinator,
    SimulationReport,
)
from .cost import (
    CostBreakdown,
    CostComparison,
    centralized_cost,
    compare_costs,
    layered_cost,
    power_method_flops,
)
from .messages import (
    AggregatedRankShard,
    AssignSitesMessage,
    ComputeLocalRankRequest,
    LocalRankResult,
    Message,
    MessageLog,
    SiteLinkSummary,
    SiteRankAnnouncement,
)
from .network import NetworkParameters, SimulatedNetwork
from .partitioning import (
    assignment_load,
    partition_sites,
    peer_of_site,
)
from .peer import Peer, local_work_seconds, summarize_sitelinks

__all__ = [
    "COORDINATOR",
    "Architecture",
    "DeploymentReport",
    "DistributedRankingCoordinator",
    "SimulationReport",
    "CostBreakdown",
    "CostComparison",
    "centralized_cost",
    "compare_costs",
    "layered_cost",
    "power_method_flops",
    "AggregatedRankShard",
    "AssignSitesMessage",
    "ComputeLocalRankRequest",
    "LocalRankResult",
    "Message",
    "MessageLog",
    "SiteLinkSummary",
    "SiteRankAnnouncement",
    "NetworkParameters",
    "SimulatedNetwork",
    "assignment_load",
    "partition_sites",
    "peer_of_site",
    "Peer",
    "local_work_seconds",
    "summarize_sitelinks",
    "decode_frame",
    "decode_message",
    "encode_message",
    "encoded_size",
    "registered_message_types",
]
