"""Peer-to-peer deployment of the layered ranking computation.

The protocol has one implementation here: :class:`Peer` is the peer and
:class:`RoundState` the coordinator's round.  The simulator
(:class:`DistributedRankingCoordinator`) moves their messages through a
:class:`SimulatedNetwork` with modelled clocks; :mod:`repro.cluster`
moves the same messages over TCP between OS processes, encoded by the
wire codec in :mod:`repro.distributed.codec`.
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
    RoundState,
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
    "RoundState",
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
