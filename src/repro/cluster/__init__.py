"""Live deployment of the distributed layered ranking protocol.

Where :mod:`repro.distributed` *simulates* the peer network in-process
(modeled clocks, accounted bytes), this package moves the same protocol
over real sockets: the coordinator keeps its round in
:class:`~repro.distributed.coordinator.RoundState` and each peer process
answers through :class:`~repro.distributed.peer.Peer`, so the two
deployments differ only in transport and in what reality adds — a
durable job ledger for crash-resumable rounds, heartbeat failure
detection with site re-assignment, and graceful SIGTERM drains.  A live
round's scores are bitwise those of the serial reference — benchmark
E18 asserts exactly that, kill-a-peer run included.
"""

from .coordinator import ClusterCoordinator
from .ledger import JobLedger, score_digest
from .launch import (
    peer_command,
    reap,
    run_live_cluster,
    spawn_peer,
)
from .peer import ClusterPeer, run_peer
from .protocol import (
    COORDINATOR,
    DEFAULT_HEARTBEAT_SECONDS,
    DEFAULT_ROUND_TIMEOUT,
    HEARTBEAT_TIMEOUT_FACTOR,
    Goodbye,
    Heartbeat,
    JoinAck,
    JoinRequest,
    RoundComplete,
)

__all__ = [
    "ClusterCoordinator",
    "ClusterPeer",
    "run_peer",
    "JobLedger",
    "score_digest",
    "peer_command",
    "spawn_peer",
    "reap",
    "run_live_cluster",
    "COORDINATOR",
    "DEFAULT_HEARTBEAT_SECONDS",
    "DEFAULT_ROUND_TIMEOUT",
    "HEARTBEAT_TIMEOUT_FACTOR",
    "JoinRequest",
    "JoinAck",
    "Heartbeat",
    "RoundComplete",
    "Goodbye",
]
