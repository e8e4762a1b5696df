"""Control messages and constants of the live cluster protocol.

The live deployment is the simulator's protocol: the coordinator keeps
its round in :class:`~repro.distributed.coordinator.RoundState`, each peer
answers through :class:`~repro.distributed.peer.Peer`, and the ranking
messages of :mod:`repro.distributed.messages` travel over TCP exactly as
the simulator accounts them, which is what makes simulated and measured
wire bytes equal frame for frame.  This module adds only the *session*
messages real processes need on top: joining, heartbeats, round
completion and goodbyes.

Protocol flow (flat architecture, star topology around the coordinator)::

    peer                               coordinator
    ----                               -----------
    JoinRequest: graph digest  ---->
                               <----   JoinAck: name, round parameters
        ... coordinator waits for n_peers accepted joins ...
                               <----   AssignSitesMessage: sites
                               <----   ComputeLocalRankRequest × site
    SiteLinkSummary: sites     ---->
    Heartbeat (periodic)       ---->
    LocalRankResult × site     ---->
        ... SiteRank + composition on the coordinator ...
                               <----   RoundComplete
    Goodbye: wall seconds      ---->   (connection closes)

A peer that misses :data:`HEARTBEAT_TIMEOUT_FACTOR` heartbeat intervals —
or whose connection drops — is declared dead; its *pending* sites are
re-assigned to survivors via supplemental ``AssignSitesMessage`` +
request bursts (done sites stay done, their vectors are already durable
in the coordinator's ledger).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..distributed.codec import wire_message
from ..distributed.messages import COORDINATOR, Message

#: Default seconds between peer heartbeats.
DEFAULT_HEARTBEAT_SECONDS = 0.5

#: A peer is declared dead after this many heartbeat intervals of silence.
HEARTBEAT_TIMEOUT_FACTOR = 6.0

#: Default seconds a whole round may take before the coordinator gives up.
DEFAULT_ROUND_TIMEOUT = 300.0


@wire_message()
@dataclass(frozen=True)
class JoinRequest(Message):
    """Peer → coordinator: first message on a fresh connection.

    *graph_digest* is :func:`repro.io.docgraph_digest` of the peer's local
    copy of the web; the coordinator refuses peers ranking a different
    graph (a live deployment has no other way to notice divergent inputs).
    """

    peer_name: str = ""
    graph_digest: str = ""


@wire_message()
@dataclass(frozen=True)
class JoinAck(Message):
    """Coordinator → peer: admission decision plus the round parameters.

    The coordinator names the peer (*assigned_name* — logical names follow
    the partitioner's ``peer-0000`` scheme so live traffic matches the
    simulator byte-for-byte) and dictates every solver parameter, so all
    peers compute under one configuration regardless of their own flags.
    """

    accepted: bool = True
    reason: str = ""
    assigned_name: str = ""
    heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS
    damping: float = 0.85
    tol: float = 1e-10
    max_iter: int = 1000


@wire_message()
@dataclass(frozen=True)
class Heartbeat(Message):
    """Peer → coordinator: liveness beacon.

    *busy_seconds* is the peer's cumulative measured compute wall-clock,
    which is how per-peer wall times reach the
    :class:`~repro.distributed.coordinator.DeploymentReport` without a
    dedicated reporting message.
    """

    seq: int = 0
    busy_seconds: float = 0.0


@wire_message()
@dataclass(frozen=True)
class RoundComplete(Message):
    """Coordinator → peers: the round is over, disconnect after a goodbye."""

    makespan_seconds: float = 0.0


@wire_message()
@dataclass(frozen=True)
class Goodbye(Message):
    """Peer → coordinator: orderly leave (round complete or SIGTERM drain)."""

    reason: str = ""
    busy_seconds: float = 0.0
