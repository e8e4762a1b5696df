"""Message types of the distributed ranking protocol.

The peer-to-peer deployment (Section 3.2 of the paper: "DocRank
computations are performed by individual peers … SiteRank could be a shared
resource among all peers", or super-peer aggregation) exchanges a small set
of message types.  The same classes serve two transports:

* the **network simulator** (:mod:`repro.distributed.network`) records them
  in a :class:`MessageLog` to account bandwidth;
* the **live cluster** (:mod:`repro.cluster`) moves them over TCP through
  the binary wire codec (:mod:`repro.distributed.codec`).

:attr:`Message.size_bytes` reports the *actual encoded frame size* of the
codec (JSON envelope + raw little-endian buffers), so simulated byte
accounting and measured socket traffic agree by construction — benchmark
E18 asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .codec import encoded_size, wire_message

#: Node name of the coordinator, in the simulator and on the wire.
COORDINATOR = "coordinator"


@dataclass(frozen=True)
class Message:
    """Base class of all protocol messages."""

    sender: str
    recipient: str

    @property
    def size_bytes(self) -> int:
        """Actual wire size in bytes: the codec's encoded frame length.

        Cached per instance (messages are frozen, so the size cannot
        change); the simulator logs thousands of messages per run and must
        not re-encode on every :attr:`MessageLog.total_bytes` read.
        """
        cached = self.__dict__.get("_wire_size")
        if cached is None:
            cached = encoded_size(self)
            object.__setattr__(self, "_wire_size", cached)
        return cached


@wire_message()
@dataclass(frozen=True)
class AssignSitesMessage(Message):
    """Coordinator → peer: which web sites the peer is responsible for."""

    sites: Tuple[str, ...] = ()


@wire_message(buffers=(("start", "<f8"),))
@dataclass(frozen=True)
class ComputeLocalRankRequest(Message):
    """Coordinator/super-peer → peer: compute the local DocRank of one site.

    Only the site identifier and solver parameters travel; the peer
    already holds its own local link structure (it *is* the web server of
    that site), which is the whole point of the decomposition.  *start*
    optionally seeds the peer's power iteration with a previously
    converged vector (warm start, in the site's local document order) —
    empty means cold start.
    """

    site: str = ""
    damping: float = 0.85
    tol: float = 1e-10
    max_iter: int = 1000
    start: Tuple[float, ...] = ()

    def start_vector(self) -> Optional[np.ndarray]:
        """The warm-start vector as a numpy array (``None`` when cold)."""
        if not self.start:
            return None
        return np.asarray(self.start, dtype=float)


@wire_message(buffers=(("doc_ids", "<i8"), ("scores", "<f8")))
@dataclass(frozen=True)
class LocalRankResult(Message):
    """Peer → aggregator: the local DocRank vector of one site."""

    site: str = ""
    doc_ids: Tuple[int, ...] = ()
    scores: Tuple[float, ...] = ()
    iterations: int = 0

    def scores_array(self) -> np.ndarray:
        """The scores as a numpy vector."""
        return np.asarray(self.scores, dtype=float)


@wire_message()
@dataclass(frozen=True)
class SiteLinkSummary(Message):
    """Peer → coordinator: outgoing SiteLink counts of the peer's sites.

    This is all the coordinator needs to assemble the SiteGraph — link
    *counts*, never local rank values, which is exactly the property that
    distinguishes the LMM from BlockRank and keeps the two layers
    independent.
    """

    counts: Tuple[Tuple[str, str, int], ...] = ()
    #: Sites the summary covers (including sites with no outgoing links);
    #: the live coordinator uses this to track summary coverage across
    #: crashed-peer re-assignments.
    sites: Tuple[str, ...] = ()


@wire_message(buffers=(("scores", "<f8"),))
@dataclass(frozen=True)
class SiteRankAnnouncement(Message):
    """Coordinator → peers: the global SiteRank vector (a shared resource)."""

    sites: Tuple[str, ...] = ()
    scores: Tuple[float, ...] = ()


@wire_message(buffers=(("doc_ids", "<i8"), ("scores", "<f8")))
@dataclass(frozen=True)
class AggregatedRankShard(Message):
    """Super-peer → coordinator: the site-weighted scores of its sites."""

    doc_ids: Tuple[int, ...] = ()
    scores: Tuple[float, ...] = ()


@dataclass
class MessageLog:
    """Accumulates traffic statistics for a deployment run.

    Sizes are the codec's actual encoded frame sizes.  The live cluster
    passes the byte count it measured at the socket via *wire_bytes* so
    logged traffic is never re-encoded; the simulator lets
    :attr:`Message.size_bytes` (the same encoding) fill it in.
    """

    messages: List[Message] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)

    def record(self, message: Message,
               wire_bytes: Optional[int] = None) -> None:
        """Append a message (and its on-the-wire size) to the log."""
        self.messages.append(message)
        self.sizes.append(int(wire_bytes) if wire_bytes is not None
                          else message.size_bytes)

    @property
    def count(self) -> int:
        """Total number of messages sent."""
        return len(self.messages)

    @property
    def total_bytes(self) -> int:
        """Total bytes on the wire."""
        return sum(self.sizes)

    def count_by_type(self) -> Dict[str, int]:
        """Number of messages per message class name."""
        counts: Dict[str, int] = {}
        for message in self.messages:
            name = type(message).__name__
            counts[name] = counts.get(name, 0) + 1
        return counts

    def bytes_by_type(self) -> Dict[str, int]:
        """Bytes on the wire per message class name."""
        totals: Dict[str, int] = {}
        for message, size in zip(self.messages, self.sizes):
            name = type(message).__name__
            totals[name] = totals.get(name, 0) + size
        return totals
