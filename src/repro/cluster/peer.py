"""The live cluster peer: one OS process owning some sites' DocRanks.

A :class:`ClusterPeer` connects to the coordinator over TCP, joins, and
hands every protocol message to the simulator's own
:class:`~repro.distributed.peer.Peer`, whose answers cross the socket;
the compute path is the fit's own, so a live peer's scores are bitwise
those of ``Ranker.fit``.  This class keeps only the socket session,
heartbeats, the SIGTERM drain and crash injection.

The step runs in a worker thread (``asyncio.to_thread``) so heartbeats keep
flowing while the power iterations grind; a SIGTERM drains — the current
batch finishes, results are sent, a ``Goodbye`` closes the session — and
``--fail-after N`` makes the process die abruptly (``os._exit``) after N
results, the deterministic stand-in for a mid-round crash that the fault
tolerance tests and benchmark E18 rely on.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Optional

from .. import obs
from ..distributed.codec import read_message, write_message
from ..distributed.messages import AssignSitesMessage, ComputeLocalRankRequest
from ..distributed.peer import Peer
from ..engine.plan import solve_windows
from ..exceptions import ProtocolError
from ..io import docgraph_digest
from ..web.docgraph import DocGraph
from .protocol import COORDINATOR, Goodbye, Heartbeat, JoinAck, JoinRequest, RoundComplete


class ClusterPeer:
    """One ranking peer process.

    Parameters
    ----------
    docgraph:
        The peer's copy of the web.  Must hash-match the coordinator's
        (checked at join); the peer only ever *reads* the local subgraphs
        of the sites it is assigned.
    host / port:
        The coordinator's listening address.
    name:
        Requested display name (the coordinator assigns the logical
        ``peer-0000``-style name actually used on the wire).
    fail_after:
        Crash the process (``os._exit(1)``) after sending this many
        results — deterministic fault injection for the recovery tests.
    """

    def __init__(self, docgraph: DocGraph, host: str, port: int, *,
                 name: str = "", fail_after: Optional[int] = None) -> None:
        self.protocol = Peer(name or "peer", docgraph)
        self.host = host
        self.port = port
        self.requested_name = name
        self.fail_after = fail_after
        self.busy_seconds = 0.0
        self.sites_ranked = 0
        self._drain = asyncio.Event()
        self._write_lock = asyncio.Lock()
        self._writer: Optional[asyncio.StreamWriter] = None

    @property
    def name(self) -> str:
        """The peer's name on the wire (the coordinator's, once joined)."""
        return self.protocol.name

    # ------------------------------------------------------------------ #
    async def run(self) -> int:
        """Join, serve one round, leave; returns the number of sites ranked."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        self._install_signal_handlers()
        heartbeat_task = None
        try:
            await self._send(JoinRequest(
                sender=self.name, recipient=COORDINATOR,
                peer_name=self.requested_name,
                graph_digest=docgraph_digest(self.protocol.docgraph)))
            ack, _nbytes = await read_message(reader)
            if not isinstance(ack, JoinAck):
                raise ProtocolError(
                    f"expected a JoinAck, got {type(ack).__name__}")
            if not ack.accepted:
                raise ProtocolError(f"coordinator refused join: {ack.reason}")
            self.protocol.name = ack.assigned_name or self.name
            heartbeat_task = asyncio.create_task(
                self._heartbeat_loop(ack.heartbeat_seconds))
            await self._session(reader)
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
        return self.sites_ranked

    # ------------------------------------------------------------------ #
    async def _session(self, reader: asyncio.StreamReader) -> None:
        """The peer's message loop: assignments in, results out."""
        while True:
            read = asyncio.ensure_future(read_message(reader))
            drain = asyncio.ensure_future(self._drain.wait())
            done, _pending = await asyncio.wait(
                {read, drain}, return_when=asyncio.FIRST_COMPLETED)
            if drain in done and read not in done:
                read.cancel()
                await self._leave("sigterm drain")
                return
            drain.cancel()
            try:
                message, _nbytes = read.result()
            except (asyncio.IncompleteReadError, ConnectionError):
                # Coordinator went away; nothing useful left to do.
                return
            if isinstance(message, RoundComplete):
                await self._leave("round complete")
                return
            await self._handle(message)
            if self._drain.is_set():
                await self._leave("sigterm drain")
                return

    async def _handle(self, message) -> None:
        """Answer one protocol message through the protocol peer."""
        if isinstance(message, AssignSitesMessage):
            await self._send(self.protocol.on_assignment(message))
        elif isinstance(message, ComputeLocalRankRequest):
            step = self.protocol.on_request(message)
            if step is not None:
                await self._solve(step)

    async def _solve(self, step) -> None:
        """Run the protocol peer's step and stream its results back."""
        run = await asyncio.to_thread(solve_windows, [step])
        self.busy_seconds += run.wall_seconds
        obs.observe("cluster_peer_batch_seconds", run.wall_seconds,
                    peer=self.name)
        for result in self.protocol.on_solved(run.local):
            await self._send(result)
            self.sites_ranked += 1
            obs.inc("cluster_peer_sites_ranked_total", peer=self.name)
            if (self.fail_after is not None
                    and self.sites_ranked >= self.fail_after):
                # Deterministic crash injection: die without goodbye,
                # without flushing, without cleanup — as a power cut would.
                os._exit(1)

    # ------------------------------------------------------------------ #
    async def _heartbeat_loop(self, interval: float) -> None:
        seq = 0
        while True:
            await asyncio.sleep(interval)
            seq += 1
            try:
                await self._send(Heartbeat(
                    sender=self.name, recipient=COORDINATOR, seq=seq,
                    busy_seconds=self.busy_seconds))
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                return

    async def _leave(self, reason: str) -> None:
        """Send the goodbye that closes the session cleanly."""
        try:
            await self._send(Goodbye(sender=self.name, recipient=COORDINATOR,
                                     reason=reason,
                                     busy_seconds=self.busy_seconds))
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass

    async def _send(self, message) -> None:
        assert self._writer is not None
        async with self._write_lock:
            nbytes = await write_message(self._writer, message)
        obs.inc("cluster_wire_bytes_total", float(nbytes), direction="out")

    def _install_signal_handlers(self) -> None:
        """SIGTERM → drain: finish the in-flight batch, say goodbye, exit."""
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, self._drain.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread or unsupported platform: rely on close


def run_peer(docgraph: DocGraph, host: str, port: int, *, name: str = "",
             fail_after: Optional[int] = None) -> int:
    """Blocking entry point: run one peer to completion; returns sites ranked."""
    peer = ClusterPeer(docgraph, host, port, name=name,
                       fail_after=fail_after)
    return asyncio.run(peer.run())
