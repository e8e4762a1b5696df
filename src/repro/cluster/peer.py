"""The live cluster peer: one OS process owning some sites' DocRanks.

A :class:`ClusterPeer` connects to the coordinator over TCP, registers,
and then mirrors what the simulator's in-process peers do — summarise
SiteLinks, compute local DocRanks as one layout step over its sites
(:func:`repro.engine.plan.sites_step`, each site of the kind the whole
web's fit gives it, run by :func:`repro.engine.plan.solve_windows`), stream
:class:`~repro.distributed.messages.LocalRankResult` frames back — except
every message now actually crosses a socket.  Because the compute path is
the fit's own, a live peer's scores are bitwise those of ``Ranker.fit``
for the same sites.

Compute runs in a worker thread (``asyncio.to_thread``) so heartbeats keep
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
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..distributed.codec import read_message, write_message
from ..distributed.messages import (
    AssignSitesMessage,
    ComputeLocalRankRequest,
    LocalRankResult,
)
from ..distributed.peer import summarize_sitelinks
from ..engine.plan import (
    check_block_vector,
    fused_sites,
    sites_step,
    solve_windows,
)
from ..engine.warm import WarmSource
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
        self.docgraph = docgraph
        self.host = host
        self.port = port
        self.requested_name = name
        self.fail_after = fail_after
        self.name = name or "peer"
        self.busy_seconds = 0.0
        self.sites_ranked = 0
        self._results_sent = 0
        self._awaiting: List[str] = []  # announced sites, not yet computed
        self._requests: Dict[str, ComputeLocalRankRequest] = {}
        self._drain = asyncio.Event()
        self._write_lock = asyncio.Lock()
        self._writer: Optional[asyncio.StreamWriter] = None

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
                graph_digest=docgraph_digest(self.docgraph)))
            ack, _nbytes = await read_message(reader)
            if not isinstance(ack, JoinAck):
                raise ProtocolError(
                    f"expected a JoinAck, got {type(ack).__name__}")
            if not ack.accepted:
                raise ProtocolError(f"coordinator refused join: {ack.reason}")
            self.name = ack.assigned_name or self.name
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
            if isinstance(message, AssignSitesMessage):
                await self._on_assignment(message)
            elif isinstance(message, ComputeLocalRankRequest):
                await self._on_request(message)
            elif isinstance(message, RoundComplete):
                await self._leave("round complete")
                return
            if self._drain.is_set():
                await self._leave("sigterm drain")
                return

    async def _on_assignment(self, message: AssignSitesMessage) -> None:
        """Accept sites and reply with their SiteLink summary."""
        fresh = [site for site in message.sites
                 if site not in self._awaiting]
        self._awaiting.extend(fresh)
        await self._send(summarize_sitelinks(
            self.docgraph, message.sites, sender=self.name,
            recipient=COORDINATOR))

    async def _on_request(self, message: ComputeLocalRankRequest) -> None:
        """Queue one site's request; compute when the assignment is covered."""
        if message.site not in self._awaiting:
            raise ProtocolError(
                f"request for unassigned site {message.site!r}")
        self._requests[message.site] = message
        if not all(site in self._requests for site in self._awaiting):
            return
        ready, self._awaiting = self._awaiting, []
        requests = {site: self._requests.pop(site) for site in ready}
        await self._compute_batch(ready, requests)

    async def _compute_batch(
            self, sites: List[str],
            requests: Dict[str, ComputeLocalRankRequest]) -> None:
        """Rank *sites* through the engine and stream the results back.

        One layout step over the sites' blocks, each site of its kind in
        the whole web's schedule, so the results are bitwise the fit's.
        Every wire start is checked against its site before anything
        runs, and reaches the solves through a :class:`WarmSource`.
        """
        head = requests[sites[0]]
        blocks = self.docgraph.site_blocks()
        indices = [self.docgraph.registry.site_index[site] for site in sites]
        previous = {}
        for site, index in zip(sites, indices):
            start = requests[site].start_vector()
            if start is not None:
                doc_ids = blocks.site_doc_ids(index)
                check_block_vector(
                    f"warm start of site {site!r} on peer {self.name!r}",
                    start, len(doc_ids))
                previous[site] = (doc_ids, start)
        kinds = fused_sites(np.diff(blocks.offsets).tolist())
        step = sites_step(blocks, indices, sites, head.damping,
                          fused=[kinds[index] for index in indices],
                          tol=head.tol, max_iter=head.max_iter,
                          warm=WarmSource(previous) if previous else None)
        run = await asyncio.to_thread(solve_windows, [step])
        self.busy_seconds += run.wall_seconds
        obs.observe("cluster_peer_batch_seconds", run.wall_seconds,
                    peer=self.name)
        for site, rank in run.local.items():
            await self._send(LocalRankResult(
                sender=self.name, recipient=COORDINATOR, site=site,
                doc_ids=tuple(rank.doc_ids),
                scores=tuple(rank.scores.tolist()),
                iterations=rank.iterations))
            self.sites_ranked += 1
            self._results_sent += 1
            obs.inc("cluster_peer_sites_ranked_total", peer=self.name)
            if (self.fail_after is not None
                    and self._results_sent >= self.fail_after):
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
