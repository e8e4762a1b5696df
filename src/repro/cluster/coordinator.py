"""The live cluster coordinator: real rounds over real sockets.

:class:`ClusterCoordinator` runs the same flat-architecture protocol as
the simulator's :class:`~repro.distributed.coordinator.DistributedRankingCoordinator`,
but against peers that are separate OS processes on TCP.  Sites are
assigned to peers by
:func:`~repro.distributed.partitioning.partition_sites`, each peer runs
its sites' step 3 as the fit's scheduler does (one layout step, every
site of its whole-web kind), the SiteRank is assembled from the peers'
SiteLink summaries exactly as in the simulation, and the final
composition is the shared step-5 code — which is why a live round's
scores are bitwise those of ``Ranker.fit``.

Reality adds what the simulation never needed:

* **a durable job ledger** (:class:`~repro.cluster.ledger.JobLedger`) —
  every assignment and result is persisted (atomic write-then-rename), so
  a restarted coordinator resumes the round instead of recomputing;
* **failure detection** — per-peer heartbeats with a timeout, plus
  immediate EOF detection; a dead peer's *pending* sites are re-assigned
  to survivors (its done sites stay done);
* **measured time** — the report's makespan is wall-clock, not a model,
  and per-peer compute times are what the peers measured themselves.

The returned :class:`~repro.distributed.coordinator.DeploymentReport` has
``mode="live"``, so simulated and live runs of the same web are directly
comparable — benchmark E18 does exactly that.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..distributed.codec import encode_message, read_message, write_message
from ..distributed.coordinator import DeploymentReport, assemble_sitegraph
from ..distributed.messages import (
    AssignSitesMessage,
    ComputeLocalRankRequest,
    LocalRankResult,
    MessageLog,
    SiteLinkSummary,
)
from ..distributed.partitioning import PartitionPolicy, partition_sites
from ..distributed.peer import summarize_sitelinks
from ..exceptions import ProtocolError, SimulationError
from ..io import docgraph_digest
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..markov.irreducibility import DEFAULT_DAMPING
from ..serving.frontend import (
    encode_response,
    read_request_head,
    start_bounded_server,
)
from ..serving.httpd import ClientError
from ..web.docgraph import DocGraph
from ..web.docrank import LocalDocRank
from ..web.pipeline import WebRankingResult, compose_ranking
from ..web.siterank import SiteRankResult, siterank
from .ledger import JobLedger
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


class _PeerSession:
    """Coordinator-side state of one connected peer."""

    def __init__(self, name: str, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.name = name
        self.reader = reader
        self.writer = writer
        self.alive = True
        self.said_goodbye = False
        self.last_seen = time.monotonic()
        self.busy_seconds = 0.0
        self.assigned: Set[str] = set()
        self.write_lock = asyncio.Lock()


class ClusterCoordinator:
    """Coordinates one live ranking round over TCP peers.

    Usage::

        coordinator = ClusterCoordinator(graph, n_peers=3)
        await coordinator.start()          # binds; coordinator.port is real
        ... launch peer processes pointed at coordinator.port ...
        report = await coordinator.wait()  # runs the round to completion

    or ``await coordinator.run()`` when the peers connect on their own.
    Only the flat architecture is deployed live (the super-peer flavour
    remains simulation-only).  Peers solve their sites as the fit's
    layout step does, each site of its whole-web kind, as the simulator's
    peers do, so the round's scores equal the fit's and the simulator's
    bit for bit.
    """

    def __init__(self, docgraph: DocGraph, *, host: str = "127.0.0.1",
                 port: int = 0, n_peers: int = 3,
                 partition_policy: PartitionPolicy = "balanced",
                 damping: float = DEFAULT_DAMPING,
                 site_damping: Optional[float] = None,
                 tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 ledger_path: Optional[str] = None,
                 heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
                 round_timeout: float = DEFAULT_ROUND_TIMEOUT) -> None:
        if docgraph.n_documents == 0:
            raise SimulationError("cannot rank an empty DocGraph")
        self.docgraph = docgraph
        self.host = host
        self.port = port
        self.damping = damping
        self.site_damping = site_damping if site_damping is not None \
            else damping
        self.tol = tol
        self.max_iter = max_iter
        self.heartbeat_seconds = heartbeat_seconds
        self.round_timeout = round_timeout
        self.graph_digest = docgraph_digest(docgraph)
        self.assignment = partition_sites(docgraph, n_peers,
                                          policy=partition_policy)
        self.ledger = JobLedger.open(
            ledger_path, graph_digest=self.graph_digest,
            params={"damping": damping, "site_damping": self.site_damping,
                    "tol": tol, "max_iter": max_iter,
                    "architecture": "flat"},
            sites=docgraph.sites())
        self.log = MessageLog()

        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self.metrics_port: Optional[int] = None
        self._sessions: List[_PeerSession] = []
        self._session_of: Dict[str, _PeerSession] = {}
        self._reader_tasks: List[asyncio.Task] = []
        self._staffed = asyncio.Event()
        self._results_done = asyncio.Event()
        self._counts_by_source: Dict[str, Tuple] = {}
        self._local: Dict[str, LocalDocRank] = {}
        self._request_sent_at: Dict[str, float] = {}
        self._siterank_started = asyncio.Event()
        self._siterank_result: Optional[Tuple[SiteRankResult, float]] = None
        self._reassigned: List[str] = []
        self._round_active = False
        self._finished = False
        self._error: Optional[BaseException] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._siterank_task: Optional[asyncio.Task] = None

        if len(self.ledger.resumed_sites) > 0:
            # Resumed sites are never re-assigned, so no peer will summarise
            # them; derive their SiteLink counts locally (identical code,
            # identical counts — the graph is content-addressed).
            self._recover_resumed_state()

    # ------------------------------------------------------------------ #
    @property
    def n_slots(self) -> int:
        """Peers the round is staffed with (partition names available)."""
        return len(self.assignment)

    @property
    def address(self) -> str:
        """``host:port`` the coordinator listens on (after :meth:`start`)."""
        return f"{self.host}:{self.port}"

    async def start(self, *, metrics_port: Optional[int] = None) -> None:
        """Bind the listening socket (and optionally the /metrics surface)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if metrics_port is not None:
            self._metrics_server = await start_bounded_server(
                self._handle_metrics, self.host, metrics_port)
            self.metrics_port = \
                self._metrics_server.sockets[0].getsockname()[1]

    async def run(self, *, metrics_port: Optional[int] = None
                  ) -> DeploymentReport:
        """:meth:`start` + :meth:`wait` in one call."""
        await self.start(metrics_port=metrics_port)
        return await self.wait()

    async def wait(self) -> DeploymentReport:
        """Run the round to completion and return the live report."""
        if self._server is None:
            raise ProtocolError("coordinator not started")
        started = time.monotonic()
        try:
            return await asyncio.wait_for(self._round(),
                                          timeout=self.round_timeout)
        except asyncio.TimeoutError:
            raise ProtocolError(
                f"round did not complete within {self.round_timeout}s "
                f"({len(self.ledger.pending_sites())} sites pending after "
                f"{time.monotonic() - started:.1f}s)") from None
        finally:
            await self._shutdown()

    # ------------------------------------------------------------------ #
    async def _round(self) -> DeploymentReport:
        await self._staffed.wait()
        self._raise_on_error()
        round_start = time.monotonic()
        self._round_active = True
        self._monitor_task = asyncio.create_task(self._monitor_heartbeats())

        pending = set(self.ledger.pending_sites())
        for session in list(self._sessions):
            if not session.alive:
                continue
            # Assignment-list order, not site order: it is what the
            # simulator sends, so fault-free live frames match it bytewise.
            sites = [site for site in self.assignment.get(session.name, [])
                     if site in pending]
            await self._assign(session, sites)
        # A peer that died during staffing (or n_peers > joined slots)
        # leaves its partition unowned; treat those sites as orphans now.
        await self._dispatch_orphans()
        self._maybe_start_siterank()

        await self._results_done.wait()
        self._raise_on_error()
        site_result, coordinator_seconds = await self._finish_siterank()

        compose_started = time.perf_counter()
        ranking = await asyncio.to_thread(self._compose, site_result)
        coordinator_seconds += time.perf_counter() - compose_started
        makespan = time.monotonic() - round_start
        self._finished = True

        await self._broadcast_round_complete(makespan)
        self.ledger.mark_complete()

        per_peer = {session.name: session.busy_seconds
                    for session in self._sessions}
        obs.set_gauge("cluster_round_makespan_seconds", makespan)
        return DeploymentReport(
            ranking=ranking,
            siterank=site_result,
            architecture="flat",
            n_peers=len(self._sessions),
            message_count=self.log.count,
            total_bytes=self.log.total_bytes,
            messages_by_type=self.log.count_by_type(),
            bytes_by_type=self.log.bytes_by_type(),
            makespan_seconds=makespan,
            serial_compute_seconds=sum(per_peer.values())
            + coordinator_seconds,
            coordinator_seconds=coordinator_seconds,
            per_peer_compute_seconds=dict(per_peer),
            measured_wall_seconds=makespan,
            executor_name="cluster",
            mode="live",
            per_peer_wall_seconds=dict(per_peer),
            reassigned_sites=tuple(self._reassigned),
        )

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            message, nbytes = await read_message(reader)
        except (asyncio.IncompleteReadError, ConnectionError, ProtocolError):
            writer.close()
            return
        if not isinstance(message, JoinRequest):
            writer.close()
            return
        self._record(message, nbytes)
        if self._finished:
            await self._refuse(writer, message, "round already complete")
            return
        if message.graph_digest != self.graph_digest:
            await self._refuse(
                writer, message,
                f"graph digest mismatch (coordinator has "
                f"{self.graph_digest}, peer has {message.graph_digest})")
            return
        name = self._next_logical_name()
        session = _PeerSession(name, reader, writer)
        self._sessions.append(session)
        self._session_of[name] = session
        ack = JoinAck(sender=COORDINATOR, recipient=name, accepted=True,
                      assigned_name=name,
                      heartbeat_seconds=self.heartbeat_seconds,
                      damping=self.damping, tol=self.tol,
                      max_iter=self.max_iter)
        await self._send(session, ack)
        obs.inc("cluster_peers_joined_total")
        if (not self._staffed.is_set()
                and sum(s.alive for s in self._sessions) >= self.n_slots):
            self._staffed.set()
        if self._round_active:
            # Late joiner (e.g. a restarted peer process): it becomes a
            # target for orphaned pending work immediately.
            await self._dispatch_orphans()
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.append(task)
        await self._session_loop(session)

    def _next_logical_name(self) -> str:
        index = len(self._sessions)
        names = list(self.assignment)
        if index < len(names):
            return names[index]
        return f"peer-{index:04d}"

    async def _refuse(self, writer: asyncio.StreamWriter,
                      request: JoinRequest, reason: str) -> None:
        refusal = JoinAck(sender=COORDINATOR,
                          recipient=request.peer_name or "peer",
                          accepted=False, reason=reason)
        frame = encode_message(refusal)
        self._record(refusal, len(frame))
        try:
            await write_message(writer, refusal, frame=frame)
        finally:
            writer.close()

    async def _session_loop(self, session: _PeerSession) -> None:
        """Dispatch one peer's incoming messages until it leaves or dies."""
        try:
            while True:
                message, nbytes = await read_message(session.reader)
                self._record(message, nbytes)
                obs.inc("cluster_wire_bytes_total", float(nbytes),
                        direction="in")
                session.last_seen = time.monotonic()
                if isinstance(message, Heartbeat):
                    session.busy_seconds = max(session.busy_seconds,
                                               message.busy_seconds)
                elif isinstance(message, SiteLinkSummary):
                    self._on_summary(message)
                elif isinstance(message, LocalRankResult):
                    self._on_result(session, message)
                elif isinstance(message, Goodbye):
                    session.said_goodbye = True
                    session.busy_seconds = max(session.busy_seconds,
                                               message.busy_seconds)
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except ProtocolError:
            pass  # malformed frame: treat the peer as failed
        finally:
            if not session.said_goodbye and not self._finished:
                await self._peer_dead(session)
            else:
                session.alive = False

    # ------------------------------------------------------------------ #
    # Protocol phases
    # ------------------------------------------------------------------ #
    async def _assign(self, session: _PeerSession,
                      sites: List[str]) -> None:
        """Send one peer its assignment and the per-site compute requests."""
        if not sites:
            return
        session.assigned.update(sites)
        await self._send(session, AssignSitesMessage(
            sender=COORDINATOR, recipient=session.name,
            sites=tuple(sites)))
        for site in sites:
            self.ledger.record_assignment(site, session.name)
        for site in sites:
            start = self.ledger.warm.local_start(
                site, self.docgraph.documents_of_site(site))
            request = ComputeLocalRankRequest(
                sender=COORDINATOR, recipient=session.name, site=site,
                damping=self.damping, tol=self.tol, max_iter=self.max_iter,
                start=() if start is None
                else tuple(float(v) for v in start))
            self._request_sent_at[site] = time.monotonic()
            await self._send(session, request)

    def _on_summary(self, message: SiteLinkSummary) -> None:
        """Record SiteLink counts, deduplicating per source site.

        After a re-assignment two peers may summarise the same site; the
        counts are identical (both derive from the same content-addressed
        graph), so first-wins is safe and keeps totals exact.
        """
        by_source: Dict[str, List[Tuple[str, str, int]]] = {
            site: [] for site in message.sites}
        for source, target, count in message.counts:
            by_source.setdefault(source, []).append((source, target, count))
        for source, triples in by_source.items():
            self._counts_by_source.setdefault(source, tuple(triples))
        self._maybe_start_siterank()

    def _on_result(self, session: _PeerSession,
                   message: LocalRankResult) -> None:
        site = message.site
        if site not in self.ledger.jobs:
            raise ProtocolError(f"result for unknown site {site!r}")
        if site in self._local:
            return  # duplicate after a false-positive death: first wins
        self._local[site] = LocalDocRank(
            site=site, doc_ids=list(message.doc_ids),
            scores=message.scores_array(), iterations=message.iterations)
        self.ledger.record_result(site, session.name, message.doc_ids,
                                  message.scores, message.iterations)
        sent_at = self._request_sent_at.get(site)
        if sent_at is not None:
            obs.observe("cluster_site_roundtrip_seconds",
                        time.monotonic() - sent_at, peer=session.name)
        if not self.ledger.pending_sites():
            self._results_done.set()

    def _maybe_start_siterank(self) -> None:
        """Kick off the SiteRank as soon as summary coverage is complete.

        This is the paper's decisive concurrency: the SiteRank needs link
        counts only, so it runs while the peers' local DocRanks are still
        converging.
        """
        if self._siterank_started.is_set():
            return
        if not all(site in self._counts_by_source
                   for site in self.docgraph.sites()):
            return
        self._siterank_started.set()
        self._siterank_task = asyncio.create_task(
            asyncio.to_thread(self._compute_siterank))

    def _compute_siterank(self) -> Tuple[SiteRankResult, float]:
        started = time.perf_counter()
        sitegraph = assemble_sitegraph(
            self.docgraph,
            (triple for site in self.docgraph.sites()
             for triple in self._counts_by_source[site]))
        result = siterank(sitegraph, self.site_damping, tol=self.tol,
                          max_iter=self.max_iter)
        return result, time.perf_counter() - started

    async def _finish_siterank(self) -> Tuple[SiteRankResult, float]:
        if self._siterank_task is None:
            raise ProtocolError(
                "round results complete but SiteLink summaries never "
                "covered every site")
        return await self._siterank_task

    def _compose(self, site_result: SiteRankResult) -> WebRankingResult:
        """The shared step-5 composition (bitwise the centralized one)."""
        local = {site: self._local[site] for site in self.docgraph.sites()}
        total_iterations = site_result.iterations + sum(
            rank.iterations for rank in local.values())
        return compose_ranking(self.docgraph, self.docgraph.sites(),
                               site_result, local,
                               method="distributed-flat",
                               iterations=total_iterations)

    # ------------------------------------------------------------------ #
    # Fault tolerance
    # ------------------------------------------------------------------ #
    async def _monitor_heartbeats(self) -> None:
        timeout = self.heartbeat_seconds * HEARTBEAT_TIMEOUT_FACTOR
        while not self._finished:
            await asyncio.sleep(self.heartbeat_seconds / 2)
            now = time.monotonic()
            for session in list(self._sessions):
                if session.alive and now - session.last_seen > timeout:
                    await self._peer_dead(session)

    async def _peer_dead(self, session: _PeerSession) -> None:
        """Declare a peer failed and re-assign its unfinished work."""
        if not session.alive:
            return
        session.alive = False
        session.writer.close()
        obs.inc("cluster_peer_failures_total")
        if not self._round_active or self._finished:
            return
        await self._dispatch_orphans()

    async def _dispatch_orphans(self) -> None:
        """Re-assign pending sites whose owner is gone to live peers."""
        pending = set(self.ledger.pending_sites())
        owned = {site for session in self._sessions if session.alive
                 for site in session.assigned}
        orphans = [site for site in self.docgraph.sites()
                   if site in pending and site not in owned]
        if not orphans:
            return
        survivors = [session for session in self._sessions if session.alive]
        if not survivors:
            self._fail(ProtocolError(
                f"all peers died with {len(orphans)} sites pending"))
            return
        plan: Dict[str, List[str]] = {s.name: [] for s in survivors}
        load = {s.name: len(s.assigned & pending) for s in survivors}
        for site in orphans:
            target = min(survivors, key=lambda s: load[s.name])
            plan[target.name].append(site)
            load[target.name] += 1
        for session in survivors:
            sites = plan[session.name]
            if not sites:
                continue
            self._reassigned.extend(sites)
            obs.inc("cluster_reassigned_sites_total", float(len(sites)))
            await self._assign(session, sites)

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._staffed.set()
        self._results_done.set()

    def _raise_on_error(self) -> None:
        if self._error is not None:
            raise self._error

    # ------------------------------------------------------------------ #
    # Resume support
    # ------------------------------------------------------------------ #
    def _recover_resumed_state(self) -> None:
        """Rebuild done sites' results (bitwise) from the durable ledger."""
        for site in self.ledger.resumed_sites:
            cached = self.ledger.warm.local_vector(site)
            assert cached is not None  # JobLedger.open guarantees this
            doc_ids, vector = cached
            self._local[site] = LocalDocRank(
                site=site, doc_ids=list(doc_ids), scores=vector,
                iterations=self.ledger.iterations_of(site))
        # No peer will be asked about resumed sites, so their SiteLink
        # counts are derived locally — same code, same counts.
        self._on_summary(summarize_sitelinks(
            self.docgraph, self.ledger.resumed_sites, sender=COORDINATOR,
            recipient=COORDINATOR))
        if not self.ledger.pending_sites():
            self._results_done.set()

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #
    async def _broadcast_round_complete(self, makespan: float) -> None:
        goodbye_window = max(1.0, 4 * self.heartbeat_seconds)
        for session in self._sessions:
            if not session.alive:
                continue
            try:
                await self._send(session, RoundComplete(
                    sender=COORDINATOR, recipient=session.name,
                    makespan_seconds=makespan))
            except (ConnectionError, OSError):  # pragma: no cover
                continue
        deadline = time.monotonic() + goodbye_window
        while (time.monotonic() < deadline
               and any(s.alive and not s.said_goodbye
                       for s in self._sessions)):
            await asyncio.sleep(self.heartbeat_seconds / 4)

    async def _shutdown(self) -> None:
        """Close every socket and background task; never leak either."""
        self._finished = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        if self._siterank_task is not None and not self._siterank_task.done():
            self._siterank_task.cancel()
        for session in self._sessions:
            session.writer.close()
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        for session in self._sessions:
            try:
                await session.writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        if self._reader_tasks:
            await asyncio.wait(self._reader_tasks, timeout=2.0)
            for task in self._reader_tasks:
                if not task.done():  # pragma: no cover - stuck teardown
                    task.cancel()

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    async def _send(self, session: _PeerSession, message) -> None:
        frame = encode_message(message)
        self._record(message, len(frame))
        async with session.write_lock:
            await write_message(session.writer, message, frame=frame)
        obs.inc("cluster_wire_bytes_total", float(len(frame)),
                direction="out")

    def _record(self, message, nbytes: int) -> None:
        self.log.record(message, wire_bytes=nbytes)
        obs.inc("cluster_messages_total", type=type(message).__name__)

    async def _handle_metrics(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        """Minimal Prometheus scrape surface (GET /metrics), read within
        the serving front end's request limits (414 / 431 past them)."""
        text = "text/plain; charset=utf-8"
        try:
            try:
                request = await read_request_head(reader)
            except ClientError as error:
                status, body = error.status, f"{error}\n".encode("utf-8")
            else:
                if request is None:
                    return
                if request[4] == "/metrics":
                    status, body = 200, obs.render_prometheus().encode("utf-8")
                    text = "text/plain; version=0.0.4; charset=utf-8"
                else:
                    status, body = 404, b"not found\n"
            writer.write(encode_response(status, body, content_type=text,
                                         keep_alive=False))
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - scrape races
            pass
        finally:
            writer.close()
