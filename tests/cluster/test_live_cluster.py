"""End-to-end tests of the live TCP cluster.

Three tiers of realism, all deterministic:

* in-process rounds (peers as asyncio tasks in this interpreter) for the
  fast protocol assertions — bitwise equality with ``Ranker.fit``,
  byte parity with the simulator, ledger resume;
* real subprocess rounds (``repro cluster peer`` children) for the things
  only separate processes can show — crash injection via ``--fail-after``
  (``os._exit`` mid-round), SIGTERM drains, orphan-free teardown;
* failure-path units (digest refusal, all-peers-dead, round timeout).
"""

import asyncio
import os
import signal
import subprocess

import numpy as np
import pytest

from repro.api import Ranker, RankingConfig
from repro.cluster import (
    ClusterCoordinator,
    ClusterPeer,
    run_live_cluster,
    spawn_peer,
)
from repro.cluster.ledger import JobLedger
from repro.distributed import DistributedRankingCoordinator
from repro.distributed.codec import encode_message
from repro.distributed.messages import (
    AssignSitesMessage,
    ComputeLocalRankRequest,
)
from repro.exceptions import ProtocolError, ValidationError
from repro.graphgen import generate_synthetic_web
from repro.io import docgraph_digest, read_docgraph, write_docgraph

#: The protocol messages both deployments send with identical contents —
#: the byte-parity surface between simulated and live runs.
SHARED_TYPES = ("AssignSitesMessage", "ComputeLocalRankRequest",
                "SiteLinkSummary", "LocalRankResult")

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def web(tmp_path_factory):
    """One shared small web: graph file, in-memory graph and its fit."""
    workdir = tmp_path_factory.mktemp("cluster-web")
    graph = generate_synthetic_web(n_sites=10, n_documents=260, seed=11)
    path = os.path.join(workdir, "web.docgraph")
    write_docgraph(graph, path)
    shared = read_docgraph(path)  # rank exactly what the peers will load
    serial = Ranker(RankingConfig()).fit(shared).ranking
    return {"graph": shared, "path": path, "serial": serial,
            "workdir": str(workdir)}


async def run_in_process_round(graph, *, n_peers=3, **coordinator_options):
    """A live round with peers as asyncio tasks (same interpreter)."""
    coordinator_options.setdefault("heartbeat_seconds", 0.2)
    coordinator_options.setdefault("round_timeout", 60.0)
    coordinator = ClusterCoordinator(graph, n_peers=n_peers,
                                     **coordinator_options)
    return await run_with_in_process_peers(coordinator, graph, n_peers)


async def run_with_in_process_peers(coordinator, graph, n_peers):
    """Run *coordinator*'s round against *n_peers* asyncio-task peers."""
    await coordinator.start()
    peers = [ClusterPeer(graph, coordinator.host, coordinator.port,
                         name=f"inproc-{i}") for i in range(n_peers)]
    peer_tasks = [asyncio.create_task(peer.run()) for peer in peers]
    try:
        report = await coordinator.wait()
    finally:
        for task in peer_tasks:
            task.cancel()
        await asyncio.gather(*peer_tasks, return_exceptions=True)
    return report


def frames_by_peer(log):
    """Each peer's encoded protocol frames of each shared type, in order."""
    frames = {}
    for message in log.messages:
        kind = type(message).__name__
        if kind in SHARED_TYPES:
            peer = (message.recipient if message.sender == "coordinator"
                    else message.sender)
            frames.setdefault((peer, kind), []).append(
                encode_message(message))
    return frames


class TestInProcessRound:
    def test_live_round_is_bitwise_the_serial_reference(self, web):
        report = asyncio.run(run_in_process_round(web["graph"]))
        assert report.mode == "live"
        assert report.n_peers == 3
        assert np.array_equal(report.ranking.scores, web["serial"].scores)
        assert report.ranking.doc_ids == web["serial"].doc_ids

    def test_live_bytes_match_simulated_bytes(self, web):
        """Satellite 1: identical protocol content → identical wire bytes."""
        report = asyncio.run(run_in_process_round(web["graph"]))
        simulated = DistributedRankingCoordinator(web["graph"],
                                                  n_peers=3).run()
        assert np.array_equal(report.ranking.scores,
                              simulated.ranking.scores)
        for message_type in SHARED_TYPES:
            assert report.bytes_by_type[message_type] == \
                simulated.bytes_by_type[message_type], message_type
            assert report.messages_by_type[message_type] == \
                simulated.messages_by_type[message_type], message_type

    def test_per_peer_frames_equal_the_simulators(self, web):
        """Both deployments run one peer and one round bookkeeping, so
        every protocol frame a peer sends or receives is byte-equal."""
        coordinator = ClusterCoordinator(web["graph"], n_peers=3,
                                         heartbeat_seconds=0.2,
                                         round_timeout=60.0)
        asyncio.run(run_with_in_process_peers(coordinator, web["graph"], 3))
        simulated = DistributedRankingCoordinator(web["graph"], n_peers=3)
        simulated.run()
        live = frames_by_peer(coordinator.log)
        assert live == frames_by_peer(simulated.network.log)
        assert {peer for peer, _type in live} == \
            {"peer-0000", "peer-0001", "peer-0002"}

    def test_report_carries_measured_per_peer_wall_times(self, web):
        report = asyncio.run(run_in_process_round(web["graph"]))
        assert set(report.per_peer_wall_seconds) == \
            {"peer-0000", "peer-0001", "peer-0002"}
        assert all(seconds > 0.0
                   for seconds in report.per_peer_wall_seconds.values())
        assert report.makespan_seconds > 0.0
        assert report.reassigned_sites == ()

    def test_ledger_resume_requests_only_pending_sites(self, web, tmp_path):
        """Satellite 3b: a restarted coordinator resumes, not recomputes."""
        graph, serial = web["graph"], web["serial"]
        ledger_path = str(tmp_path / "round.json")
        params = {"damping": 0.85, "site_damping": 0.85, "tol": 1e-10,
                  "max_iter": 1000, "architecture": "flat"}
        seed = JobLedger.open(ledger_path,
                              graph_digest=docgraph_digest(graph),
                              params=params, sites=graph.sites())
        done = graph.sites()[:4]
        for site in done:  # a previous coordinator life finished these
            rank = serial.local_docranks[site]
            seed.record_result(site, "peer-0000", rank.doc_ids,
                               tuple(float(s) for s in rank.scores),
                               rank.iterations)

        report = asyncio.run(run_in_process_round(
            graph, ledger_path=ledger_path))
        expected = graph.n_sites - len(done)
        assert report.messages_by_type["ComputeLocalRankRequest"] == expected
        assert np.array_equal(report.ranking.scores, serial.scores)

    def test_round_timeout_raises_protocol_error(self, web):
        async def stalled_round():
            coordinator = ClusterCoordinator(web["graph"], n_peers=2,
                                             round_timeout=0.4)
            await coordinator.start()
            return await coordinator.wait()  # nobody ever joins

        with pytest.raises(ProtocolError, match="did not complete"):
            asyncio.run(stalled_round())

    def test_mismatched_graph_digest_is_refused(self, web):
        async def join_wrong_graph():
            coordinator = ClusterCoordinator(web["graph"], n_peers=1,
                                             round_timeout=10.0)
            await coordinator.start()
            other = generate_synthetic_web(n_sites=3, n_documents=40,
                                           seed=99)
            peer = ClusterPeer(other, coordinator.host, coordinator.port)
            try:
                await peer.run()
            finally:
                await coordinator._shutdown()

        with pytest.raises(ProtocolError, match="digest mismatch"):
            asyncio.run(join_wrong_graph())


async def deliver(peer, requests):
    """Assign *peer* the sites of *requests*, then hand it each request."""
    peer.protocol.on_assignment(AssignSitesMessage(
        sender="coordinator", recipient=peer.name, sites=tuple(requests)))
    for request in requests.values():
        await peer._handle(request)


class TestWireWarmStart:
    @pytest.mark.parametrize("broken", ["length", "non-finite", "negative",
                                        "not a distribution"])
    def test_a_start_that_does_not_fit_its_site_is_refused(
            self, web, monkeypatch, broken):
        """A wire start is checked against its site before anything is
        solved, and the error names the site and the peer."""
        graph = web["graph"]
        first, site = [name for name in graph.sites()
                       if len(graph.documents_of_site(name)) > 2][:2]
        n = len(graph.documents_of_site(site))
        start = np.full(n, 1.0 / n)
        if broken == "length":
            start = np.full(n - 1, 1.0 / (n - 1))
        elif broken == "non-finite":
            start[0] = np.nan
        elif broken == "negative":
            start[0], start[1] = -0.5, start[1] + 0.5 + start[0]
        else:
            start *= 2.0
        requests = {
            name: ComputeLocalRankRequest(
                sender="coordinator", recipient="peer-0007", site=name,
                start=tuple(vector))
            for name, vector in ((first, ()), (site, start.tolist()))}
        async def solve(*args, **kwargs):  # the peer's compute hop
            raise AssertionError("solved before the starts were checked")

        monkeypatch.setattr(asyncio, "to_thread", solve)
        peer = ClusterPeer(graph, "127.0.0.1", 0, name="peer-0007")
        with pytest.raises(ValidationError,
                           match=f"site {site!r} on peer 'peer-0007'"):
            asyncio.run(deliver(peer, requests))
        assert peer.sites_ranked == 0


    def test_a_fitting_start_seeds_the_solve(self, web):
        """A site started from its converged vector stops at once."""
        graph, serial = web["graph"], web["serial"]
        sites = graph.sites()[:3]
        requests = {site: ComputeLocalRankRequest(
            sender="coordinator", recipient="peer-0007", site=site,
            start=tuple(serial.local_docranks[site].scores.tolist()))
            for site in sites}
        sent = []

        async def send(message):
            sent.append(message)

        peer = ClusterPeer(graph, "127.0.0.1", 0, name="peer-0007")
        peer._send = send
        asyncio.run(deliver(peer, requests))
        assert [message.site for message in sent] == sites
        for message in sent:
            cold = serial.local_docranks[message.site]
            assert message.doc_ids == tuple(cold.doc_ids)
            assert message.iterations < cold.iterations
            assert np.allclose(message.scores, cold.scores, atol=1e-9)


class TestSubprocessRound:
    def test_three_process_round_matches_serial(self, web):
        report = asyncio.run(run_live_cluster(
            web["graph"], web["workdir"], n_peers=3,
            heartbeat_seconds=0.2, round_timeout=120.0))
        assert report.mode == "live"
        assert np.array_equal(report.ranking.scores, web["serial"].scores)

    def test_killed_peer_mid_round_is_recovered(self, web):
        """Satellite 3a: crash after the first result → re-assignment
        completes the round with bitwise-correct scores.

        Round-robin partitioning gives every peer several sites, so the
        crash is guaranteed to strand work whichever logical slot the
        crashing process lands on (the balanced policy can hand one peer
        a single huge site, making the crash lossless by luck).
        """
        report = asyncio.run(run_live_cluster(
            web["graph"], web["workdir"], n_peers=3,
            partition_policy="round-robin",
            heartbeat_seconds=0.2, round_timeout=120.0,
            fail_after={0: 1}))
        assert report.reassignment_count > 0
        assert np.array_equal(report.ranking.scores, web["serial"].scores)

    def test_sigterm_drains_cleanly(self, web):
        """Satellite 6: SIGTERM → Goodbye on the wire, exit code 0."""
        async def drain():
            # n_peers=2 so the round never starts: the drain happens while
            # the peer idles in its session loop, deterministically.
            coordinator = ClusterCoordinator(web["graph"], n_peers=2,
                                             heartbeat_seconds=0.2,
                                             round_timeout=30.0)
            await coordinator.start()
            process = spawn_peer(coordinator.address, web["path"])
            try:
                for _ in range(200):
                    if coordinator._sessions:
                        break
                    await asyncio.sleep(0.05)
                assert coordinator._sessions, "peer never joined"
                process.send_signal(signal.SIGTERM)
                code = await asyncio.to_thread(process.wait, 30)
            finally:
                if process.poll() is None:  # pragma: no cover - stuck peer
                    process.kill()
                await coordinator._shutdown()
            goodbyes = [m for m in coordinator.log.messages
                        if type(m).__name__ == "Goodbye"]
            return code, goodbyes

        code, goodbyes = asyncio.run(drain())
        assert code == 0
        assert len(goodbyes) == 1
        assert goodbyes[0].reason == "sigterm drain"

    def test_no_orphans_and_no_leaked_listener(self, web):
        """Satellite 6: after a round every child is reaped and the
        coordinator's listening socket is really closed."""
        async def round_then_probe():
            coordinator = ClusterCoordinator(web["graph"], n_peers=3,
                                             heartbeat_seconds=0.2,
                                             round_timeout=120.0)
            await coordinator.start()
            port = coordinator.port
            processes = [spawn_peer(coordinator.address, web["path"])
                         for _ in range(3)]
            await coordinator.wait()
            codes = []
            for process in processes:
                codes.append(await asyncio.to_thread(process.wait, 30))
            with pytest.raises(OSError):
                await asyncio.open_connection(coordinator.host, port)
            return codes

        codes = asyncio.run(round_then_probe())
        assert codes == [0, 0, 0]
