"""E18: the live TCP cluster vs the simulated deployment.

The distributed protocol has run in two places so far: the in-process
simulator (E9, modeled clocks and accounted bytes) and now the real thing
— separate peer processes on localhost TCP (:mod:`repro.cluster`).  This
benchmark runs the same web through the serial facade, the simulator, a
live 3-peer round, and a live round where one peer is killed after its
first result, and puts measured makespan next to the simulated one.

Three correctness claims ride along as assertions:

* every deployment's scores are *bitwise* the serial facade's
  (``Ranker(RankingConfig()).fit``: the peers run the fit's own layout
  step over their sites, every site of its whole-web kind);
* the fault-free live round puts exactly the same bytes on the wire as
  the simulator accounts for the four shared protocol message types;
* the kill-one-peer round re-assigns the dead peer's pending sites and
  still finishes bitwise-correct.
"""

import asyncio
import os

import numpy as np
import pytest

from conftest import SMOKE, write_result
from repro.api import Ranker, RankingConfig
from repro.cluster import run_live_cluster
from repro.distributed.coordinator import DistributedRankingCoordinator
from repro.graphgen import generate_campus_web, generate_synthetic_web
from repro.io import read_docgraph, write_docgraph

N_PEERS = 3

#: The message types both deployments send with identical contents; their
#: per-type wire bytes must agree exactly between simulator and cluster.
SHARED_TYPES = ("AssignSitesMessage", "ComputeLocalRankRequest",
                "SiteLinkSummary", "LocalRankResult")


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """The web (file + graph) and the serial facade's ranking of it."""
    if SMOKE:
        graph = generate_synthetic_web(n_sites=10, n_documents=260, seed=11)
    else:
        graph = generate_campus_web(n_sites=40, n_documents=4000,
                                    webdriver_farm_pages=600,
                                    javadoc_farm_pages=400,
                                    inter_site_links=1800,
                                    seed=2003).docgraph
    workdir = str(tmp_path_factory.mktemp("e18-cluster"))
    path = os.path.join(workdir, "web.docgraph")
    write_docgraph(graph, path)
    shared = read_docgraph(path)  # rank exactly the file the peers load
    serial = Ranker(RankingConfig()).fit(shared).ranking
    return {"graph": shared, "workdir": workdir, "serial": serial}


def _row(run_name, report, serial):
    gap = float(np.abs(np.asarray(report.ranking.scores)
                       - np.asarray(serial.scores)).max())
    return {
        "run": run_name,
        "mode": report.mode,
        "peers": report.n_peers,
        "messages": report.message_count,
        "kib_on_wire": round(report.total_bytes / 1024, 1),
        "makespan_ms": round(report.makespan_seconds * 1000, 1),
        "reassigned_sites": report.reassignment_count,
        "max_gap_vs_serial": gap,
    }


@pytest.fixture(scope="module")
def deployment_rows(workload):
    graph, workdir, serial = (workload["graph"], workload["workdir"],
                              workload["serial"])

    simulated = DistributedRankingCoordinator(graph, n_peers=N_PEERS).run()

    live = asyncio.run(run_live_cluster(
        graph, workdir, n_peers=N_PEERS, heartbeat_seconds=0.2,
        round_timeout=300.0))

    # Round-robin for the kill run so every peer holds several sites and
    # the crash is guaranteed to strand pending work (the balanced policy
    # can hand one peer a single huge site, making the crash lossless).
    killed = asyncio.run(run_live_cluster(
        graph, workdir, n_peers=N_PEERS, partition_policy="round-robin",
        heartbeat_seconds=0.2, round_timeout=300.0, fail_after={0: 1}))

    rows = [_row("simulated", simulated, serial),
            _row("live", live, serial),
            _row("live-kill-one", killed, serial)]
    return rows, simulated, live, killed


@pytest.mark.benchmark(group="E18 live cluster")
def test_e18_live_cluster_table(benchmark, deployment_rows, workload):
    rows, simulated, live, killed = deployment_rows
    rows = benchmark.pedantic(lambda: rows, rounds=1, iterations=1)
    write_result("E18_live_cluster", rows,
                 ["run", "mode", "peers", "messages", "kib_on_wire",
                  "makespan_ms", "reassigned_sites", "max_gap_vs_serial"],
                 caption="The distributed protocol deployed for real: "
                         "3 localhost peer processes over TCP vs the "
                         "in-process simulation, plus a round that loses "
                         "one peer after its first result.  Scores are "
                         "bitwise the serial facade's in every run.")
    serial = workload["serial"]
    # Bitwise correctness of every deployment, kill-one included.
    for report in (simulated, live, killed):
        assert np.array_equal(report.ranking.scores, serial.scores)
        assert report.ranking.doc_ids == serial.doc_ids
    # Satellite 1: simulated byte accounting is the live wire truth.
    for message_type in SHARED_TYPES:
        assert live.bytes_by_type[message_type] == \
            simulated.bytes_by_type[message_type], message_type
        assert live.messages_by_type[message_type] == \
            simulated.messages_by_type[message_type], message_type
    # Fault tolerance: the crash actually happened and was recovered.
    assert killed.reassignment_count > 0
    assert killed.mode == "live" and live.mode == "live"
    assert simulated.mode == "simulated"
    # Live rounds report measured per-peer compute times.
    assert len(live.per_peer_wall_seconds) == N_PEERS
    assert all(seconds >= 0.0
               for seconds in live.per_peer_wall_seconds.values())


@pytest.mark.benchmark(group="E18 live cluster")
def test_e18_live_round_time(benchmark, workload):
    """Wall-clock of one complete live 3-peer round (spawn to report)."""
    graph, workdir = workload["graph"], workload["workdir"]

    def one_round():
        return asyncio.run(run_live_cluster(
            graph, workdir, n_peers=N_PEERS, heartbeat_seconds=0.2,
            round_timeout=300.0))

    report = benchmark.pedantic(one_round, rounds=1, iterations=1)
    assert np.array_equal(report.ranking.scores, workload["serial"].scores)
