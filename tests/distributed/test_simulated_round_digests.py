"""Frozen digests of simulated rounds: what the simulator sends and charges.

For flat and super-peer rounds at 1, 3 and 8 peers, on the toy web and on a
small synthetic web, the fixture holds the sha256 of the message log (type,
sender, recipient and wire size of every message, in order), every modelled
clock the report carries and the sha256 of the score bytes.  Each must
match exactly: a refactor of the protocol may not reorder a message, change
a frame or re-associate a clock's float sums.

Regenerate the fixture only from a tree whose rounds are known good, by
running this module as a script.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.distributed import DistributedRankingCoordinator
from repro.graphgen import generate_synthetic_web
from repro.io import toy_web

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "simulated_round_digests.json")

WEBS = {
    "toy": toy_web,
    "synthetic-10x260": lambda: generate_synthetic_web(
        n_sites=10, n_documents=260, seed=11),
}
ARCHITECTURES = ("flat", "super-peer")
PEER_COUNTS = (1, 3, 8)


def round_digest(graph, architecture: str, n_peers: int) -> dict:
    """The frozen view of one simulated round."""
    coordinator = DistributedRankingCoordinator(
        graph, n_peers=n_peers, architecture=architecture)
    report = coordinator.run()
    log = coordinator.network.log
    lines = "".join(
        f"{type(message).__name__}|{message.sender}|{message.recipient}"
        f"|{size}\n" for message, size in zip(log.messages, log.sizes))
    scores = np.ascontiguousarray(report.ranking.scores, dtype=float)
    return {
        "messages": hashlib.sha256(lines.encode("utf-8")).hexdigest(),
        "makespan_seconds": report.makespan_seconds,
        "coordinator_seconds": report.coordinator_seconds,
        "serial_compute_seconds": report.serial_compute_seconds,
        "per_peer_compute_seconds": dict(report.per_peer_compute_seconds),
        "scores": hashlib.sha256(scores.tobytes()).hexdigest(),
    }


def case_key(web: str, architecture: str, n_peers: int) -> str:
    return f"{web}/{architecture}/{n_peers}"


def all_digests() -> dict:
    digests = {}
    for web, build in WEBS.items():
        graph = build()
        for architecture in ARCHITECTURES:
            for n_peers in PEER_COUNTS:
                digests[case_key(web, architecture, n_peers)] = round_digest(
                    graph, architecture, n_peers)
    return digests


@pytest.fixture(scope="module")
def frozen():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def graphs():
    return {web: build() for web, build in WEBS.items()}


@pytest.mark.parametrize("n_peers", PEER_COUNTS)
@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("web", sorted(WEBS))
def test_simulated_round_matches_its_frozen_digest(frozen, graphs, web,
                                                   architecture, n_peers):
    expected = frozen[case_key(web, architecture, n_peers)]
    assert round_digest(graphs[web], architecture, n_peers) == expected


if __name__ == "__main__":  # pragma: no cover - fixture capture
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(all_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
