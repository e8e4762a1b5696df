"""Launching peer processes and whole localhost clusters.

Tests, benchmark E18 and the CI smoke job all need the same thing: a
coordinator in this process plus N genuine peer *processes* (separate
interpreters, real sockets) ranking one web.  :func:`spawn_peer` starts a
single peer through the ``repro cluster peer`` CLI entry point;
:func:`run_live_cluster` wires up the full round — write the graph to
disk, start the coordinator, spawn the peers against its ephemeral port,
await the report, reap every child — and guarantees no orphaned process
survives it (peers are terminated, then killed, on any exit path).
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from typing import List, Optional, Sequence

from ..distributed.coordinator import DeploymentReport
from ..distributed.partitioning import PartitionPolicy
from ..io import read_docgraph, write_docgraph
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..markov.irreducibility import DEFAULT_DAMPING
from ..web.docgraph import DocGraph
from .coordinator import ClusterCoordinator
from .protocol import DEFAULT_HEARTBEAT_SECONDS, DEFAULT_ROUND_TIMEOUT


def peer_environment() -> dict:
    """A child environment whose ``PYTHONPATH`` can import :mod:`repro`.

    The peer runs ``python -m repro …`` in a fresh interpreter; when the
    package is used straight from a source tree (tests, CI) its parent
    directory must be on the child's path.
    """
    import repro

    package_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (package_dir + os.pathsep + existing
                             if existing else package_dir)
    return env


def peer_command(address: str, graph_path: str, *, name: str = "",
                 fail_after: Optional[int] = None) -> List[str]:
    """The ``repro cluster peer`` argv for one peer process."""
    command = [sys.executable, "-m", "repro", "cluster", "peer",
               "--connect", address, "--input", graph_path,
               "--format", "docgraph"]
    if name:
        command += ["--name", name]
    if fail_after is not None:
        command += ["--fail-after", str(fail_after)]
    return command


def spawn_peer(address: str, graph_path: str, *, name: str = "",
               fail_after: Optional[int] = None) -> subprocess.Popen:
    """Start one peer process against a coordinator *address* (host:port)."""
    return subprocess.Popen(
        peer_command(address, graph_path, name=name, fail_after=fail_after),
        env=peer_environment(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


def reap(processes: Sequence[subprocess.Popen],
         timeout: float = 5.0) -> List[Optional[int]]:
    """Terminate-then-kill every child; returns their exit codes."""
    for process in processes:
        if process.poll() is None:
            process.terminate()
    codes: List[Optional[int]] = []
    for process in processes:
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            process.kill()
            process.wait(timeout=timeout)
        codes.append(process.returncode)
    return codes


async def run_live_cluster(docgraph: DocGraph, workdir: str, *,
                           n_peers: int = 3,
                           partition_policy: PartitionPolicy = "balanced",
                           damping: float = DEFAULT_DAMPING,
                           site_damping: Optional[float] = None,
                           tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER,
                           ledger_path: Optional[str] = None,
                           heartbeat_seconds: float =
                           DEFAULT_HEARTBEAT_SECONDS,
                           round_timeout: float = DEFAULT_ROUND_TIMEOUT,
                           fail_after: Optional[dict] = None,
                           ) -> DeploymentReport:
    """One complete live round on localhost: coordinator here, peers forked.

    The graph is round-tripped through :func:`repro.io.write_docgraph` so
    the coordinator ranks the *same file* the peers load — the digest
    handshake then guarantees all parties agree on the web.  *fail_after*
    optionally maps peer index → ``--fail-after`` count for deterministic
    crash injection (the fault-tolerance benchmark kills peer 0 after its
    first result this way).
    """
    graph_path = os.path.join(workdir, "cluster-web.docgraph")
    write_docgraph(docgraph, graph_path)
    shared = read_docgraph(graph_path)

    coordinator = ClusterCoordinator(
        shared, n_peers=n_peers, partition_policy=partition_policy,
        damping=damping, site_damping=site_damping, tol=tol,
        max_iter=max_iter, ledger_path=ledger_path,
        heartbeat_seconds=heartbeat_seconds, round_timeout=round_timeout)
    await coordinator.start()

    processes: List[subprocess.Popen] = []
    try:
        for index in range(n_peers):
            processes.append(spawn_peer(
                coordinator.address, graph_path, name=f"launch-{index}",
                fail_after=(fail_after or {}).get(index)))
        report = await coordinator.wait()
    except BaseException:
        await asyncio.to_thread(reap, processes)
        raise
    # A clean round lets every surviving peer exit on RoundComplete; give
    # them a moment before the terminate-then-kill sweep.
    await asyncio.to_thread(_drain_children, processes)
    return report


def _drain_children(processes: Sequence[subprocess.Popen],
                    grace: float = 5.0) -> None:
    for process in processes:
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
    reap(processes, timeout=grace)
