"""E19: out-of-core webs — mmap graph store, streamed solves, page-cache serving.

The layered decomposition's promise is that no step ever needs the global
link matrix resident; :mod:`repro.io.diskgraph` + :mod:`repro.engine.outofcore`
cash that promise in.  This benchmark ranks a web several times larger
than a configured memory budget and holds the pipeline to three claims:

* **bounded build** — the edge list streams into the on-disk block store
  chunk by chunk (:class:`~repro.io.diskgraph.DiskGraphBuilder`);
* **bounded rank** — ``rank_outofcore`` keeps peak RSS under the budget
  while the graph's block file is ≥ 4x the budget (full mode), because
  each window's adjacency is hydrated from a short-lived mmap — serially
  and with each window's tasks on two threads (``n_jobs=2``), which must
  publish the serial run's ranking;
* **page-cache serving** — booting :class:`~repro.serving.MmapScoreStore`
  and answering top-k queries stays within a small serving budget; score
  columns are never loaded wholesale.

Bitwise parity with the in-memory pipeline is asserted on a web that fits
in RAM (the out-of-core path must be an optimisation, not a different
ranking).  Each phase runs in its own subprocess and reads its peak from
``VmHWM`` in ``/proc/self/status``: the high-water mark of that address
space alone, reset by exec.  (``ru_maxrss`` is not: on Linux it carries
the launching process's peak across ``subprocess.run``'s fork/exec, so a
pytest process an earlier benchmark grew would lift every phase to its
own peak.)  Where ``/proc`` is absent the probe falls back to
``ru_maxrss``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import SMOKE, layered_docrank, write_result
from repro.engine import rank_outofcore
from repro.graphgen import generate_synthetic_web
from repro.io import write_diskgraph

MIB = 1024 * 1024

#: The rank phase's peak-RSS budget (above the interpreter baseline).
BUDGET_MIB = 48
#: The serve phase's budget: boot + queries, above baseline.
SERVE_BUDGET_MIB = 24
#: The build phase's budget — looser: the builder keeps the URL→id table
#: in RAM (edges spill to disk); the bound documents that edges don't
#: accumulate.
BUILD_BUDGET_MIB = 512

if SMOKE:
    N_SITES, SMALL_DOCS, BIG_DOCS, DEGREE = 12, 60, 700, 10
else:
    N_SITES, SMALL_DOCS, BIG_DOCS, DEGREE = 320, 400, 2800, 42

#: Every third site is large (a dedicated solve unit); the rest are small
#: enough to ride the fused block-diagonal batches.
SITE_SIZES = [BIG_DOCS if index % 3 == 0 else SMALL_DOCS
              for index in range(N_SITES)]

PROBE = r"""
import hashlib, json, os, resource, sys

def peak_mib():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

phase = sys.argv[1]
out = {"phase": phase}
if phase == "baseline":
    import numpy, scipy.sparse  # noqa: F401
    import repro  # noqa: F401
elif phase == "build":
    from repro.io import DiskGraphBuilder, stream_url_edgelist
    builder = DiskGraphBuilder(sys.argv[3])
    builder.consume(stream_url_edgelist(sys.argv[2]))
    graph = builder.finalize()
    out.update(n_documents=graph.n_documents, n_links=graph.n_links,
               n_sites=graph.n_sites, graph_bytes=graph.nbytes)
elif phase == "rank":
    from repro.engine import rank_outofcore
    from repro.io import open_diskgraph
    graph = open_diskgraph(sys.argv[2])
    result = rank_outofcore(graph, sys.argv[3],
                            n_jobs=int(sys.argv[4]) if sys.argv[4:] else None)
    scores = result.generation.map_array("scores")
    out.update(generation=result.generation.name,
               scores_sha256=hashlib.sha256(scores.tobytes()).hexdigest(),
               iterations=result.iterations,
               n_documents=result.n_documents, graph_bytes=graph.nbytes)
elif phase == "serve":
    from repro.serving import MmapScoreStore, TopKEngine
    store = MmapScoreStore.from_store(sys.argv[2])
    engine = TopKEngine(store)
    out["boot_mib"] = peak_mib()
    sites = store.sites()
    for round_number in range(20):
        engine.top_k(10)
        engine.top_k(25, site=sites[round_number % len(sites)])
        store.score_of(round_number)
    scores_bytes = store.ranked_generation.n_documents * 8
    out.update(queries=60, scores_bytes=scores_bytes)
else:
    raise SystemExit(f"unknown phase {phase!r}")
out["peak_mib"] = peak_mib()
print(json.dumps(out))
"""


def _run_probe(*args: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        capture_output=True, text=True, env=env, check=False)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _write_edge_list(path: str) -> int:
    """A deterministic multi-site web as a URL edge list; returns #edges."""
    rng = np.random.default_rng(1905)
    n_edges = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# E19 synthetic web\n")
        for site_index, n_docs in enumerate(SITE_SIZES):
            host = f"site{site_index:04d}.example.org"
            sources = rng.integers(0, n_docs, size=n_docs * DEGREE)
            targets = rng.integers(0, n_docs, size=n_docs * DEGREE)
            handle.writelines(
                f"http://{host}/p{source:05d} http://{host}/p{target:05d}\n"
                for source, target in zip(sources, targets))
            n_edges += n_docs * DEGREE
    return n_edges


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("e19"))


def test_probe_peak_is_the_phase_own():
    """Memory the launching process touched (~128 MiB, still held) does
    not reach a phase's peak: a baseline probe reads as a fresh one."""
    fresh = _run_probe("baseline")["peak_mib"]
    ballast = np.ones(128 * MIB // 8)
    try:
        loaded = _run_probe("baseline")["peak_mib"]
    finally:
        del ballast
    assert abs(loaded - fresh) < 8.0, \
        f"baseline read {loaded:.1f} MiB beside a launcher holding " \
        f"128 MiB more, {fresh:.1f} MiB without"


def test_out_of_core_rss_bounds(workdir):
    edges_path = os.path.join(workdir, "web.edges")
    graph_dir = os.path.join(workdir, "graph")
    store_dir = os.path.join(workdir, "store")
    _write_edge_list(edges_path)

    baseline = _run_probe("baseline")["peak_mib"]
    build = _run_probe("build", edges_path, graph_dir)
    rank = _run_probe("rank", graph_dir, store_dir)
    pooled = _run_probe("rank", graph_dir, store_dir + "-jobs", "2")
    serve = _run_probe("serve", store_dir)

    build_extra = build["peak_mib"] - baseline
    rank_extra = rank["peak_mib"] - baseline
    pooled_extra = pooled["peak_mib"] - baseline
    serve_extra = serve["peak_mib"] - baseline
    graph_mib = rank["graph_bytes"] / MIB

    rows = [
        {"phase": "baseline", "peak_rss_mib": round(baseline, 1),
         "extra_mib": 0.0, "budget_mib": "", "detail": "imports only"},
        {"phase": "build", "peak_rss_mib": round(build["peak_mib"], 1),
         "extra_mib": round(build_extra, 1), "budget_mib": BUILD_BUDGET_MIB,
         "detail": f"{build['n_links']} edges streamed, "
                   f"{round(graph_mib, 1)} MiB of blocks"},
        {"phase": "rank", "peak_rss_mib": round(rank["peak_mib"], 1),
         "extra_mib": round(rank_extra, 1), "budget_mib": BUDGET_MIB,
         "detail": f"{rank['n_documents']} documents, "
                   f"{rank['iterations']} iterations, graph/budget = "
                   f"{round(graph_mib / BUDGET_MIB, 2)}x"},
        {"phase": "rank, n_jobs=2",
         "peak_rss_mib": round(pooled["peak_mib"], 1),
         "extra_mib": round(pooled_extra, 1), "budget_mib": BUDGET_MIB,
         "detail": "each window's tasks on two threads, "
                   f"{pooled['iterations']} iterations"},
        {"phase": "serve", "peak_rss_mib": round(serve["peak_mib"], 1),
         "extra_mib": round(serve_extra, 1),
         "budget_mib": SERVE_BUDGET_MIB,
         "detail": f"{serve['queries']} queries off a "
                   f"{round(serve['scores_bytes'] / MIB, 2)} MiB score "
                   f"column"},
    ]
    write_result(
        "E19_out_of_core", rows,
        ["phase", "peak_rss_mib", "extra_mib", "budget_mib", "detail"],
        caption="Out-of-core pipeline: per-phase peak RSS (fresh "
                "subprocess each) against the configured budgets; the "
                "rank phase streams a block file "
                f"{round(graph_mib, 1)} MiB large under a "
                f"{BUDGET_MIB} MiB budget.")

    assert build["n_sites"] == N_SITES
    assert build_extra < BUILD_BUDGET_MIB
    assert rank_extra < BUDGET_MIB, \
        f"rank peak RSS {rank_extra:.1f} MiB exceeds {BUDGET_MIB} MiB budget"
    assert pooled_extra < BUDGET_MIB, \
        f"n_jobs=2 rank peak RSS {pooled_extra:.1f} MiB exceeds " \
        f"{BUDGET_MIB} MiB budget"
    assert (pooled["iterations"], pooled["scores_sha256"]) == \
        (rank["iterations"], rank["scores_sha256"])
    assert serve_extra < SERVE_BUDGET_MIB
    if not SMOKE:
        # The headline claim: the web on disk is >= 4x the rank budget.
        assert rank["graph_bytes"] >= 4 * BUDGET_MIB * MIB


def test_out_of_core_scores_are_bitwise_in_memory(tmp_path):
    """Parity on a web that fits in RAM: same floats, same iterations."""
    web = generate_synthetic_web(n_sites=10, n_documents=300 if SMOKE
                                 else 4000, seed=77)
    reference = layered_docrank(web)
    disk = write_diskgraph(web, tmp_path / "graph")
    result = rank_outofcore(disk, tmp_path / "store")
    assert result.iterations == reference.iterations
    generation = result.generation
    got = dict(zip((int(d) for d in generation.map_array("doc_ids")),
                   generation.map_array("scores")))
    want = dict(zip(reference.doc_ids, reference.scores))
    assert set(got) == set(want)
    mismatches = sum(1 for doc_id in want if got[doc_id] != want[doc_id])
    assert mismatches == 0, f"{mismatches} scores differ bitwise"
