"""E15 (extension): block-diagonal batched multi-site solver.

The paper's step 3 is one tiny PageRank problem per site; on a realistic
web with thousands of *small* sites the per-site Python solver loop — not
linear algebra — dominates wall time.  The engine's batched path packs
small sites into one block-diagonal CSR and runs a single fused power
iteration with per-site convergence freezing
(:mod:`repro.linalg.block_solver`).  This benchmark measures that path
against the per-site serial path — one dedicated task per site, built by
``site_tasks_for`` and run unfused — across site-size distributions, on
synthetic webs and the campus web:

* **speedup** — all-local-DocRanks wall time, fused vs per-site, on the
  same serial backend.  The acceptance target is a >= 3x speedup in the
  many-small-sites regime (relaxed to >= 1.5x in CI smoke mode, where the
  webs shrink; correctness assertions always apply);
* **equality** — both paths run at a solver tolerance of 1e-13, which
  bounds either result within ``tol·f/(1-f)`` of the true stationary
  vector, so their scores must agree within atol 1e-12 with rankings
  identical up to exactly-tied documents
  (:func:`repro.metrics.rankings_equivalent`);
* **freezing** — the fused solver's sweep count vs the summed per-site
  iteration counts, and how the active set shrinks as sites converge
  (the adaptive-PageRank idea applied across sites).
"""

import time

import numpy as np
import pytest

from conftest import SMOKE, write_result
from repro import obs
from repro.engine import (
    BatchedSiteTask,
    batch_site_tasks,
    site_tasks_for,
)
from repro.graphgen import generate_synthetic_web
from repro.linalg.block_solver import PackedBlocks, solve_blocks
from repro.metrics import rankings_equivalent
from repro.web import all_local_docranks

#: Solver tolerance of the timed + compared runs (see module docstring).
TOL = 1e-13

#: Score-agreement contract between the two paths (acceptance criterion).
ATOL = 1e-12

#: Speedup the many-small-sites regime must reach.
MIN_SPEEDUP = 1.5 if SMOKE else 3.0

#: Counter the fused solver bumps once per working-set compaction.
COMPACTIONS = "block_solver_compactions_total"

#: The swept site-size distributions: (label, n_sites, n_documents).
DISTRIBUTIONS = ([
    ("many-small", 150, 1200),
    ("mixed", 30, 1200),
    ("few-large", 4, 1200),
] if SMOKE else [
    ("many-small", 2000, 16000),
    ("mixed", 250, 20000),
    ("few-large", 20, 20000),
])


def _compare_paths(graph):
    """Time both paths and verify the equality contract; returns a row."""
    started = time.perf_counter()
    per_site = {task.site: task.run()
                for task in site_tasks_for(graph, tol=TOL)}
    per_site_seconds = time.perf_counter() - started
    started = time.perf_counter()
    batched = all_local_docranks(graph, tol=TOL)
    batched_seconds = time.perf_counter() - started
    # The share of the batched path that is not mathematics: cutting the
    # per-site blocks out of the DocGraph and packing the fused batches.
    started = time.perf_counter()
    batch_site_tasks(site_tasks_for(graph, tol=TOL))
    pack_seconds = time.perf_counter() - started

    max_diff = 0.0
    for site, reference in per_site.items():
        fused = batched[site]
        assert fused.doc_ids == reference.doc_ids
        max_diff = max(max_diff, float(np.max(np.abs(
            fused.scores - reference.scores))))
        score_of = dict(zip(reference.doc_ids, reference.scores))
        k = min(10, reference.n_documents)
        assert rankings_equivalent(reference.top_k(k), fused.top_k(k),
                                   score_of, atol=ATOL), \
            f"rankings diverged beyond ties for site {site!r}"
    assert max_diff <= ATOL, \
        f"batched scores diverged from per-site by {max_diff:.3e} (> {ATOL})"

    return {
        "sites": graph.n_sites,
        "documents": graph.n_documents,
        "per_site_seconds": round(per_site_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "pack_seconds": round(pack_seconds, 4),
        "speedup": round(per_site_seconds / batched_seconds
                         if batched_seconds > 0 else float("inf"), 2),
        "max_abs_diff": float(f"{max_diff:.3e}"),
    }


@pytest.fixture(scope="module")
def distribution_rows():
    rows = []
    for label, n_sites, n_documents in DISTRIBUTIONS:
        graph = generate_synthetic_web(n_sites=n_sites,
                                       n_documents=n_documents, seed=42)
        rows.append({"web": label, **_compare_paths(graph)})
    return rows


@pytest.mark.benchmark(group="E15 block solver")
def test_e15_batched_speedup_table(benchmark, distribution_rows):
    rows = benchmark.pedantic(lambda: distribution_rows, rounds=1,
                              iterations=1)
    write_result("E15_block_solver", rows,
                 ["web", "sites", "documents", "per_site_seconds",
                  "batched_seconds", "pack_seconds", "speedup",
                  "max_abs_diff"],
                 caption="All-local-DocRanks wall time: fused block-diagonal "
                         "batched solver vs the per-site serial path "
                         f"(tol={TOL:g}; scores agree within {ATOL:g} with "
                         "rankings identical up to exact ties).")
    by_web = {row["web"]: row for row in rows}
    assert by_web["many-small"]["speedup"] >= MIN_SPEEDUP, \
        (f"batched solver only reached "
         f"{by_web['many-small']['speedup']}x on the many-small-sites web "
         f"(target {MIN_SPEEDUP}x)")


@pytest.mark.benchmark(group="E15 block solver")
def test_e15_campus_web(benchmark, campus):
    row = benchmark.pedantic(lambda: _compare_paths(campus.docgraph),
                             rounds=1, iterations=1)
    write_result("E15_block_solver_campus", [{"web": "campus", **row}],
                 ["web", "sites", "documents", "per_site_seconds",
                  "batched_seconds", "pack_seconds", "speedup",
                  "max_abs_diff"],
                 caption="Fused vs per-site local DocRanks on the campus "
                         "web (its two large farm sites keep dedicated "
                         "tasks; every small site rides the fused batch).")
    # The campus web mixes small sites with two large farms, so the target
    # is correctness plus *some* win, not the many-small-sites 3x.
    assert row["speedup"] >= 1.0 or row["batched_seconds"] < 0.05


@pytest.mark.benchmark(group="E15 block solver")
def test_e15_per_site_freezing(benchmark, distribution_rows):
    # distribution_rows is requested only to reuse its already-built webs'
    # scale; the freezing diagnostic re-packs the many-small web directly.
    label, n_sites, n_documents = DISTRIBUTIONS[0]
    graph = generate_synthetic_web(n_sites=n_sites, n_documents=n_documents,
                                   seed=42)
    tasks = site_tasks_for(graph, tol=TOL)
    fused = [task for task in batch_site_tasks(tasks)
             if isinstance(task, BatchedSiteTask)]

    def solve_all():
        results = []
        for task in fused:
            packed = PackedBlocks(matrix=task.adjacency,
                                  offsets=np.asarray(task.offsets),
                                  start=task.start,
                                  preference=task.preference)
            before = obs.registry().counter_value(COMPACTIONS)
            result = solve_blocks(packed, task.damping, tol=task.tol,
                                  max_iter=task.max_iter)
            results.append((result, obs.registry().counter_value(
                COMPACTIONS) - before))
        return results

    solved = benchmark.pedantic(solve_all, rounds=1, iterations=1)
    rows = []
    for index, (result, compactions) in enumerate(solved):
        rows.append({
            "batch": index,
            "blocks": result.n_blocks,
            "fused_sweeps": result.sweeps,
            "summed_block_iterations": result.total_iterations,
            "active_blocks_first_sweep": result.active_history[0],
            "active_blocks_last_sweep": result.active_history[-1],
            "compactions": int(compactions),
        })
    write_result("E15_freezing", rows,
                 ["batch", "blocks", "fused_sweeps",
                  "summed_block_iterations", "active_blocks_first_sweep",
                  "active_blocks_last_sweep", "compactions"],
                 caption=f"Per-site convergence freezing on the {label} web: "
                         "each fused batch runs max(site iterations) sweeps; "
                         "frozen sites stay in the working set until the "
                         "live rows are half of it or fewer, then the "
                         "operator is cut to the live sites.")
    for result, compactions in solved:
        assert result.converged.all()
        # Every compaction at least halves the working rows.
        assert compactions <= np.ceil(np.log2(result.values.shape[0])) + 1
        # Freezing means the batch never runs more sweeps than its slowest
        # block needs, and the active set must actually shrink.
        assert result.sweeps == int(result.iterations.max())
        assert result.active_history[-1] <= result.active_history[0]
