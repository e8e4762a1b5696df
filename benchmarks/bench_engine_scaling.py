"""E14 (extension): parallel execution engine — measured speedup + warm starts.

The paper argues the layered method's step 3 "can be completely
decentralized"; :mod:`repro.engine` turns that theorem into scheduling.
This benchmark quantifies the two practical payoffs on a synthetic web of
(by default) 200 sites / 100k documents:

* **executor scaling** — wall-clock of the full layered pipeline on the
  serial, threaded and process backends, with the hard requirement that
  all of them produce *bitwise identical* scores (speedup must never buy
  a different ranking).  The process backend is expected to beat serial
  by >= 2x when enough CPUs are available;
* **dispatch transport** — the process backend ships its batch through
  the zero-copy shared-memory arena (:mod:`repro.engine.arena`).  Each
  row records the ``dispatch_bytes`` the batch serialised; the arena must
  cut them by at least 10x against pickling the same batch by value
  (:func:`repro.engine.arena.dispatch_bytes` of the unshared tasks) —
  they are O(refs), not O(matrices);
* **warm starts** — total power iterations of an
  :class:`~repro.web.incremental.IncrementalLayeredRanker` refresh seeded
  from the previous stationary vectors versus the cold full rebuild, which
  must be strictly cheaper.

In smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) the web shrinks and
the speedup threshold is relaxed — correctness assertions (identical
scores, warm < cold) always apply, so a scheduling regression still fails
the build.
"""

import os
import time

import numpy as np
import pytest

from conftest import IncrementalLayeredRanker, SMOKE, layered_docrank, write_result
from repro.engine import ProcessExecutor, SerialExecutor, ThreadedExecutor
from repro.engine.arena import dispatch_bytes
from repro.engine.plan import RankingPlan, batch_site_tasks
from repro.graphgen import generate_synthetic_web

#: Size of the benchmark web (acceptance target: >= 200 sites / >= 50k docs;
#: 500 documents per site keeps each task heavy enough to amortise the
#: process pool's ~2ms/task dispatch cost).
N_SITES = 24 if SMOKE else 200
N_DOCUMENTS = 1_500 if SMOKE else 100_000

#: The cores this process may actually run on — what a cgroup/taskset
#: leaves of ``os.cpu_count()``; recorded in every row so a speedup is
#: always read against it.
VISIBLE_CPUS = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else list(range(os.cpu_count() or 1)))

#: Worker count of the parallel backends.
N_WORKERS = max(2, min(8, len(VISIBLE_CPUS)))

#: The >= 2x process-pool speedup is only physically possible with enough
#: cores; with one core visible (or few, or in smoke mode) the benchmark
#: still runs and records the measured numbers, but only enforces
#: correctness.
ENFORCE_SPEEDUP = not SMOKE and len(VISIBLE_CPUS) >= 4


@pytest.fixture(scope="module")
def engine_web():
    return generate_synthetic_web(n_sites=N_SITES, n_documents=N_DOCUMENTS,
                                  seed=17)


@pytest.fixture(scope="module")
def executor_rows(engine_web):
    rows = []
    scores = {}
    executors = [
        ("serial", SerialExecutor()),
        ("threaded", ThreadedExecutor(N_WORKERS)),
        ("process-arena", ProcessExecutor(N_WORKERS)),
    ]
    for label, executor in executors:
        with executor:
            executor.warmup()  # exclude pool start-up from the timing
            start = time.perf_counter()
            result = layered_docrank(engine_web, executor=executor)
            seconds = time.perf_counter() - start
        scores[label] = result.scores
        rows.append({
            "executor": label,
            "workers": executor.n_jobs,
            "seconds": round(seconds, 3),
            "iterations": result.iterations,
            "transport": executor.last_transport,
            "dispatch_bytes": executor.last_dispatch_bytes,
            "sched_affinity": ",".join(map(str, VISIBLE_CPUS)),
        })
    serial_seconds = rows[0]["seconds"]
    for row in rows:
        row["speedup_vs_serial"] = round(
            serial_seconds / row["seconds"] if row["seconds"] > 0 else
            float("inf"), 2)
    return rows, scores


@pytest.mark.benchmark(group="E14 engine scaling")
def test_e14_executor_speedup_table(benchmark, executor_rows):
    rows, scores = executor_rows
    rows = benchmark.pedantic(lambda: rows, rounds=1, iterations=1)
    write_result("E14_engine_scaling", rows,
                 ["executor", "workers", "seconds", "iterations",
                  "transport", "dispatch_bytes", "speedup_vs_serial",
                  "sched_affinity"],
                 caption=f"Layered pipeline on {N_SITES} sites / "
                         f"{N_DOCUMENTS} documents per execution backend "
                         f"({len(VISIBLE_CPUS)} CPUs visible; scores are "
                         "bitwise identical across backends; "
                         "dispatch_bytes = payload bytes serialised to "
                         "reach the pool's workers).")
    # Correctness is unconditional: parallelism must not change the ranking.
    for label in ("threaded", "process-arena"):
        assert np.array_equal(scores["serial"], scores[label]), \
            f"{label} diverged from the serial reference"
    by_name = {row["executor"]: row for row in rows}
    if ENFORCE_SPEEDUP:
        assert by_name["process-arena"]["speedup_vs_serial"] >= 2.0, \
            "process pool failed the 2x speedup acceptance target"


@pytest.mark.benchmark(group="E14 engine scaling")
def test_e14_arena_cuts_dispatch_bytes_10x(benchmark, engine_web,
                                           executor_rows):
    rows, _scores = executor_rows
    rows = benchmark.pedantic(lambda: rows, rounds=1, iterations=1)
    by_name = {row["executor"]: row for row in rows}
    # The batch the plan dispatches, pickled by value as it stands.
    plan = RankingPlan.from_docgraph(engine_web)
    pickle_bytes = dispatch_bytes(
        [plan.siterank_task, *batch_site_tasks(plan.site_tasks)])
    arena_bytes = by_name["process-arena"]["dispatch_bytes"]
    assert by_name["process-arena"]["transport"] == "arena"
    # The acceptance target of the shared-memory transport: dispatch cost
    # no longer scales with the matrices, so it must drop by >= 10x even
    # at smoke scale (the gap only widens on the full 100k-document web).
    assert arena_bytes * 10 <= pickle_bytes, \
        (f"arena transport only cut dispatch from {pickle_bytes} to "
         f"{arena_bytes} bytes (< 10x)")


@pytest.fixture(scope="module")
def warm_start_rows(engine_web):
    ranker = IncrementalLayeredRanker(engine_web)
    cold = ranker.full_rebuild()
    # Warm refresh of *every* site: the strongest comparison — identical
    # work list, only the start vectors differ.
    warm_all = ranker.refresh(engine_web.sites(), intersite_changed=True)
    # The realistic case: one site changed.
    site = engine_web.sites()[0]
    docs = engine_web.documents_of_site(site)
    warm_one = ranker.add_link(engine_web.document(docs[-1]).url,
                               engine_web.document(docs[0]).url)
    rows = [
        {"update": "cold full rebuild",
         "local_iterations": cold.local_iterations,
         "siterank_iterations": cold.siterank_iterations,
         "total_iterations": cold.local_iterations + cold.siterank_iterations,
         "documents_recomputed": cold.documents_recomputed},
        {"update": "warm refresh (all sites)",
         "local_iterations": warm_all.local_iterations,
         "siterank_iterations": warm_all.siterank_iterations,
         "total_iterations": (warm_all.local_iterations
                              + warm_all.siterank_iterations),
         "documents_recomputed": warm_all.documents_recomputed},
        {"update": "warm refresh (one site)",
         "local_iterations": warm_one.local_iterations,
         "siterank_iterations": warm_one.siterank_iterations,
         "total_iterations": (warm_one.local_iterations
                              + warm_one.siterank_iterations),
         "documents_recomputed": warm_one.documents_recomputed},
    ]
    return rows


@pytest.mark.benchmark(group="E14 engine scaling")
def test_e14_warm_start_iterations(benchmark, warm_start_rows):
    rows = benchmark.pedantic(lambda: warm_start_rows, rounds=1, iterations=1)
    write_result("E14_warm_start", rows,
                 ["update", "local_iterations", "siterank_iterations",
                  "total_iterations", "documents_recomputed"],
                 caption="Power iterations needed to refresh the layered "
                         "ranking when resuming from the previous "
                         "stationary vectors versus rebuilding cold.")
    by_name = {row["update"]: row for row in rows}
    cold = by_name["cold full rebuild"]["total_iterations"]
    warm = by_name["warm refresh (all sites)"]["total_iterations"]
    assert warm < cold, "warm start must converge in strictly fewer iterations"


@pytest.mark.benchmark(group="E14 engine scaling")
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_e14_pipeline_time(benchmark, engine_web, backend):
    if backend == "serial":
        executor = SerialExecutor()
    else:
        executor = ProcessExecutor(N_WORKERS)
        executor.warmup()  # spin the pool up outside the timed region
    with executor:
        benchmark.pedantic(layered_docrank, args=(engine_web,),
                           kwargs={"executor": executor},
                           rounds=1 if SMOKE else 2, iterations=1)


@pytest.mark.benchmark(group="E14 engine scaling")
def test_e14_trace_export(benchmark, engine_web):
    """Export a span trace of one fit; CI uploads the JSON artifact."""
    import json

    from conftest import RESULTS_DIR
    from repro import obs
    from repro.api import Ranker

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "E14_trace.json")
    result = benchmark.pedantic(
        lambda: Ranker().fit(engine_web, trace=path),
        rounds=1, iterations=1)

    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["version"] == 1
    names = {span["name"] for span in trace["spans"]}
    assert {obs.PHASE_FIT, obs.PHASE_PLAN_BUILD, obs.PHASE_PLAN_EXECUTE,
            obs.PHASE_PLAN_COMPOSE} <= names
    # the trace's fit.total span agrees with the result's own timing
    fit_span = next(span for span in trace["spans"]
                    if span["name"] == obs.PHASE_FIT)
    assert fit_span["seconds"] == pytest.approx(
        result.timings[obs.PHASE_FIT], rel=0.05)
