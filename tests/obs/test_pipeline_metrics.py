"""End-to-end telemetry: fit() instrumentation and worker-delta merging."""

import json

import pytest

from repro import obs
from repro.api import Ranker, RankingConfig

#: Counters that must be identical however the engine dispatches the work
#: (the task list and the numerics do not depend on the backend).
_DETERMINISTIC_COUNTERS = (
    "solver_runs_total",
    "solver_iterations_total",
    "engine_tasks_total",
    "block_solver_runs_total",
    "block_solver_blocks_total",
    "block_solver_sweeps_total",
)


def _deterministic_counters():
    snap = obs.snapshot(include_collected=False)
    return {(entry["name"], tuple(sorted(entry["labels"].items()))):
            entry["value"]
            for entry in snap["counters"]
            if entry["name"] in _DETERMINISTIC_COUNTERS}


class TestFitInstrumentation:
    def test_timings_use_canonical_phase_keys(self, toy_docgraph):
        result = Ranker().fit(toy_docgraph)
        assert set(result.timings) == {
            obs.PHASE_PLAN_BUILD, obs.PHASE_PLAN_EXECUTE,
            obs.PHASE_PLAN_COMPOSE, obs.PHASE_FIT,
        }
        assert all(seconds >= 0.0 for seconds in result.timings.values())
        # wall_seconds stays the back-compat alias of fit.total
        assert result.wall_seconds == result.timings[obs.PHASE_FIT]
        assert result.ranking.timings[obs.PHASE_PLAN_BUILD] == \
            result.timings[obs.PHASE_PLAN_BUILD]
        assert "timings" in result.to_dict()

    def test_provenance_carries_metrics_snapshot(self, toy_docgraph):
        result = Ranker().fit(toy_docgraph)
        metrics = result.provenance["metrics"]
        assert {entry["name"] for entry in metrics["counters"]} >= {
            "solver_runs_total", "engine_tasks_total",
            "plan_executions_total"}
        assert any(entry["name"] == "phase_seconds"
                   for entry in metrics["histograms"])

    def test_disabled_telemetry_drops_metrics_from_provenance(
            self, toy_docgraph):
        obs.disable()
        result = Ranker().fit(toy_docgraph)
        assert "metrics" not in result.provenance
        # timings stay available: they are plain clock reads, not telemetry
        assert obs.PHASE_FIT in result.timings
        assert obs.snapshot() == {"counters": [], "gauges": [],
                                  "histograms": []}

    def test_fit_trace_exports_span_history(self, toy_docgraph, tmp_path):
        path = tmp_path / "trace.json"
        Ranker().fit(toy_docgraph, trace=str(path))
        trace = json.loads(path.read_text())
        assert trace["version"] == 1
        names = {span["name"] for span in trace["spans"]}
        assert names >= {obs.PHASE_FIT, obs.PHASE_PLAN_BUILD,
                         obs.PHASE_PLAN_EXECUTE, obs.PHASE_PLAN_COMPOSE}
        fit_span = next(s for s in trace["spans"]
                        if s["name"] == obs.PHASE_FIT)
        assert fit_span["parent"] is None
        # tracing is torn down again after the call
        assert obs.current_tracer() is None

    def test_solver_counters_recorded(self, toy_docgraph):
        Ranker().fit(toy_docgraph)
        registry = obs.registry()
        # The SiteRank is the one dedicated solve of a toy fit: the
        # matrix-free kernel, never the explicit-matrix one.
        assert registry.counter_value("solver_runs_total",
                                      solver="power_dangling") >= 1.0
        assert registry.counter_value("solver_iterations_total",
                                      solver="power_dangling") >= 1.0
        assert registry.counter_value("solver_runs_total",
                                      solver="power") == 0.0
        assert registry.counter_value("block_solver_runs_total") >= 1.0

    def test_solver_problem_size_recorded(self, toy_docgraph):
        """Each solver run observes its size once: rows and stored entries."""
        from repro.web.sitegraph import aggregate_sitegraph

        Ranker().fit(toy_docgraph)
        sitegraph = aggregate_sitegraph(toy_docgraph)
        by_key = {(entry["name"], entry["labels"]["solver"]): entry
                  for entry in obs.snapshot()["histograms"]
                  if entry["name"] in ("solver_rows", "solver_nnz")}
        runs = obs.registry().counter_value("solver_runs_total",
                                            solver="power_dangling")
        rows = by_key["solver_rows", "power_dangling"]
        assert rows["count"] == runs  # once per run, not per iteration
        assert rows["sum"] == runs * sitegraph.n_sites
        assert by_key["solver_nnz", "power_dangling"]["sum"] == (
            runs * sitegraph.adjacency.nnz)
        assert by_key["solver_rows", "block"]["sum"] == (
            toy_docgraph.n_documents)
        # Decade buckets reach whole-web sizes (the default count buckets
        # stop at 1000).
        assert rows["buckets"][-1][0] >= 1_000_000

    def test_solver_vectors_dimension_reaches_exposition(self, toy_docgraph):
        """The SpMM amortisation is visible in /metrics (satellite of E17).

        A personalised fit runs a fused K-vector segment batch, so
        ``solver_vectors_total`` must grow by more than the run count and
        the sweeps-per-vector gauge must be set; both must render into a
        valid Prometheus exposition under the ``repro_`` prefix.
        """
        sites = toy_docgraph.sites()
        spec = {"alpha": {"sites": {sites[0]: 2.0}, "background": 0.5},
                "beta": {"sites": {sites[-1]: 1.0}, "background": 0.5}}
        Ranker(RankingConfig(personalization=spec)).fit(toy_docgraph)
        registry = obs.registry()
        runs = registry.counter_value("solver_runs_total", solver="block")
        vectors = registry.counter_value("solver_vectors_total",
                                         solver="block")
        # Base batches contribute 1 vector per run; the K=2 segment batch
        # pushes the total strictly above the run count.
        assert vectors > runs >= 1.0
        gauge_names = {entry["name"] for entry in obs.snapshot()["gauges"]}
        assert "solver_sweeps_per_vector" in gauge_names
        exposition = obs.render_prometheus()
        obs.validate_exposition(exposition)
        assert "repro_solver_vectors_total" in exposition
        assert "repro_solver_sweeps_per_vector" in exposition


class TestWorkerDeltaMerge:
    def test_process_backend_reports_serial_counters(self, toy_docgraph):
        serial = Ranker(RankingConfig(executor="serial")).fit(toy_docgraph)
        expected = _deterministic_counters()
        assert expected, "serial run recorded no deterministic counters"

        obs.reset()
        process = Ranker(RankingConfig(executor="process",
                                       n_jobs=2)).fit(toy_docgraph)
        assert _deterministic_counters() == expected

        # the merge carried the task timing observations across too
        snap = obs.snapshot(include_collected=False)
        waits = [h for h in snap["histograms"]
                 if h["name"] == "engine_task_queue_wait_seconds"]
        assert sum(h["count"] for h in waits) >= 1
        # and the rankings themselves agree
        assert process.top_k(5) == serial.top_k(5)

    def test_process_backend_counts_dispatches(self, toy_docgraph):
        Ranker(RankingConfig(executor="process", n_jobs=2)).fit(toy_docgraph)
        snap = obs.snapshot(include_collected=False)
        dispatches = [entry for entry in snap["counters"]
                      if entry["name"] == "engine_dispatches_total"]
        assert sum(entry["value"] for entry in dispatches) >= 1
