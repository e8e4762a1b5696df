"""Tests for repro.engine.plan (the RankingPlan task graph) and warm starts."""

import numpy as np
import pytest

from repro.engine import (
    RankingPlan,
    SerialExecutor,
    WarmStartState,
    align_warm_start,
    run_task,
    site_tasks_for,
)
from repro.exceptions import GraphStructureError, ValidationError
from repro.web import DocGraph, all_local_docranks, local_docrank, siterank
from repro.web.pipeline import _layered_docrank as layered_docrank

from per_site_oracle import per_site_local_docranks


class TestPlanConstruction:
    def test_one_task_per_site_plus_siterank(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        assert plan.n_sites == toy_docgraph.n_sites
        assert plan.n_tasks == toy_docgraph.n_sites + 1
        assert sorted(task.site for task in plan.site_tasks) == \
            sorted(toy_docgraph.sites())

    def test_tasks_carry_the_local_subgraphs(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        for task in plan.site_tasks:
            expected, doc_ids = toy_docgraph.local_adjacency(task.site)
            assert task.doc_ids == tuple(doc_ids)
            assert task.nnz == expected.nnz
            assert task.n_documents == len(doc_ids)

    def test_rejects_empty_docgraph(self):
        with pytest.raises(GraphStructureError):
            RankingPlan.from_docgraph(DocGraph())

    def test_rejects_mismatched_site_tasks(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        with pytest.raises(ValidationError):
            RankingPlan(plan.sitegraph, plan.site_tasks[:-1],
                        plan.siterank_task)

    def test_explicit_task_plan_cannot_execute(self, toy_docgraph):
        built = RankingPlan.from_docgraph(toy_docgraph)
        plan = RankingPlan(built.sitegraph, built.site_tasks,
                           built.siterank_task)
        assert plan.n_tasks == built.n_tasks
        assert plan.site_tasks == built.site_tasks
        with pytest.raises(ValidationError, match="from_docgraph"):
            plan.execute()
        with pytest.raises(ValidationError, match="from_docgraph"):
            plan.with_warm_state(WarmStartState())

    def test_task_for(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        site = toy_docgraph.sites()[0]
        assert plan.task_for(site).site == site
        with pytest.raises(ValidationError):
            plan.task_for("missing.org")


class TestPlanExecution:
    def test_unbatched_matches_the_direct_computation(self, toy_docgraph):
        # The per-site reference — one dedicated task per site — is
        # bitwise identical to calling the solvers directly.
        plan = RankingPlan.from_docgraph(toy_docgraph)
        local = per_site_local_docranks(toy_docgraph)
        for site in toy_docgraph.sites():
            direct = local_docrank(toy_docgraph, site)
            assert np.array_equal(local[site].scores, direct.scores)
        direct_site = siterank(plan.sitegraph)
        assert np.array_equal(plan.siterank_task.run().scores,
                              direct_site.scores)

    def test_batched_default_matches_the_direct_computation(self, toy_docgraph):
        # The default plan fuses the toy web's small sites into one
        # block-diagonal task; scores agree with the per-site solvers to
        # floating-point rounding (the batched-equivalence tests pin the
        # tolerance contract down on bigger webs).
        plan = RankingPlan.from_docgraph(toy_docgraph)
        execution = plan.execute()
        for site in toy_docgraph.sites():
            direct = local_docrank(toy_docgraph, site)
            assert np.allclose(execution.local[site].scores, direct.scores,
                               atol=1e-12, rtol=0.0)
        direct_site = siterank(plan.sitegraph)
        assert np.array_equal(execution.siterank.scores, direct_site.scores)

    def test_execution_metadata(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        execution = plan.execute()
        assert execution.executor_name == "serial"
        assert 1 < execution.n_tasks <= plan.n_tasks
        assert execution.wall_seconds >= 0.0
        assert execution.total_iterations == execution.siterank.iterations + \
            sum(r.iterations for r in execution.local.values())

    def test_batched_execution_dispatches_fewer_tasks(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        execution = plan.execute()
        # All three tiny sites fuse into one payload (+ the SiteRank task).
        assert execution.n_tasks == 2
        assert plan.n_tasks == toy_docgraph.n_sites + 1

    def test_run_task_dispatches_both_task_types(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        local = run_task(plan.site_tasks[0])
        assert local.site == plan.site_tasks[0].site
        site_result = run_task(plan.siterank_task)
        assert site_result.scores.sum() == pytest.approx(1.0)

    def test_executor_map_preserves_task_order(self, toy_docgraph):
        tasks = site_tasks_for(toy_docgraph)
        results = SerialExecutor().map(run_task, tasks)
        assert [r.site for r in results] == [t.site for t in tasks]
        # Step 3 alone runs on the layout, in the same site order.
        only_sites = all_local_docranks(toy_docgraph,
                                        executor=SerialExecutor())
        assert list(only_sites) == [t.site for t in tasks]
        assert [r.site for r in only_sites.values()] == \
            [t.site for t in tasks]


class TestWarmStart:
    def test_alignment_identity(self):
        vector = np.array([0.5, 0.3, 0.2])
        aligned = align_warm_start([4, 7, 9], vector, [4, 7, 9])
        assert np.array_equal(aligned, vector)
        aligned[0] = 0.0  # the returned vector must be a copy
        assert vector[0] == 0.5

    def test_alignment_maps_mass_by_doc_id(self):
        aligned = align_warm_start([4, 7], np.array([0.75, 0.25]), [7, 4])
        assert np.array_equal(aligned, np.array([0.25, 0.75]))

    def test_alignment_pads_new_documents_uniformly(self):
        aligned = align_warm_start([1, 2], np.array([0.6, 0.4]), [1, 2, 3])
        expected = np.array([0.6, 0.4, 1.0 / 3.0])
        assert np.allclose(aligned, expected / expected.sum())
        assert aligned.sum() == pytest.approx(1.0)

    def test_alignment_gives_up_without_overlap(self):
        assert align_warm_start([1, 2], np.array([0.6, 0.4]), [8, 9]) is None
        assert align_warm_start([1], np.array([1.0]), []) is None
        assert align_warm_start([1, 2], np.array([1.0]), [1, 2]) is None

    def test_state_records_and_serves_vectors(self):
        state = WarmStartState()
        assert state.local_start("a.org", [1, 2]) is None
        assert state.siterank_start(["a.org"]) is None
        state.record_local("a.org", [1, 2], np.array([0.9, 0.1]))
        state.record_siterank(["a.org", "b.org"], np.array([0.7, 0.3]))
        assert np.array_equal(state.local_start("a.org", [1, 2]),
                              np.array([0.9, 0.1]))
        assert np.array_equal(state.siterank_start(["a.org", "b.org"]),
                              np.array([0.7, 0.3]))
        assert state.n_sites == 1
        assert state.has_siterank
        state.forget_site("a.org")
        assert state.local_start("a.org", [1, 2]) is None

    def test_warm_executions_resume_from_each_other(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        warm = WarmStartState()
        cold = plan.execute(warm=warm)
        resumed = plan.execute(warm=warm)
        # The graph did not change, so resuming from the converged vectors
        # must cost far fewer iterations and land on the same distributions.
        assert resumed.total_iterations < cold.total_iterations
        for site in toy_docgraph.sites():
            assert np.allclose(resumed.local[site].scores,
                               cold.local[site].scores, atol=1e-9)

    def test_with_warm_state_reseeds_tasks(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        warm = WarmStartState()
        plan.execute(warm=warm)
        reseeded = plan.with_warm_state(warm)
        assert all(task.start is not None for task in reseeded.site_tasks)
        assert reseeded.siterank_task.start is not None
        # The original plan is untouched (cold starts remain).
        assert all(task.start is None for task in plan.site_tasks)

    def test_warm_ranking_agrees_with_cold_pipeline(self, toy_docgraph):
        warm = WarmStartState()
        first = layered_docrank(toy_docgraph, warm=warm)
        second = layered_docrank(toy_docgraph, warm=warm)
        assert second.iterations < first.iterations
        assert np.allclose(first.scores_by_doc_id(),
                           second.scores_by_doc_id(), atol=1e-9)


def two_site_web() -> DocGraph:
    graph = DocGraph()
    for url in ("http://a.org/", "http://a.org/x", "http://b.org/",
                "http://b.org/y"):
        graph.add_document(url)
    graph.add_link("http://a.org/", "http://a.org/x")
    graph.add_link("http://a.org/x", "http://b.org/")
    graph.add_link("http://b.org/y", "http://b.org/")
    return graph


class TestDocumentPreferenceValidation:
    """Preferences are checked once, where the step is built, by site."""

    BAD = [
        ({"typo.org": np.array([0.5, 0.5])}, "unknown site 'typo.org'"),
        ({"a.org": np.array([0.2, 0.3, 0.5])}, "'a.org' has shape"),
        ({"a.org": np.array([0.2, 0.3])}, "'a.org' must sum to 1"),
        ({"a.org": np.array([1.5, -0.5])}, "'a.org' has negative"),
        ({"a.org": np.array([np.nan, 1.0])}, "'a.org' has non-finite"),
        ({"a.org": np.array([np.inf, 0.0])}, "'a.org' has non-finite"),
    ]

    @pytest.mark.parametrize("max_docs", [0, 512])  # dedicated, fused
    @pytest.mark.parametrize("preferences, message", BAD)
    def test_fit_rejects_a_bad_preference(self, preferences, message,
                                          max_docs, monkeypatch):
        from repro.api import Ranker
        from repro.engine import plan

        monkeypatch.setattr(plan, "BATCH_SITE_MAX_DOCS", max_docs)
        with pytest.raises(ValidationError, match=message):
            Ranker().fit(two_site_web(), document_preferences=preferences)
        with pytest.raises(ValidationError, match=message):
            all_local_docranks(two_site_web(), preferences=preferences)

    def test_valid_preferences_still_personalise(self):
        from repro.api import Ranker

        graph = two_site_web()
        plain = Ranker().fit(graph).ranking
        tilted = Ranker().fit(graph, document_preferences={
            "a.org": [0.9, 0.1]}).ranking
        assert tilted.method == "layered-personalized"
        assert not np.array_equal(tilted.scores, plain.scores)
        local = all_local_docranks(graph, preferences={"a.org": [0.9, 0.1]})
        assert np.array_equal(local["a.org"].scores,
                              tilted.local_docranks["a.org"].scores)


def test_a_k_column_batch_answers_solve_only(toy_docgraph):
    from repro.engine.plan import BatchedSiteTask

    blocks = toy_docgraph.site_blocks()
    batch = BatchedSiteTask.from_layout(blocks, [0, 1],
                                        toy_docgraph.sites()[:2], n_vectors=2)
    assert batch.solve().values.shape[0] == int(blocks.offsets[2])
    with pytest.raises(ValidationError, match="solve"):
        batch.run()
