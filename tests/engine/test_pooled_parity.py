"""Pooled execution of what a fit carries beyond the plain batch.

Preference vectors of any dtype, K-column segment matrices, warm starts,
the SiteRank task riding one batch with the site tasks, and a simulated
round: each reaches the pool workers as the caller's own arrays, and every
result must stay bitwise identical to the serial reference.
"""

import numpy as np
import pytest

from repro.api import Ranker, RankingConfig
from repro.engine import (
    RankingPlan,
    SerialExecutor,
    ThreadedExecutor,
    run_task,
    site_tasks_for,
)
from repro.web.pipeline import _layered_docrank as layered_docrank

POOLED = [{"executor": "threaded", "n_jobs": 2},
          {"executor": "auto", "n_jobs": 2}]


class TestPreferenceVectors:
    def test_float32_document_preferences_match_serial(self, toy_docgraph):
        site = toy_docgraph.sites()[0]
        n = len(toy_docgraph.documents_of_site(site))
        preferences = {site: np.full(n, 1.0 / n, dtype=np.float32)}
        reference = layered_docrank(toy_docgraph,
                                    document_preferences=preferences)
        with ThreadedExecutor(2) as executor:
            result = layered_docrank(toy_docgraph,
                                     document_preferences=preferences,
                                     executor=executor)
        assert np.array_equal(result.scores, reference.scores)

    def test_list_site_preference_matches_serial(self, toy_docgraph):
        site_preference = [1.0 / toy_docgraph.n_sites] * toy_docgraph.n_sites
        reference = layered_docrank(toy_docgraph,
                                    site_preference=site_preference)
        with ThreadedExecutor(2) as executor:
            result = layered_docrank(toy_docgraph,
                                     site_preference=site_preference,
                                     executor=executor)
        assert np.array_equal(result.scores, reference.scores)


class TestFitFields:
    @pytest.mark.parametrize("pooled", POOLED, ids=["threaded", "auto"])
    def test_segment_columns_match_serial(self, small_synthetic_web, pooled):
        web = small_synthetic_web
        # One segment weights a document, so its site's K-column
        # preference matrix rides the fused batch.
        spec = {"page": {"documents": {web.document(0).url: 3.0},
                         "background": 0.2},
                "flat": {"background": 1.0}}
        serial = Ranker(RankingConfig(personalization=spec)).fit(web)
        result = Ranker(RankingConfig(personalization=spec,
                                      **pooled)).fit(web)
        assert serial.segments == result.segments == ("page", "flat")
        assert np.array_equal(serial.scores, result.scores)
        for segment in serial.segments:
            assert np.array_equal(serial.segment_scores(segment),
                                  result.segment_scores(segment))

    @pytest.mark.parametrize("pooled", POOLED, ids=["threaded", "auto"])
    def test_warm_started_fit_matches_serial(self, small_synthetic_web,
                                             pooled):
        serial = Ranker(RankingConfig(warm_start=True))
        ranker = Ranker(RankingConfig(warm_start=True, **pooled))
        cold = serial.fit(small_synthetic_web)
        ranker.fit(small_synthetic_web)
        # The second fits start from the first fits' vectors.
        warm = serial.fit(small_synthetic_web)
        result = ranker.fit(small_synthetic_web)
        assert warm.iterations < cold.iterations
        assert result.iterations == warm.iterations
        assert np.array_equal(result.scores, warm.scores)


class TestOneBatch:
    def test_siterank_rides_the_site_batch(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        batch = [plan.siterank_task, *plan.site_tasks]
        reference = [run_task(task) for task in batch]
        with ThreadedExecutor(2) as executor:
            results = executor.map(run_task, batch)
        assert len(results) == len(reference)
        for got, want in zip(results, reference):
            assert np.array_equal(got.scores, want.scores)

    def test_task_failure_reaches_the_caller(self, toy_docgraph):
        def boom(task):
            raise RuntimeError("worker failure injected by the test")

        with ThreadedExecutor(2) as executor:
            with pytest.raises(RuntimeError, match="injected"):
                executor.map(boom, site_tasks_for(toy_docgraph))
            # The pool still runs the next batch.
            results = executor.map(run_task, site_tasks_for(toy_docgraph))
        reference = [run_task(task) for task in site_tasks_for(toy_docgraph)]
        for got, want in zip(results, reference):
            assert np.array_equal(got.scores, want.scores)


class TestSimulatedRound:
    def test_simulation_report_matches_serial(self, toy_docgraph):
        from repro.distributed import DistributedRankingCoordinator

        serial = DistributedRankingCoordinator(
            toy_docgraph, n_peers=2, executor=SerialExecutor()).run()
        with ThreadedExecutor(2) as executor:
            pooled = DistributedRankingCoordinator(
                toy_docgraph, n_peers=2, executor=executor).run()
        assert pooled.executor_name == "threaded"
        assert np.array_equal(serial.ranking.scores, pooled.ranking.scores)
        # The simulated cost model is independent of the real backend.
        assert pooled.makespan_seconds == serial.makespan_seconds
