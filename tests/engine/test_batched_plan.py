"""Tests for the engine's fused batched-site path (BatchedSiteTask)."""

import numpy as np
import pytest

from repro.engine import (
    BATCH_SITE_MAX_DOCS,
    BatchedSiteTask,
    RankingPlan,
    SerialExecutor,
    ThreadedExecutor,
    batch_site_tasks,
    collect_site_results,
    run_task,
    select_backend,
    site_tasks_for,
    task_flops,
)
from repro.exceptions import ValidationError
from repro.graphgen import generate_synthetic_web


@pytest.fixture(scope="module")
def batched_web():
    # ~25 docs per site: everything is far below BATCH_SITE_MAX_DOCS.
    return generate_synthetic_web(n_sites=12, n_documents=300, seed=33)


class TestBatching:
    def test_small_sites_fuse_into_one_task(self, batched_web):
        tasks = site_tasks_for(batched_web)
        payload = batch_site_tasks(tasks)
        assert len(payload) == 1
        (batched,) = payload
        assert isinstance(batched, BatchedSiteTask)
        assert sorted(batched.sites) == sorted(t.site for t in tasks)
        assert batched.n_documents == sum(t.n_documents for t in tasks)
        assert batched.nnz == sum(t.nnz for t in tasks)

    def test_large_sites_keep_dedicated_tasks(self, batched_web):
        tasks = site_tasks_for(batched_web)
        # Cut at the median site size so both groups are non-empty.
        cutoff = int(sorted(t.n_documents for t in tasks)[len(tasks) // 2])
        payload = batch_site_tasks(tasks, max_docs=cutoff)
        fused = [t for t in payload if isinstance(t, BatchedSiteTask)]
        dedicated = [t for t in payload if not isinstance(t, BatchedSiteTask)]
        assert fused and dedicated
        assert all(t.n_documents > cutoff for t in dedicated)
        assert all(size <= cutoff for batch in fused
                   for size in np.diff(np.asarray(batch.offsets)))

    def test_target_docs_chunks_batches(self, batched_web):
        tasks = site_tasks_for(batched_web)
        payload = batch_site_tasks(tasks, target_docs=80)
        fused = [t for t in payload if isinstance(t, BatchedSiteTask)]
        assert len(fused) > 1
        assert all(batch.n_documents <= 80 + BATCH_SITE_MAX_DOCS
                   for batch in fused)

    def test_singleton_group_stays_dedicated(self, batched_web):
        tasks = site_tasks_for(batched_web)[:1]
        payload = batch_site_tasks(tasks)
        assert payload == tasks

    def test_mixed_parameters_group_separately(self, batched_web):
        from dataclasses import replace

        tasks = site_tasks_for(batched_web)
        tasks[0] = replace(tasks[0], tol=1e-6)
        tasks[1] = replace(tasks[1], tol=1e-6)
        payload = batch_site_tasks(tasks)
        fused = [t for t in payload if isinstance(t, BatchedSiteTask)]
        assert len(fused) == 2
        assert {batch.tol for batch in fused} == {1e-6, tasks[2].tol}

    def test_from_tasks_rejects_mixed_parameters(self, batched_web):
        from dataclasses import replace

        tasks = site_tasks_for(batched_web)[:2]
        with pytest.raises(ValidationError):
            BatchedSiteTask.from_tasks([tasks[0],
                                        replace(tasks[1], damping=0.5)])

    def test_run_matches_per_site_tasks(self, batched_web):
        tasks = site_tasks_for(batched_web, tol=1e-13)
        batched = BatchedSiteTask.from_tasks(tasks)
        fused_results = {rank.site: rank for rank in batched.run()}
        for task in tasks:
            reference = task.run()
            fused = fused_results[task.site]
            assert fused.doc_ids == reference.doc_ids
            assert np.allclose(fused.scores, reference.scores,
                               atol=1e-12, rtol=0.0)

    def test_collect_site_results_splices_mixed_payloads(self, batched_web):
        tasks = site_tasks_for(batched_web)
        payload = batch_site_tasks(tasks, max_docs=10)
        results = [run_task(task) for task in payload]
        by_site = collect_site_results(payload, results)
        assert set(by_site) == {task.site for task in tasks}


class TestBatchedPooledExecution:
    def test_threaded_executor_matches_serial(self, batched_web):
        plan = RankingPlan.from_docgraph(batched_web)
        serial = plan.execute(executor=SerialExecutor())
        with ThreadedExecutor(2) as executor:
            threaded = plan.execute(executor=executor)
        for site in batched_web.sites():
            assert np.array_equal(serial.local[site].scores,
                                  threaded.local[site].scores)


class TestBatchedCostModel:
    def test_fused_task_prices_like_its_parts(self, batched_web):
        tasks = site_tasks_for(batched_web)
        batched = BatchedSiteTask.from_tasks(tasks)
        assert task_flops(batched) == pytest.approx(
            sum(task_flops(task) for task in tasks), rel=1e-12)

    def test_batched_batches_stay_serial_longer(self, batched_web):
        from repro.engine.adaptive import (
            BATCHED_SERIAL_FLOPS_THRESHOLD,
            SERIAL_FLOPS_THRESHOLD,
        )

        class FakeTask:
            def __init__(self, nnz, fused):
                self.nnz = nnz
                self.n_documents = 10
                self.damping, self.tol, self.max_iter = 0.85, 1e-10, 1000
                if fused:
                    self.is_fused_batch = True

        def batch(nnz, fused):
            return [FakeTask(nnz, fused) for _ in range(4)]

        # Pick a per-task size whose 4-task batch lands between the plain
        # and the batched serial cut-off.
        from repro.engine.adaptive import batch_flops

        nnz = 10_000
        while batch_flops(batch(nnz, False)) < SERIAL_FLOPS_THRESHOLD:
            nnz *= 2
        assert batch_flops(batch(nnz, True)) < BATCHED_SERIAL_FLOPS_THRESHOLD
        assert select_backend(batch(nnz, False)) != "serial"
        assert select_backend(batch(nnz, True)) == "serial"


class TestBatchedWarmStart:
    def test_warm_executions_resume_through_batched_path(self, batched_web):
        from repro.engine import WarmStartState

        plan = RankingPlan.from_docgraph(batched_web)
        warm = WarmStartState()
        cold = plan.execute(warm=warm)
        resumed = plan.execute(warm=warm)
        assert resumed.total_iterations < cold.total_iterations
        for site in batched_web.sites():
            assert np.allclose(resumed.local[site].scores,
                               cold.local[site].scores, atol=1e-9)
