"""Tests for adaptive backend selection (n_jobs="auto")."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine import (
    AutoExecutor,
    RankingPlan,
    SerialExecutor,
    ThreadedExecutor,
    batch_flops,
    expected_iterations,
    resolve_executor,
    select_backend,
    task_flops,
)
from repro.engine.adaptive import SERIAL_FLOPS_THRESHOLD, auto_executor
from repro.exceptions import ValidationError
from repro.web.pipeline import _layered_docrank


@dataclass
class FakeTask:
    """Minimal stand-in exposing the cost-model surface of LocalRankTask."""

    nnz: int
    n_documents: int
    damping: float = 0.85
    tol: float = 1e-10
    max_iter: int = 1000


def fake_batch(n_tasks: int, nnz: int) -> list:
    return [FakeTask(nnz=nnz, n_documents=max(1, nnz // 10))
            for _ in range(n_tasks)]


class TestCostModel:
    def test_expected_iterations_clamped_by_budget(self):
        assert expected_iterations(0.85, 1e-10, 20) == 20
        assert expected_iterations(0.85, 1e-10, 1000) == 142

    def test_expected_iterations_degenerate_inputs(self):
        assert expected_iterations(0.0, 1e-10, 50) == 50
        assert expected_iterations(0.85, 0.0, 50) == 50

    def test_task_flops_scale_with_nnz(self):
        small, big = FakeTask(nnz=10, n_documents=5), FakeTask(
            nnz=10_000, n_documents=5_000)
        assert task_flops(big) > task_flops(small) > 0

    def test_unknown_payloads_priced_at_zero(self):
        assert task_flops(("site", [1, 2], None)) == 0.0
        assert batch_flops([object(), object()]) == 0.0


class TestSelection:
    def test_single_task_is_always_serial(self):
        assert select_backend(fake_batch(1, 10**9)) == "serial"

    def test_tiny_batch_is_serial(self):
        assert select_backend(fake_batch(8, 10)) == "serial"

    def test_medium_batch_is_threaded(self):
        batch = fake_batch(8, 20_000)
        assert batch_flops(batch) >= SERIAL_FLOPS_THRESHOLD
        assert select_backend(batch) == "threaded"

    def test_large_batch_is_threaded(self):
        batch = fake_batch(8, 10**6)
        assert batch_flops(batch) >= 10 * SERIAL_FLOPS_THRESHOLD
        assert select_backend(batch) == "threaded"


    def test_explicit_threshold_wins(self):
        batch = fake_batch(8, 20_000)
        cost = batch_flops(batch)
        assert select_backend(batch, serial_threshold=cost * 2) == "serial"
        assert select_backend(batch, serial_threshold=cost / 2) == "threaded"


class TestAutoExecutorFactory:
    def test_serial_priced_batch_gets_a_serial_executor(self):
        executor = auto_executor(fake_batch(8, 10), n_jobs=4)
        assert isinstance(executor, SerialExecutor)

    def test_pool_is_capped_at_the_batch_size(self):
        with auto_executor(fake_batch(3, 10**6), n_jobs=8) as executor:
            assert isinstance(executor, ThreadedExecutor)
            assert executor.n_jobs == 3


class TestAutoExecutor:
    def test_decisions_record_each_batch(self):
        with AutoExecutor(n_jobs=2) as executor:
            executor.map(task_flops, fake_batch(2, 10))
            executor.map(task_flops, fake_batch(8, 20_000))
        first, second = executor.decisions
        assert (first["backend"], first["n_tasks"]) == ("serial", 2)
        assert (second["backend"], second["n_tasks"]) == ("threaded", 8)
        assert second["priced_flops"] == batch_flops(fake_batch(8, 20_000))
        assert executor.last_backend == "threaded"

    def test_resolve_executor_auto(self):
        executor, owned = resolve_executor(None, "auto")
        assert isinstance(executor, AutoExecutor)
        assert owned

    def test_resolve_executor_rejects_other_strings(self):
        with pytest.raises(ValidationError, match="auto"):
            resolve_executor(None, "parallel")

    def test_auto_plan_execution_matches_serial(self, small_synthetic_web):
        plan = RankingPlan.from_docgraph(small_synthetic_web)
        reference = plan.execute(executor=SerialExecutor())
        auto = plan.execute(n_jobs="auto")
        assert auto.executor_name == "auto"
        assert np.array_equal(auto.siterank.scores,
                              reference.siterank.scores)
        for site, rank in reference.local.items():
            assert np.array_equal(auto.local[site].scores, rank.scores)

    def test_auto_pipeline_matches_serial(self, small_synthetic_web):
        serial = _layered_docrank(small_synthetic_web)
        auto = _layered_docrank(small_synthetic_web, n_jobs="auto")
        assert np.array_equal(serial.scores, auto.scores)

    def test_last_backend_recorded(self, toy_docgraph):
        executor = AutoExecutor()
        plan = RankingPlan.from_docgraph(toy_docgraph)
        plan.execute(executor=executor)
        # The toy web's batch is tiny, so the cost model must stay serial.
        assert executor.last_backend == "serial"

    def test_delegate_pools_are_reused_across_batches(self):
        with AutoExecutor(n_jobs=2) as executor:
            executor.map(task_flops, fake_batch(8, 20_000))
            first = executor._delegates["threaded"]
            executor.map(task_flops, fake_batch(8, 20_000))
            assert executor._delegates["threaded"] is first
            # The config's worker cap reaches the pooled delegates.
            assert first.n_jobs == 2

    def test_closed_auto_executor_rejects_work(self):
        executor = AutoExecutor()
        executor.close()
        with pytest.raises(ValidationError, match="closed"):
            executor.map(abs, [1, 2])
        # warmup after close must not silently respawn an orphaned pool.
        with pytest.raises(ValidationError, match="closed"):
            executor.warmup(fake_batch(8, 20_000))

    def test_warmup_for_propagates_body_errors(self):
        from repro.engine import SerialExecutor, warmup_for

        class BrokenWarmup(SerialExecutor):
            def warmup(self, tasks=None):
                raise TypeError("bug inside warmup body")

        with pytest.raises(TypeError, match="bug inside warmup body"):
            warmup_for(BrokenWarmup(), [1, 2])

    def test_legacy_zero_arg_warmup_executors_still_work(self,
                                                         toy_docgraph):
        from repro.distributed.coordinator import (
            DistributedRankingCoordinator,
        )
        from repro.engine import SerialExecutor

        class LegacyExecutor(SerialExecutor):
            """A pre-1.2 executor whose warmup() takes no batch argument."""

            def warmup(self):  # noqa: D102 - intentionally old signature
                self.warmed = True

        executor = LegacyExecutor()
        report = DistributedRankingCoordinator(toy_docgraph, n_peers=2,
                                               executor=executor).run()
        assert report.n_peers == 2
        assert executor.warmed

    def test_warmup_without_a_batch_spawns_nothing(self):
        with AutoExecutor(n_jobs=2) as executor:
            executor.warmup()
            assert executor._delegates == {}

    def test_warmup_with_a_batch_spawns_only_its_backend(self):
        with AutoExecutor(n_jobs=2) as executor:
            executor.warmup(fake_batch(8, 20_000))  # threaded-priced batch
            assert set(executor._delegates) == {"threaded"}
            executor.warmup(fake_batch(2, 10))  # serial-priced batch
            assert set(executor._delegates) == {"threaded"}

    def test_ranker_auto_spec_carries_worker_cap(self):
        from repro.api import Ranker, RankingConfig

        executor, n_jobs, owned = Ranker(
            RankingConfig(executor="auto", n_jobs=2))._engine_spec()
        try:
            assert isinstance(executor, AutoExecutor)
            assert executor.n_jobs == 2
            assert n_jobs is None
            assert owned
        finally:
            executor.close()
