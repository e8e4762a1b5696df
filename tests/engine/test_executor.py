"""Tests for repro.engine.executor (execution backends)."""

import pytest

from repro.engine import (
    BACKENDS,
    Executor,
    SerialExecutor,
    ThreadedExecutor,
    default_n_jobs,
    make_executor,
    resolve_executor,
)
from repro.engine.executor import normalize_n_jobs
from repro.exceptions import ValidationError


class TestSerialExecutor:
    def test_map_preserves_order(self):
        executor = SerialExecutor()
        assert executor.map(abs, [-3, 1, -2]) == [3, 1, 2]

    def test_map_empty_batch(self):
        assert SerialExecutor().map(abs, []) == []

    def test_metadata(self):
        executor = SerialExecutor()
        assert executor.name == "serial"
        assert executor.n_jobs == 1
        assert isinstance(executor, Executor)

    def test_close_is_idempotent(self):
        executor = SerialExecutor()
        executor.close()
        executor.close()

    def test_warmup_is_a_noop(self):
        SerialExecutor().warmup()

    def test_task_error_propagates(self):
        def fail_on_two(item):
            if item == 2:
                raise RuntimeError("task failure injected by the test")
            return item

        with pytest.raises(RuntimeError, match="injected"):
            SerialExecutor().map(fail_on_two, [1, 2, 3])


class TestThreadedExecutor:
    def test_map_preserves_order(self):
        with ThreadedExecutor(2) as executor:
            assert executor.map(abs, list(range(-10, 0))) == list(range(10, 0, -1))

    def test_pool_is_reused_across_batches(self):
        with ThreadedExecutor(2) as executor:
            executor.map(abs, [-1])
            pool = executor._pool
            executor.map(abs, [-2])
            assert executor._pool is pool

    def test_defaults_to_cpu_count(self):
        assert ThreadedExecutor().n_jobs == default_n_jobs()

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValidationError):
            ThreadedExecutor(0)

    def test_map_after_close_fails_fast(self):
        # Silently recreating the pool would leak threads nobody shuts down.
        executor = ThreadedExecutor(1)
        executor.map(abs, [-1])
        executor.close()
        with pytest.raises(ValidationError):
            executor.map(abs, [-4])

    def test_warmup_creates_the_pool(self):
        with ThreadedExecutor(1) as executor:
            assert executor._pool is None
            executor.warmup()
            assert executor._pool is not None

    def test_empty_batch_returns_empty(self):
        with ThreadedExecutor(2) as executor:
            assert executor.map(abs, []) == []

    def test_metadata(self):
        with ThreadedExecutor(3) as executor:
            assert executor.name == "threaded"
            assert executor.n_jobs == 3
            assert isinstance(executor, Executor)

    def test_close_is_idempotent(self):
        executor = ThreadedExecutor(2)
        executor.map(abs, [-1, -2])
        executor.close()
        executor.close()
        assert executor._pool is None

    def test_close_before_first_batch_starts_no_pool(self):
        executor = ThreadedExecutor(2)
        executor.close()
        assert executor._pool is None
        with pytest.raises(ValidationError):
            executor.warmup()

    def test_task_error_propagates_and_the_pool_survives(self):
        def fail_on_two(item):
            if item == 2:
                raise RuntimeError("task failure injected by the test")
            return item

        with ThreadedExecutor(2) as executor:
            with pytest.raises(RuntimeError, match="injected"):
                executor.map(fail_on_two, [1, 2, 3])
            # One failed batch does not poison the pool for the next.
            assert executor.map(abs, [-5, -6]) == [5, 6]

    def test_tasks_run_off_the_calling_thread(self):
        import threading

        caller = threading.get_ident()
        with ThreadedExecutor(2) as executor:
            idents = executor.map(lambda _: threading.get_ident(), range(4))
        assert caller not in idents


class TestMakeExecutor:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_known_backends(self, backend):
        executor = make_executor(backend, 1)
        assert executor.name == backend
        executor.close()

    @pytest.mark.parametrize("backend", ["gpu", "process"])
    def test_unknown_backend_rejected(self, backend):
        with pytest.raises(ValidationError):
            make_executor(backend)

    def test_pooled_backend_takes_the_worker_count(self):
        with make_executor("threaded", 3) as executor:
            assert isinstance(executor, ThreadedExecutor)
            assert executor.n_jobs == 3

    def test_pooled_backend_defaults_to_cpu_count(self):
        with make_executor("threaded") as executor:
            assert executor.n_jobs == default_n_jobs()


class TestNormalizeNJobs:
    @pytest.mark.parametrize("value", [1, 2, 64, "auto"])
    def test_accepted_values_pass_through(self, value):
        assert normalize_n_jobs(value) == value

    @pytest.mark.parametrize("value", [0, -1, 2.0, True, "2", "many", None])
    def test_rejected_values_name_the_parameter(self, value):
        with pytest.raises(ValidationError, match="--jobs"):
            normalize_n_jobs(value, name="--jobs")


class TestResolveExecutor:
    def test_defaults_to_serial(self):
        executor, owned = resolve_executor()
        assert executor.name == "serial"
        assert owned

    def test_n_jobs_one_is_serial(self):
        executor, owned = resolve_executor(n_jobs=1)
        assert executor.name == "serial"
        assert owned

    def test_n_jobs_many_is_a_thread_pool(self):
        executor, owned = resolve_executor(n_jobs=2)
        assert isinstance(executor, ThreadedExecutor)
        assert executor.n_jobs == 2
        assert owned
        executor.close()

    def test_explicit_executor_is_not_owned(self):
        mine = SerialExecutor()
        executor, owned = resolve_executor(mine)
        assert executor is mine
        assert not owned

    def test_executor_and_n_jobs_are_exclusive(self):
        with pytest.raises(ValidationError):
            resolve_executor(SerialExecutor(), n_jobs=2)

    def test_rejects_non_positive_n_jobs(self):
        with pytest.raises(ValidationError):
            resolve_executor(n_jobs=0)
