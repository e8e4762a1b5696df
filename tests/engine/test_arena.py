"""Tests for repro.engine.arena (zero-copy shared-memory graph transport).

The contract under test: graph payloads reach process-pool workers through
one shared-memory segment per batch instead of pickle; results stay
bitwise identical to the serial reference; and no segment ever outlives
its batch — on success, on executor error, and on service shutdown.
"""

import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine import (
    GraphArena,
    ProcessExecutor,
    SerialExecutor,
    dispatch_bytes,
    live_segments,
    run_task,
    share_batch,
    site_tasks_for,
)
from repro.engine.arena import (
    SEGMENT_PREFIX,
    ArenaRef,
    arena_bytes,
    resolve_csr,
    resolve_task,
    resolve_vector,
    share_task,
)
from repro.engine.plan import RankingPlan, siterank_task_for
from repro.exceptions import ValidationError
from repro.io import toy_web
from repro.linalg.sparse_utils import csr_from_buffers
from repro.web.pipeline import _layered_docrank as layered_docrank
from repro.web.sitegraph import SiteGraph, aggregate_sitegraph


def shm_segments():
    """Arena segment files currently present in /dev/shm (Linux)."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)]


def assert_no_leaks():
    assert live_segments() == []
    assert shm_segments() == []


def _boom(task):
    raise RuntimeError("worker failure injected by the test")


class TestRefsRoundTrip:
    def test_csr_round_trips_bitwise(self, toy_docgraph):
        matrix = toy_docgraph.adjacency()
        with GraphArena(matrix.data.nbytes + matrix.indices.nbytes
                        + matrix.indptr.nbytes + 64) as arena:
            ref = arena.add_csr(matrix)
            assert ref.nnz == matrix.nnz
            view = resolve_csr(ref)
            assert view.shape == matrix.shape
            assert np.array_equal(view.toarray(), matrix.toarray())
        assert_no_leaks()

    def test_vector_round_trips_bitwise(self):
        vector = np.linspace(0.0, 1.0, 37)
        with GraphArena(vector.nbytes + 32) as arena:
            ref = arena.add_vector(vector)
            assert np.array_equal(resolve_vector(ref), vector)
        assert_no_leaks()

    def test_views_are_read_only(self):
        vector = np.ones(8)
        with GraphArena(vector.nbytes + 32) as arena:
            view = resolve_vector(arena.add_vector(vector))
            with pytest.raises(ValueError):
                view[0] = 2.0

    def test_sitegraph_round_trips(self, toy_docgraph):
        sitegraph = aggregate_sitegraph(toy_docgraph)
        task = siterank_task_for(sitegraph)
        with GraphArena(arena_bytes(task)) as arena:
            shared = share_task(arena, task)
            # A SiteGraph stays a SiteGraph; only its adjacency is a ref.
            assert isinstance(shared.sitegraph, SiteGraph)
            assert isinstance(shared.sitegraph.adjacency, ArenaRef)
            assert shared.sitegraph.n_sites == sitegraph.n_sites
            resolved = resolve_task(shared).sitegraph
            assert resolved.sites == sitegraph.sites
            assert resolved.site_sizes == sitegraph.site_sizes
            assert np.array_equal(resolved.adjacency.toarray(),
                                  sitegraph.adjacency.toarray())
        assert_no_leaks()

    def test_overflowing_the_segment_is_rejected(self):
        with GraphArena(16) as arena:
            with pytest.raises(ValidationError, match="overflow"):
                arena.add_vector(np.ones(1000))

    def test_csr_from_buffers_validates_consistency(self):
        matrix = sp.csr_matrix(np.eye(3))
        rebuilt = csr_from_buffers(matrix.data, matrix.indices,
                                   matrix.indptr, matrix.shape)
        assert np.array_equal(rebuilt.toarray(), np.eye(3))
        with pytest.raises(ValidationError, match="indptr"):
            csr_from_buffers(matrix.data, matrix.indices,
                             matrix.indptr[:-1], matrix.shape)
        with pytest.raises(ValidationError, match="align"):
            csr_from_buffers(matrix.data[:-1], matrix.indices,
                             matrix.indptr, matrix.shape)


class TestAttachAfterUnlink:
    def test_resolving_a_disposed_ref_raises_validation_error(self):
        vector = np.ones(16)
        arena = GraphArena(vector.nbytes + 32)
        ref = arena.add_vector(vector)
        arena.dispose()
        with pytest.raises(ValidationError, match="closed/unlinked"):
            resolve_vector(ref)
        assert_no_leaks()

    def test_dispose_is_idempotent(self):
        arena = GraphArena(64)
        arena.dispose()
        arena.dispose()
        assert_no_leaks()


class TestShareBatch:
    def test_tasks_shrink_to_refs(self, small_synthetic_web):
        tasks = site_tasks_for(small_synthetic_web)
        shared, arena = share_batch(tasks)
        try:
            assert arena is not None
            for original, task in zip(tasks, shared):
                assert isinstance(task.adjacency, ArenaRef)
                assert task.adjacency.nnz == original.nnz
                assert isinstance(task.doc_ids, ArenaRef)
                assert task.n_documents == original.n_documents
                assert [int(d) for d in resolve_vector(task.doc_ids)] == \
                    list(original.doc_ids)
            # The shared batch must dispatch far fewer bytes than the
            # by-value batch on any non-trivial web (refs are O(1), the
            # matrices scale with the sites).
            assert dispatch_bytes(shared) < dispatch_bytes(tasks)
        finally:
            arena.dispose()
        assert_no_leaks()

    def test_shared_tasks_produce_identical_results(self, toy_docgraph):
        tasks = site_tasks_for(toy_docgraph)
        reference = [run_task(task) for task in tasks]
        shared, arena = share_batch(tasks)
        try:
            for task, expected in zip(shared, reference):
                result = run_task(resolve_task(task))
                assert np.array_equal(result.scores, expected.scores)
                assert result.iterations == expected.iterations
        finally:
            arena.dispose()
        assert_no_leaks()

    def test_non_float64_and_list_vectors_share_safely(self, toy_docgraph):
        # Regression: the arena budget must account for the array actually
        # written — a float32 or plain-list preference/start vector used to
        # overflow (or crash) the segment sizing on the process backend
        # while working fine on serial.
        site = toy_docgraph.sites()[0]
        n = len(toy_docgraph.documents_of_site(site))
        preferences = {site: np.full(n, 1.0 / n, dtype=np.float32)}
        reference = layered_docrank(toy_docgraph,
                                    document_preferences=preferences)
        with ProcessExecutor(2) as executor:
            result = layered_docrank(toy_docgraph,
                                     document_preferences=preferences,
                                     executor=executor)
            assert executor.last_transport == "arena"
        assert np.array_equal(result.scores, reference.scores)

        site_preference = [1.0 / toy_docgraph.n_sites] * toy_docgraph.n_sites
        reference = layered_docrank(toy_docgraph,
                                    site_preference=site_preference)
        with ProcessExecutor(2) as executor:
            result = layered_docrank(toy_docgraph,
                                     site_preference=site_preference,
                                     executor=executor)
        assert np.array_equal(result.scores, reference.scores)
        assert_no_leaks()

    def test_payloadless_batches_allocate_nothing(self):
        shared, arena = share_batch([1, 2, 3])
        assert arena is None
        assert shared == [1, 2, 3]
        assert_no_leaks()

    def test_plan_batch_shares_the_sitegraph_too(self, toy_docgraph):
        plan = RankingPlan.from_docgraph(toy_docgraph)
        batch = [plan.siterank_task, *plan.site_tasks]
        shared, arena = share_batch(batch)
        try:
            assert isinstance(shared[0].sitegraph.adjacency, ArenaRef)
            reference = run_task(plan.siterank_task)
            result = run_task(resolve_task(shared[0]))
            assert np.array_equal(result.scores, reference.scores)
        finally:
            arena.dispose()
        assert_no_leaks()


class TestExecutorLifecycle:
    """No leaked segments after normal exit, executor error, or close()."""

    def test_normal_batch_leaves_no_segments(self, toy_docgraph):
        with ProcessExecutor(2) as executor:
            result = layered_docrank(toy_docgraph, executor=executor)
            assert executor.last_transport == "arena"
            assert executor.last_dispatch_bytes > 0
        reference = layered_docrank(toy_docgraph)
        assert np.array_equal(result.scores, reference.scores)
        assert_no_leaks()

    def test_worker_error_still_disposes_the_arena(self, toy_docgraph):
        tasks = site_tasks_for(toy_docgraph)
        with ProcessExecutor(2) as executor:
            with pytest.raises(RuntimeError, match="injected"):
                executor.map(_boom, tasks)
        assert_no_leaks()

    def test_spawn_start_method_is_safe(self, toy_docgraph):
        reference = layered_docrank(toy_docgraph)
        with ProcessExecutor(2, start_method="spawn") as executor:
            result = layered_docrank(toy_docgraph, executor=executor)
            assert executor.last_transport == "arena"
        assert np.array_equal(result.scores, reference.scores)
        assert_no_leaks()

    def test_pickle_transport_opt_out(self, toy_docgraph):
        # A batch with nothing to share allocates no arena and reports
        # the plain pickle it rode.
        tasks = site_tasks_for(toy_docgraph)
        reference = [run_task(task) for task in tasks]
        with ProcessExecutor(2) as executor:
            shared = executor.map(run_task, tasks)
            assert executor.last_transport == "arena"
            assert executor.map(abs, [-1, -2]) == [1, 2]
            assert executor.last_transport == "pickle"
            assert executor.last_dispatch_bytes > 0
        for got, want in zip(shared, reference):
            assert np.array_equal(got.scores, want.scores)
        assert_no_leaks()

    def test_dispatch_bytes_accumulate_across_batches(self, toy_docgraph):
        tasks = site_tasks_for(toy_docgraph)
        with ProcessExecutor(2) as executor:
            executor.map(run_task, tasks)
            first = executor.total_dispatch_bytes
            executor.map(run_task, tasks)
            assert executor.total_dispatch_bytes == 2 * first
        assert_no_leaks()

    def test_serial_executor_reports_in_process_transport(self):
        executor = SerialExecutor()
        assert executor.last_transport == "in-process"
        assert executor.last_dispatch_bytes == 0


class TestFieldsThatTravel:
    """K-column matrices and warm starts cross the pool like any array."""

    def test_segment_columns_match_serial(self, small_synthetic_web):
        from repro.api import Ranker, RankingConfig

        web = small_synthetic_web
        # One segment weights a document, so its site's K-column
        # preference matrix rides the fused batch.
        spec = {"page": {"documents": {web.document(0).url: 3.0},
                         "background": 0.2},
                "flat": {"background": 1.0}}
        serial = Ranker(RankingConfig(personalization=spec)).fit(web)
        pooled = Ranker(RankingConfig(personalization=spec,
                                      executor="process",
                                      n_jobs=2)).fit(web)
        assert pooled.provenance["transport"] == "arena"
        assert serial.segments == pooled.segments == ("page", "flat")
        assert np.array_equal(serial.scores, pooled.scores)
        for segment in serial.segments:
            assert np.array_equal(serial.segment_scores(segment),
                                  pooled.segment_scores(segment))
        assert_no_leaks()

    def test_warm_started_fit_matches_serial(self, small_synthetic_web):
        from repro.api import Ranker, RankingConfig

        serial = Ranker(RankingConfig(warm_start=True))
        pooled = Ranker(RankingConfig(warm_start=True, executor="process",
                                      n_jobs=2))
        cold = serial.fit(small_synthetic_web)
        pooled.fit(small_synthetic_web)
        # The second fits start from the first fits' vectors.
        warm = serial.fit(small_synthetic_web)
        result = pooled.fit(small_synthetic_web)
        assert warm.iterations < cold.iterations
        assert result.provenance["transport"] == "arena"
        assert result.iterations == warm.iterations
        assert np.array_equal(result.scores, warm.scores)
        assert_no_leaks()


class TestServiceLifecycle:
    def test_service_close_leaves_no_segments(self):
        from repro.api import Ranker, RankingConfig
        from repro.serving import RankingService

        web = toy_web()
        config = RankingConfig(method="layered", executor="process",
                               n_jobs=2)
        ranker = Ranker(config).incremental(web)
        try:
            with RankingService.from_incremental(ranker) as service:
                # Both refresh paths (site-local and SiteRank) ship their
                # tasks through the process executor's arena; the service
                # rebuilds its shards from what comes back.
                docs = web.documents_of_site(web.sites()[0])
                ranker.add_link(web.document(docs[0]).url,
                                web.document(docs[1]).url)
                other = web.documents_of_site(web.sites()[1])
                ranker.add_link(web.document(docs[0]).url,
                                web.document(other[0]).url)
                assert service.top(5)
        finally:
            ranker.close()
        assert_no_leaks()


class TestProvenance:
    def test_fit_records_transport_and_dispatch_bytes(self, toy_docgraph):
        from repro.api import Ranker, RankingConfig

        serial = Ranker(RankingConfig(executor="serial")).fit(toy_docgraph)
        assert serial.provenance["transport"] == "in-process"
        assert serial.provenance["dispatch_bytes"] == 0

        pooled = Ranker(RankingConfig(executor="process",
                                      n_jobs=2)).fit(toy_docgraph)
        assert pooled.provenance["transport"] == "arena"
        assert pooled.provenance["dispatch_bytes"] > 0
        assert np.array_equal(serial.scores, pooled.scores)
        assert_no_leaks()

    def test_inline_methods_report_inline_transport(self, toy_docgraph):
        from repro.api import Ranker, RankingConfig

        result = Ranker(RankingConfig(method="flat")).fit(toy_docgraph)
        assert result.provenance["transport"] == "inline"
        assert result.provenance["dispatch_bytes"] == 0

    def test_simulation_report_records_transport(self, toy_docgraph):
        from repro.distributed import DistributedRankingCoordinator

        serial = DistributedRankingCoordinator(toy_docgraph, n_peers=2).run()
        assert serial.transport == "in-process"
        assert serial.dispatch_bytes == 0
        with ProcessExecutor(2) as executor:
            pooled = DistributedRankingCoordinator(
                toy_docgraph, n_peers=2, executor=executor).run()
        assert pooled.transport == "arena"
        assert pooled.dispatch_bytes > 0
        assert np.array_equal(serial.ranking.scores, pooled.ranking.scores)
        assert_no_leaks()
