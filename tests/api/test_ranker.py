"""Tests for the Ranker facade and the unified RankingResult.

The load-bearing property is the acceptance criterion of the API redesign:
``Ranker(config).fit(g)`` must be *bitwise identical* to the historical
pipeline path for the serial, threaded and auto executors, on both the
toy web and the campus web.
"""

import threading
import warnings

import numpy as np
import pytest

from repro.api import Ranker, RankingConfig, RankingResult, available_methods
from repro.exceptions import ValidationError
from repro.web.pipeline import _layered_docrank


def record_made_executors(monkeypatch):
    """Every executor the facade builds by name from here on, in order."""
    import repro.api.ranker as facade

    made = []
    make_executor = facade.make_executor

    def recording(*args):
        made.append(make_executor(*args))
        return made[-1]

    monkeypatch.setattr(facade, "make_executor", recording)
    return made


def add_first_to_last_link(docgraph, ranker):
    """One live update (inter-site on the toy web: every shard rebuilt)."""
    last = docgraph.n_documents - 1
    return ranker.add_link(docgraph.document(0).url,
                           docgraph.document(last).url)


def legacy_layered(docgraph, **kwargs):
    """The historical pipeline entry point the facade must match bitwise."""
    return _layered_docrank(docgraph, **kwargs)


class TestLegacyEquivalence:
    @pytest.mark.parametrize("executor_config", [
        {"executor": "serial"},
        {"executor": "threaded", "n_jobs": 2},
        {"executor": "auto"},
        {"executor": "auto", "n_jobs": 2},
    ])
    def test_bitwise_identical_on_toy_web(self, toy_docgraph,
                                          executor_config):
        legacy = legacy_layered(toy_docgraph)
        result = Ranker(RankingConfig(method="layered",
                                      **executor_config)).fit(toy_docgraph)
        assert result.doc_ids == legacy.doc_ids
        assert np.array_equal(result.scores, legacy.scores)

    @pytest.mark.parametrize("executor_config", [
        {"executor": "serial"},
        {"executor": "threaded", "n_jobs": 2},
        {"executor": "auto"},
    ])
    def test_bitwise_identical_on_campus_web(self, small_campus,
                                             executor_config):
        graph = small_campus.docgraph
        legacy = legacy_layered(graph)
        result = Ranker(RankingConfig(**executor_config)).fit(graph)
        assert np.array_equal(result.scores, legacy.scores)

    def test_non_default_damping_matches_legacy(self, toy_docgraph):
        legacy = legacy_layered(toy_docgraph, damping=0.6, site_damping=0.9)
        result = Ranker(RankingConfig(damping=0.6,
                                      site_damping=0.9)).fit(toy_docgraph)
        assert np.array_equal(result.scores, legacy.scores)

    def test_personalisation_options_forwarded(self, toy_docgraph):
        from repro.web import aggregate_sitegraph

        sitegraph = aggregate_sitegraph(toy_docgraph)
        preference = np.zeros(sitegraph.n_sites)
        preference[0] = 1.0
        expected = _layered_docrank(toy_docgraph, site_preference=preference)
        result = Ranker(RankingConfig()).fit(toy_docgraph,
                                             site_preference=preference)
        assert result.method == "layered-personalized"
        assert np.array_equal(result.scores, expected.scores)


class TestAllMethodsFromOneConfig:
    @pytest.mark.parametrize("method", sorted({"layered", "flat",
                                               "blockrank", "hits"}))
    def test_method_runs_and_normalises(self, toy_docgraph, method):
        assert method in available_methods()
        result = Ranker(RankingConfig(method=method)).fit(toy_docgraph)
        assert isinstance(result, RankingResult)
        assert result.n_documents == toy_docgraph.n_documents
        assert result.scores.min() >= 0.0
        assert np.isclose(result.scores.sum(), 1.0)
        assert len(result.top_k(3)) == 3

    def test_hits_honours_the_configured_iteration_budget(self, toy_docgraph):
        bounded = Ranker(RankingConfig(method="hits",
                                       max_iter=5)).fit(toy_docgraph)
        assert bounded.iterations <= 5

    def test_flat_matches_flat_baseline(self, toy_docgraph):
        from repro.web.pipeline import _flat_pagerank_ranking

        expected = _flat_pagerank_ranking(toy_docgraph)
        result = Ranker(RankingConfig(method="pagerank")).fit(toy_docgraph)
        assert np.array_equal(result.scores, expected.scores)


class TestFacadeErgonomics:
    def test_overrides_shorthand(self, toy_docgraph):
        ranker = Ranker(method="hits")
        assert ranker.config.method == "hits"
        ranker = Ranker(RankingConfig(damping=0.6), method="flat")
        assert (ranker.config.method, ranker.config.damping) == ("flat", 0.6)

    def test_config_type_checked(self):
        with pytest.raises(ValidationError):
            Ranker({"method": "layered"})

    def test_result_before_fit_raises(self):
        with pytest.raises(ValidationError, match="not been fitted"):
            Ranker().result_
        with pytest.raises(ValidationError, match="not been fitted"):
            Ranker().docgraph_

    def test_unknown_method_fails_at_fit(self, toy_docgraph):
        ranker = Ranker(RankingConfig(method="no-such"))
        with pytest.raises(ValidationError, match="available methods"):
            ranker.fit(toy_docgraph)

    def test_inline_methods_report_inline_provenance(self, toy_docgraph):
        # flat/blockrank/hits never touch the engine; a configured pooled
        # backend must not be recorded as if it produced the scores.
        config = RankingConfig(method="flat", executor="threaded", n_jobs=4)
        result = Ranker(config).fit(toy_docgraph)
        assert result.provenance["executor"] == "inline"
        assert result.provenance["n_jobs"] is None
        layered = Ranker(RankingConfig(executor="threaded",
                                       n_jobs=2)).fit(toy_docgraph)
        assert layered.provenance["executor"] == "threaded"
        assert layered.provenance["n_jobs"] == 2

    def test_result_delegation_and_provenance(self, toy_docgraph):
        result = Ranker(RankingConfig()).fit(toy_docgraph)
        assert result.iterations > 0
        assert result.wall_seconds >= 0.0
        assert result.urls[0].startswith("http://")
        assert result.score_of(result.top_k(1)[0]) == result.scores.max()
        assert result.provenance["method"] == "layered"
        assert result.provenance["n_sites"] == toy_docgraph.n_sites
        payload = result.to_dict(top_k=3)
        assert len(payload["ranking"]["top"]) == 3
        assert payload["config"]["method"] == "layered"
        assert payload["provenance"]["repro_version"]


class TestAdapters:
    def test_incremental_matches_direct_construction(self, toy_docgraph):
        ranker = Ranker(RankingConfig())
        incremental = ranker.incremental(toy_docgraph)
        try:
            expected = _layered_docrank(toy_docgraph)
            assert np.allclose(incremental.ranking().scores_by_doc_id(),
                               expected.scores_by_doc_id())
        finally:
            incremental.close()

    def test_incremental_emits_no_deprecation_warning(self, toy_docgraph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Ranker(RankingConfig()).incremental(toy_docgraph).close()

    def test_incremental_defaults_to_fitted_graph(self, toy_docgraph):
        ranker = Ranker(RankingConfig())
        ranker.fit(toy_docgraph)
        incremental = ranker.incremental()
        try:
            assert incremental.docgraph is toy_docgraph
        finally:
            incremental.close()

    def test_incremental_requires_layered(self, toy_docgraph):
        ranker = Ranker(RankingConfig(method="hits"))
        with pytest.raises(ValidationError, match="layered"):
            ranker.incremental(toy_docgraph)

    def test_incremental_honours_site_self_links(self, toy_docgraph):
        config = RankingConfig(include_site_self_links=True)
        ranker = Ranker(config)
        fitted = ranker.fit(toy_docgraph)
        incremental = ranker.incremental(toy_docgraph)
        try:
            assert np.allclose(incremental.ranking().scores_by_doc_id(),
                               fitted.scores_by_doc_id())
        finally:
            incremental.close()

    def test_incremental_failure_closes_owned_executor(self, monkeypatch):
        from repro.exceptions import GraphStructureError
        from repro.web.docgraph import DocGraph

        closed = []
        ranker = Ranker(RankingConfig(executor="threaded", n_jobs=2))
        real_spec = ranker._engine_spec

        def tracking_spec():
            executor, n_jobs, owned = real_spec()
            original_close = executor.close
            executor.close = lambda: (closed.append(True), original_close())
            return executor, n_jobs, owned

        monkeypatch.setattr(ranker, "_engine_spec", tracking_spec)
        with pytest.raises(GraphStructureError):
            ranker.incremental(DocGraph())  # empty graph rejected mid-init
        assert closed == [True]

    def test_distributed_rejects_site_self_links(self, toy_docgraph):
        ranker = Ranker(RankingConfig(include_site_self_links=True))
        with pytest.raises(ValidationError, match="include_site_self_links"):
            ranker.distributed(toy_docgraph)

    def test_distributed_matches_centralized(self, small_synthetic_web):
        ranker = Ranker(RankingConfig(n_peers=3))
        report = ranker.distributed(small_synthetic_web)
        assert report.n_peers == 3
        expected = _layered_docrank(small_synthetic_web)
        assert np.allclose(report.ranking.scores_by_doc_id(),
                           expected.scores_by_doc_id())

    def test_distributed_overrides(self, small_synthetic_web):
        report = Ranker(RankingConfig()).distributed(
            small_synthetic_web, n_peers=2, architecture="super-peer")
        assert report.architecture == "super-peer"
        assert report.n_peers == 2

    def test_serve_from_fit(self, toy_docgraph):
        ranker = Ranker(RankingConfig(cache_size=16))
        service = ranker.serve(docgraph=toy_docgraph)
        top = service.top(3)
        assert [doc.doc_id for doc in top] == ranker.result_.top_k(3)
        assert service.cache.maxsize == 16

    def test_serve_incremental_attaches(self, toy_docgraph):
        service = Ranker(RankingConfig()).serve(docgraph=toy_docgraph,
                                                incremental=True)
        assert service.stats()["attached_to_ranker"] is True
        service.close()
        assert service.stats()["attached_to_ranker"] is False

    def test_serve_owned_ranker_executor_is_released(self, toy_docgraph):
        from repro.exceptions import ValidationError as EngineClosed

        with Ranker(RankingConfig(executor="threaded",
                                  n_jobs=2)).serve(docgraph=toy_docgraph,
                                                   incremental=True) as service:
            ranker = service._ranker
            assert service._owns_ranker
        # close() (via the context manager) must shut the ranker's executor
        # down; a further refresh on it must fail instead of leaking a pool.
        with pytest.raises(EngineClosed, match="closed"):
            ranker.full_rebuild()

    def test_serve_failure_closes_the_ranker_it_built(self, toy_docgraph,
                                                      monkeypatch):
        closed = []

        api = Ranker(RankingConfig())
        real_incremental = api.incremental

        def tracking_incremental(docgraph=None):
            ranker = real_incremental(docgraph)
            original_close = ranker.close
            ranker.close = lambda: (closed.append(True), original_close())
            return ranker

        monkeypatch.setattr(api, "incremental", tracking_incremental)
        # An empty corpus makes RankingService construction fail after the
        # incremental ranker (and its executor) already exist.
        with pytest.raises(ValidationError):
            api.serve(docgraph=toy_docgraph, incremental=True, corpus={})
        assert closed == [True]

    @pytest.mark.parametrize("backend", ["threaded"])
    def test_serve_plumbs_pooled_executor_into_the_service(self,
                                                           toy_docgraph,
                                                           backend,
                                                           monkeypatch):
        made = record_made_executors(monkeypatch)
        before = threading.active_count()
        with Ranker(RankingConfig(executor=backend,
                                  n_jobs=2)).serve(docgraph=toy_docgraph,
                                                   incremental=True) as service:
            # The config's pool is the incremental ranker's solver pool;
            # serving starts none of its own, before or after an update.
            (executor,) = made
            assert service._ranker._executor is executor
            add_first_to_last_link(toy_docgraph, service._ranker)
            assert made == [executor]
            assert service.stats()["engine"]["rebuilds"] == 1
        # Closing the service shuts that one pool down.
        with pytest.raises(ValidationError, match="closed"):
            executor.map(abs, [1])
        assert threading.active_count() == before

    def test_serve_auto_config_uses_thread_pool_for_shards(self,
                                                           toy_docgraph,
                                                           monkeypatch):
        from repro.engine.adaptive import AutoExecutor

        # An "auto" config hands its adaptive executor (worker cap
        # included) to the incremental ranker; serving adds no pool.
        made = record_made_executors(monkeypatch)
        before = threading.active_count()
        with Ranker(RankingConfig(executor="auto",
                                  n_jobs=2)).serve(docgraph=toy_docgraph,
                                                   incremental=True) as service:
            executor = service._ranker._executor
            assert isinstance(executor, AutoExecutor)
            assert executor.n_jobs == 2
            add_first_to_last_link(toy_docgraph, service._ranker)
            assert made == []
        with pytest.raises(ValidationError, match="closed"):
            executor.map(abs, [1])
        assert threading.active_count() == before

    def test_detach_closes_an_owned_ranker(self, toy_docgraph):
        from repro.exceptions import ValidationError as EngineClosed

        service = Ranker(RankingConfig(executor="threaded",
                                       n_jobs=2)).serve(docgraph=toy_docgraph,
                                                        incremental=True)
        ranker = service._ranker
        service.detach()  # the service was the ranker's only handle
        with pytest.raises(EngineClosed, match="closed"):
            ranker.full_rebuild()
        service.close()

    def test_serve_serial_config_keeps_default_executor(self, toy_docgraph,
                                                        monkeypatch):
        # A serial config owns nothing: no executor, no thread, no ranker.
        made = record_made_executors(monkeypatch)
        before = threading.active_count()
        service = Ranker(RankingConfig()).serve(docgraph=toy_docgraph)
        assert made == []
        assert threading.active_count() == before
        assert not service._owns_ranker
        service.close()

    def test_serve_attached_ranker_stays_callers(self, toy_docgraph):
        api = Ranker(RankingConfig())
        incremental = api.incremental(toy_docgraph)
        try:
            service = api.serve(incremental=incremental)
            assert not service._owns_ranker
            service.close()
            incremental.full_rebuild()  # caller's ranker must still work
        finally:
            incremental.close()

    def test_serve_rejects_conflicting_graph_and_ranker(self,
                                                       toy_docgraph,
                                                       spam_docgraph):
        api = Ranker(RankingConfig())
        incremental = api.incremental(toy_docgraph)
        try:
            with pytest.raises(ValidationError, match="different DocGraph"):
                api.serve(incremental=incremental, docgraph=spam_docgraph)
            # The ranker's own graph is fine to pass explicitly.
            api.serve(incremental=incremental,
                      docgraph=toy_docgraph).close()
        finally:
            incremental.close()

    def test_serve_incremental_rejects_prebuilt_index(self, toy_docgraph):
        from repro.ir import VectorSpaceIndex, synthesize_corpus

        index = VectorSpaceIndex.from_corpus(synthesize_corpus(toy_docgraph))
        ranker = Ranker(RankingConfig())
        with pytest.raises(ValidationError, match="corpus"):
            ranker.serve(docgraph=toy_docgraph, incremental=True, index=index)
        incremental = ranker.incremental(toy_docgraph)
        try:
            with pytest.raises(ValidationError, match="corpus"):
                ranker.serve(incremental=incremental, index=index)
        finally:
            incremental.close()

    def test_serve_with_corpus_answers_queries(self, small_synthetic_web):
        from repro.ir import synthesize_corpus

        corpus = synthesize_corpus(small_synthetic_web, seed=3)
        service = Ranker(RankingConfig()).serve(docgraph=small_synthetic_web,
                                                corpus=corpus)
        assert service.query("research", k=2) is not None
