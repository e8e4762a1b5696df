"""Tests for repro.serving.service (RankingService)."""

import json

import pytest

from repro.api import Ranker, RankingConfig
from repro.exceptions import ValidationError
from repro.graphgen import generate_synthetic_web
from repro.ir import (
    VectorSpaceIndex,
    combine_candidates,
    combined_search,
    synthesize_corpus,
)
from repro.serving import (
    RankingService,
    ShardedScoreStore,
    route_body,
    route_request,
)
from repro.serving.cache import GLOBAL_TAG


# The facade spellings of the two historical entry points the service
# tests lean on (the 1.x shims were removed in 1.4).
def layered_docrank(web):
    return Ranker().fit(web).ranking


def IncrementalLayeredRanker(web):  # noqa: N802 - drop-in name
    return Ranker().incremental(web)


@pytest.fixture
def web():
    return generate_synthetic_web(n_sites=8, n_documents=300, seed=3)


@pytest.fixture
def service(web):
    ranking = layered_docrank(web)
    return RankingService.from_ranking(ranking, web,
                                       corpus=synthesize_corpus(web))


class TestTop:
    def test_top_matches_offline_ranking(self, web, service):
        ranking = layered_docrank(web)
        assert [d.doc_id for d in service.top(10)] == ranking.top_k(10)

    def test_repeat_top_is_a_cache_hit(self, service):
        service.top(10)
        misses = service.cache_stats.misses
        service.top(10)
        assert service.cache_stats.hits == 1
        assert service.cache_stats.misses == misses

    def test_site_top_served_and_cached_separately(self, web, service):
        site = web.sites()[0]
        by_site = service.top(5, site=site)
        assert all(d.site == site for d in by_site)
        assert service.top(5, site=site) == by_site
        assert service.cache_stats.hits == 1

    def test_oversized_k_shares_one_cache_entry(self, web, service):
        """Every k at or above the documents in scope has the same
        results: a stream of distinct ones must not each cache a
        full-store answer."""
        site = web.sites()[0]
        for scope, params in ((web.n_documents, {}),
                              (len(web.documents_of_site(site)),
                               {"site": [site]})):
            service.cache.clear()
            for k in range(scope, scope + 50):
                request = {"k": [str(k)], **params}
                payload, status = route_request(service, "/top", request)
                assert payload["k"] == k
                assert len(payload["results"]) == scope
                assert route_body(service, "/top", request) == \
                    (json.dumps(payload).encode("utf-8"), status)
            assert len(service.cache) <= 2  # one per kind: records, body


class TestTextQueries:
    def test_query_matches_combined_search(self, web, service):
        ranking = layered_docrank(web)
        expected = combined_search(service.index, "research database",
                                   ranking.scores_by_doc_id(), k=5)
        hits = service.query("research database", k=5)
        assert [h.doc_id for h in hits] == [h.doc_id for h in expected]

    def test_query_without_index_raises(self, web):
        service = RankingService.from_ranking(layered_docrank(web), web)
        with pytest.raises(ValidationError):
            service.query("anything")

    def test_from_ranking_rejects_corpus_and_index_together(self, web):
        corpus = synthesize_corpus(web)
        index = VectorSpaceIndex.from_corpus(corpus)
        with pytest.raises(ValidationError):
            RankingService.from_ranking(layered_docrank(web), web,
                                        corpus=corpus, index=index)

    def test_from_ranking_accepts_prebuilt_index(self, web):
        index = VectorSpaceIndex.from_corpus(synthesize_corpus(web))
        service = RankingService.from_ranking(layered_docrank(web), web,
                                              index=index)
        assert service.query("research database", k=3)

    def test_rejected_query_does_not_pollute_stats(self, service):
        from repro.exceptions import GraphStructureError

        with pytest.raises(ValidationError):
            service.query("research", weight=7.0)
        with pytest.raises(GraphStructureError):
            service.top(3, site="nowhere.example.org")
        assert service.cache_stats.lookups == 0

    def test_repeat_query_is_a_cache_hit(self, service):
        first = service.query("research database", k=5)
        again = service.query("research database", k=5)
        assert again == first
        assert service.cache_stats.hits == 1

    def test_distinct_parameters_are_distinct_entries(self, service):
        service.query("research database", k=5)
        service.query("research database", k=7)
        service.query("research database", k=5, rule="rrf")
        assert service.cache_stats.misses == 3

    def test_query_many_deduplicates_batch(self, service):
        texts = ["research database", "teaching course", "research database"]
        answers = service.query_many(texts, k=4)
        assert len(answers) == 3
        assert answers[0] is answers[2]
        # Two unique computations; the in-batch repeat is answered from
        # the batch's own dedup map without ever reaching the cache, and
        # a later identical batch hits the cache once per unique text.
        assert service.cache_stats.misses == 2
        assert service.cache_stats.hits == 0
        assert service.query_many(texts, k=4) == answers
        assert service.cache_stats.misses == 2
        assert service.cache_stats.hits == 2

    def test_query_many_repeats_still_counted_as_served(self, service):
        before = service.queries_served
        service.query_many(["research database"] * 5, k=3)
        assert service.queries_served == before + 5

    def test_no_match_query_returns_empty(self, service):
        assert service.query("zzz qqq nonexistent") == ()

    def test_results_are_immutable_tuples(self, service):
        # Cached entries must be immune to caller mutation.
        assert isinstance(service.top(5), tuple)
        assert isinstance(service.query("research database", k=3), tuple)


def assert_queries_equal_search_plus_combine(service):
    """``service.query`` (arrays end to end) against the list path."""
    link_scores = service.store.link_scores()
    for text in ("research database", "university page", "course",
                 "quantum entanglement"):
        candidates = service.index.search(text)
        for rule, weight, k in (("linear", 0.5, 5), ("linear", 1.0, 3),
                                ("linear", 0.0, 400), ("rrf", 0.5, 7)):
            assert service.query(text, k, rule=rule, weight=weight) \
                == tuple(combine_candidates(candidates, link_scores,
                                            rule=rule, weight=weight, k=k))


class TestArrayQueryPath:
    def test_query_equals_search_plus_combine(self, service):
        assert_queries_equal_search_plus_combine(service)

    def test_still_equal_after_a_patched_site(self, web):
        corpus = synthesize_corpus(web)
        # A document the text index knows but the store does not: its
        # link score is 0 and it contributes no cache tag.
        corpus[10 ** 6] = "research database orphan"
        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(ranker, corpus=corpus)
        assert_queries_equal_search_plus_combine(service)
        docs = web.documents_of_site(web.sites()[2])
        report = ranker.add_link(web.document(docs[3]).url,
                                 web.document(docs[0]).url)
        assert not report.siterank_recomputed
        # A document the store knows but the text index does not.
        ranker.add_document("http://site001.example.org/unindexed.html")
        assert_queries_equal_search_plus_combine(service)


class TestIncrementalInvalidation:
    def test_update_to_any_site_evicts_an_all_sites_query(self, web):
        """Candidates spanning every shard collapse to the global tag,
        which must keep the entry reachable for every site's update."""
        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(
            ranker, corpus=synthesize_corpus(web))
        broad = ("query", "university", 5, "linear", 0.5)
        narrow = ("query", "research", 5, "linear", 0.5)
        for site in web.sites():
            service.query("university", k=5)  # background word: every site
            service.query("research", k=5)    # the first site's topic only
            assert service.cache._entries[broad][1] == {GLOBAL_TAG}
            assert service.cache._entries[narrow][1] == {web.sites()[0]}
            docs = web.documents_of_site(site)
            report = ranker.add_link(web.document(docs[-1]).url,
                                     web.document(docs[1]).url)
            assert not report.siterank_recomputed
            assert broad not in service.cache
            assert (narrow in service.cache) == (site != web.sites()[0])

    def test_service_follows_single_site_update(self, web):
        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(
            ranker, corpus=synthesize_corpus(web))
        before = [d.doc_id for d in service.top(10)]
        assert before == ranker.ranking().top_k(10)

        # An intra-site link: only that site's shard may change.
        site = web.sites()[0]
        docs = web.documents_of_site(site)
        source = web.document(docs[-1]).url
        target = web.document(docs[0]).url
        generations = {s: service.store.shard_generation(s)
                       for s in service.store.sites()}
        report = ranker.add_link(source, target)
        assert report.recomputed_sites == [site]
        assert not report.siterank_recomputed

        # Exactly one shard was replaced.
        changed = [s for s in service.store.sites()
                   if service.store.shard_generation(s) != generations[s]]
        assert changed == [site]
        # And the served answer equals a from-scratch recomposition.
        assert [d.doc_id for d in service.top(10)] == ranker.ranking().top_k(10)

    def test_update_invalidates_affected_entries_only(self, web):
        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(
            ranker, corpus=synthesize_corpus(web))
        site_a, site_b = web.sites()[0], web.sites()[1]
        service.top(5)                      # global entry
        service.top(5, site=site_a)         # changed-site entry
        service.top(5, site=site_b)         # unrelated entry
        docs = web.documents_of_site(site_a)
        ranker.add_link(web.document(docs[0]).url, web.document(docs[1]).url)
        assert ("top", 5, site_b) in service.cache
        assert ("top", 5, site_a) not in service.cache
        assert ("top", 5, None) not in service.cache

    def test_intersite_update_clears_cache(self, web):
        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(
            ranker, corpus=synthesize_corpus(web))
        service.top(5)
        site_a, site_b = web.sites()[:2]
        source = web.document(web.documents_of_site(site_a)[0]).url
        target = web.document(web.documents_of_site(site_b)[0]).url
        report = ranker.add_link(source, target)
        assert report.siterank_recomputed
        assert len(service.cache) == 0
        assert [d.doc_id for d in service.top(10)] == ranker.ranking().top_k(10)

    def test_text_query_consistent_after_update(self, web):
        ranker = IncrementalLayeredRanker(web)
        corpus = synthesize_corpus(web)
        service = RankingService.from_incremental(ranker, corpus=corpus)
        service.query("research database", k=5)
        site = web.sites()[0]
        docs = web.documents_of_site(site)
        ranker.add_link(web.document(docs[2]).url, web.document(docs[0]).url)
        hits = service.query("research database", k=5)
        fresh = RankingService.from_ranking(ranker.ranking(),
                                            ranker.docgraph, corpus=corpus)
        expected = fresh.query("research database", k=5)
        assert [h.doc_id for h in hits] == [h.doc_id for h in expected]

    def test_refresh_index_makes_new_documents_searchable(self, web):
        ranker = IncrementalLayeredRanker(web)
        corpus = synthesize_corpus(web)
        service = RankingService.from_incremental(ranker, corpus=corpus)
        url = "http://site000.example.org/zebra-telescope.html"
        ranker.add_document(url)
        doc_id = web.document_by_url(url).doc_id
        # Link side sees the new document immediately...
        assert service.score_of(doc_id) > 0.0
        # ...but the text side only after re-indexing.
        assert service.query("zebra telescope") == ()
        corpus[doc_id] = "zebra telescope observatory"
        service.refresh_index(corpus)
        assert [h.doc_id for h in service.query("zebra telescope")] == [doc_id]

    def test_double_attach_rejected(self, web):
        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(ranker)
        with pytest.raises(ValidationError):
            service.attach(ranker)

    def test_detach_stops_updates(self, web):
        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(ranker)
        service.detach()
        generation = service.store.generation
        docs = web.documents_of_site(web.sites()[0])
        ranker.add_link(web.document(docs[0]).url, web.document(docs[1]).url)
        assert service.store.generation == generation


def pooled_ranker(web, executor):
    return Ranker(RankingConfig(executor=executor, n_jobs=2)).incremental(web)


def add_intersite_link(web, ranker):
    """An inter-site link: the SiteRank changes, so every shard is rebuilt."""
    sites = web.sites()
    source = web.document(web.documents_of_site(sites[0])[0]).url
    target = web.document(web.documents_of_site(sites[1])[0]).url
    report = ranker.add_link(source, target)
    assert report.siterank_recomputed


def shard_generations(service, web):
    return [service.store.shard_generation(site) for site in web.sites()]


class TestEngineShardRebuild:
    """Whatever pool the *ranker* solves on, the service composes its
    shards inline: same scores, same generations as a serial ranker's."""

    def test_parallel_rebuild_matches_serial_service(self, web):
        serial_ranker = IncrementalLayeredRanker(web)
        serial = RankingService.from_incremental(serial_ranker)
        parallel_web = generate_synthetic_web(n_sites=8, n_documents=300,
                                              seed=3)
        with pooled_ranker(parallel_web, "threaded") as parallel_ranker:
            parallel = RankingService.from_incremental(parallel_ranker)
            add_intersite_link(web, serial_ranker)
            add_intersite_link(parallel_web, parallel_ranker)
            assert [d.doc_id for d in serial.top(20)] == \
                [d.doc_id for d in parallel.top(20)]
            assert [d.score for d in serial.top(20)] == \
                [d.score for d in parallel.top(20)]

    def test_store_generations_stay_deterministic(self, web):
        serial_ranker = IncrementalLayeredRanker(web)
        serial = RankingService.from_incremental(serial_ranker)
        add_intersite_link(web, serial_ranker)
        pooled_web = generate_synthetic_web(n_sites=8, n_documents=300,
                                            seed=3)
        with pooled_ranker(pooled_web, "threaded") as ranker:
            service = RankingService.from_incremental(ranker)
            add_intersite_link(pooled_web, ranker)
            # Shards are installed in site order on the updating thread,
            # so generations are reproducible.
            generations = shard_generations(service, pooled_web)
            assert generations == sorted(generations)
            assert generations == shard_generations(serial, web)


class TestBatchedShardRebuild:
    """An all-shards update is one pass over the sites and one back
    buffer, whatever the mix of shard sizes."""

    def test_batched_rebuild_matches_unbatched_service(self, web):
        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(ranker)
        add_intersite_link(web, ranker)
        fresh = ShardedScoreStore.from_ranking(ranker.ranking(), web)
        for site in web.sites():
            local = ranker.local(site)
            ids, scores = service.store._shard(site).id_score_arrays()
            assert ids.tolist() == list(local.doc_ids)
            # Bitwise the paper's step 5 for the site...
            assert scores.tobytes() == \
                (ranker.siterank.score_of(site) * local.scores).tobytes()
            # ...which a from-scratch composition renormalises by a sum
            # that is 1 up to float drift.
            assert scores == pytest.approx(
                fresh._shard(site).id_score_arrays()[1], rel=1e-12)

    def test_rebuild_dispatches_one_fused_job_for_small_shards(
            self, web, monkeypatch):
        recorded = []
        rebuilt = ShardedScoreStore.rebuilt

        def recording_rebuilt(store, replacements, **kwargs):
            recorded.append(replacements)
            return rebuilt(store, replacements, **kwargs)

        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(ranker)
        monkeypatch.setattr(ShardedScoreStore, "rebuilt", recording_rebuilt)
        add_intersite_link(web, ranker)
        # The whole update is a single back buffer holding every shard.
        (replacements,) = recorded
        assert list(replacements) == web.sites()
        assert sum(len(shard[0]) for shard in replacements.values()) \
            == web.n_documents
        assert service.stats()["engine"]["rebuilds"] == 1
        assert service.stats()["engine"]["shards_rebuilt"] == web.n_sites

    def test_large_shards_keep_dedicated_jobs(self, web):
        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(ranker)
        sizes = [service.store.shard_size(site) for site in web.sites()]
        assert min(sizes) <= 30 < max(sizes)  # a mix of shard sizes
        add_intersite_link(web, ranker)
        # Large or small, shards are installed in site order.
        generations = shard_generations(service, web)
        assert generations == sorted(generations)
        assert generations[-1] == service.store.generation


class TestDoubleBufferedRebuild:
    """Shard rebuilds must not hold the service lock: queries keep being
    answered from the previous shards and only wait for the pointer swap."""

    def test_queries_are_served_while_a_rebuild_is_in_flight(self, web,
                                                             monkeypatch):
        import threading

        entered, release = threading.Event(), threading.Event()
        rebuilt = ShardedScoreStore.rebuilt

        def gated_rebuilt(store, replacements, **kwargs):
            """Blocks the rebuild's back buffer until released."""
            entered.set()
            assert release.wait(timeout=30), "test gate timed out"
            return rebuilt(store, replacements, **kwargs)

        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(ranker)
        before = service.top(10)
        monkeypatch.setattr(ShardedScoreStore, "rebuilt", gated_rebuilt)

        # An inter-site link forces a SiteRank change, i.e. a rebuild of
        # every shard — the worst-case window.
        update = threading.Thread(target=add_intersite_link,
                                  args=(web, ranker))
        update.start()
        try:
            assert entered.wait(timeout=30)
            # The rebuild is mid-flight and gated.  An *uncached* query
            # (different k, so it must read the store) has to complete
            # promptly from the old shards; run it on a helper thread so a
            # regression fails the test instead of deadlocking it.
            answers = {}

            def query():
                answers["top"] = service.top(7)

            worker = threading.Thread(target=query)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive(), \
                "query blocked behind an in-flight shard rebuild"
            assert [d.doc_id for d in answers["top"]] == \
                [d.doc_id for d in before[:7]]
        finally:
            release.set()
            update.join(timeout=30)
        assert not update.is_alive()
        # After the swap the fresh composition is what gets served.
        assert [d.doc_id for d in service.top(10)] == \
            ranker.ranking().top_k(10)

    def test_threaded_executor_rebuild_matches_serial(self, web):
        serial_ranker = IncrementalLayeredRanker(web)
        serial = RankingService.from_incremental(serial_ranker)
        threaded_web = generate_synthetic_web(n_sites=8, n_documents=300,
                                              seed=3)
        with pooled_ranker(threaded_web, "threaded") as threaded_ranker:
            threaded = RankingService.from_incremental(threaded_ranker)
            add_intersite_link(web, serial_ranker)
            add_intersite_link(threaded_web, threaded_ranker)
            # The ranker's factors came back from pool threads; the
            # served scores must still be bitwise the serial ranker's.
            assert [d.score for d in serial.top(20)] == \
                [d.score for d in threaded.top(20)]
            assert shard_generations(threaded, threaded_web) == \
                shard_generations(serial, web)


class TestConcurrency:
    def test_queries_race_safely_with_live_updates(self, web):
        import threading

        ranker = IncrementalLayeredRanker(web)
        service = RankingService.from_incremental(
            ranker, corpus=synthesize_corpus(web))
        errors = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    service.top(5)
                    service.query("research database", k=3)
                    service.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            for _ in range(10):
                site = web.sites()[0]
                docs = web.documents_of_site(site)
                ranker.add_link(web.document(docs[0]).url,
                                web.document(docs[1]).url)
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=30)
        assert errors == []
        assert [d.doc_id for d in service.top(10)] == ranker.ranking().top_k(10)


class TestIntrospection:
    def test_stats_snapshot(self, web, service):
        service.top(3)
        stats = service.stats()
        assert stats["documents"] == web.n_documents
        assert stats["shards"] == web.n_sites
        assert stats["queries_served"] == 1
        assert stats["has_text_index"] is True
        assert stats["attached_to_ranker"] is False

    def test_score_of_point_lookup(self, web, service):
        ranking = layered_docrank(web)
        assert service.score_of(0) == pytest.approx(ranking.score_of(0))
