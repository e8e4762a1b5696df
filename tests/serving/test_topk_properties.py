"""The array-native link read path against the heap-merge oracle.

Random stores — tied scores across and within shards, empty and
single-document shards, personalisation segments — must answer ``top_k``,
``top_k_ids``, ``shard_top`` and ``top_body`` exactly as the old k-way heap
merge and ``json.dumps(route_request(...))`` do, on the resident store and
on the mmap-backed one (with and without in-RAM overlay shards), and keep
doing so after every kind of change: the global order is cached per store
generation, so each way of producing a new generation is a way of serving
a stale one.
"""

import json
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import Ranker, RankingConfig
from repro.exceptions import GraphStructureError, ValidationError
from repro.graphgen import generate_synthetic_web
from repro.io.artifacts import GenerationWriter
from repro.serving import (
    MmapScoreStore,
    RankingService,
    ShardedScoreStore,
    TopKEngine,
    route_body,
    route_request,
)
from topk_oracle import from_ranking_loop, oracle_top_k

#: Few distinct values, so ties within and across shards are the rule.
SCORES = st.sampled_from([0.0, 0.125, 0.25, 0.25, 0.5, 1.0])
SEGMENTS = ("students", "staff")


@st.composite
def shard_specs(draw, min_documents=0):
    """``[(site, doc_ids, urls, scores, segment_columns)]`` over a random
    split of a shuffled id range; sites may be empty or hold one page."""
    n_documents = draw(st.integers(min_documents, 24))
    ids = draw(st.permutations(range(n_documents)))
    n_sites = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, n_documents),
                                min_size=n_sites - 1, max_size=n_sites - 1)))
    bounds = [0, *cuts, n_documents]
    specs = []
    for number in range(n_sites):
        doc_ids = list(ids[bounds[number]:bounds[number + 1]])
        site = f"site{number}.example.org"
        # Non-ASCII URLs: json.dumps escapes them, the fragments must too.
        urls = [f"http://{site}/päge/{doc_id}?q=☃" for doc_id in doc_ids]
        scores = draw(st.lists(SCORES, min_size=len(doc_ids),
                               max_size=len(doc_ids)))
        columns = draw(st.lists(st.tuples(SCORES, SCORES),
                                min_size=len(doc_ids),
                                max_size=len(doc_ids)))
        specs.append((site, doc_ids, urls, np.asarray(scores, dtype=float),
                      np.asarray(columns, dtype=float).reshape(-1, 2)))
    return specs


def resident_store(specs, segments=()):
    store = ShardedScoreStore(segments)
    for site, doc_ids, urls, scores, columns in specs:
        store.update_site(site, doc_ids, urls, scores,
                          segment_columns=columns if segments else None)
    return store


def mapped_store(specs, directory):
    n_documents = sum(len(spec[1]) for spec in specs)
    writer = GenerationWriter(directory, method="layered",
                              n_documents=n_documents)
    for site, doc_ids, urls, scores, _columns in specs:
        writer.append_site(site, doc_ids, urls, scores, 1.0, 0)
    sites = [spec[0] for spec in specs]
    return MmapScoreStore(writer.finalize(
        siterank_sites=sites, siterank_scores=[1.0 / len(sites)] * len(sites),
        siterank_iterations=0, siterank_damping=0.85))


def edge_ks(store):
    sizes = {store.shard_size(site) for site in store.sites()}
    total = store.n_documents
    return sorted({0, 1, total, total + 1, *sizes})


def top_path(k, site=None, segment=None):
    params = {"k": [str(k)]}
    if site is not None:
        params["site"] = [site]
    if segment is not None:
        params["segment"] = [segment]
    return params


def assert_matches_oracle(store):
    """Every read of *store* equals the oracle's, dicts and bytes."""
    engine = TopKEngine(store)
    service = RankingService(store)
    for segment in (None, *store.segments):
        for k in edge_ks(store):
            expected = oracle_top_k(store, k, segment=segment)
            assert engine.top_k(k, segment=segment) == expected
            assert engine.top_k_ids(k, segment=segment) == \
                [document.doc_id for document in expected]
            params = top_path(k, segment=segment)
            payload, status = route_request(service, "/top", params)
            assert [entry["doc_id"] for entry in payload["results"]] == \
                [document.doc_id for document in expected]
            assert route_body(service, "/top", params) == \
                (json.dumps(payload).encode("utf-8"), status)
            for site in store.sites():
                expected = oracle_top_k(store, k, site=site, segment=segment)
                assert store.shard_top(site, k, segment=segment) == expected
                assert engine.top_k(k, site=site, segment=segment) == expected
                params = top_path(k, site=site, segment=segment)
                payload, status = route_request(service, "/top", params)
                assert route_body(service, "/top", params) == \
                    (json.dumps(payload).encode("utf-8"), status)


def reversed_scores(store, site):
    """A replacement for *site* that turns its order upside down."""
    top = store.shard_top(site, store.shard_size(site))
    doc_ids = [document.doc_id for document in top]
    scores = np.linspace(0.0, 1.0, len(doc_ids)) if doc_ids \
        else np.empty(0)
    columns = np.column_stack([scores, scores[::-1]]) if store.segments \
        else None
    return doc_ids, [document.url for document in top], scores, columns


def assert_survives_changes(store):
    """In-place and copying changes, each after the order was cached."""
    assert_matches_oracle(store)
    sites = store.sites()
    # clone: independent from here on, in both directions.
    clone = store.clone()
    assert_matches_oracle(clone)
    doc_ids, urls, scores, columns = reversed_scores(clone, sites[0])
    clone.update_site(sites[0], doc_ids, urls, scores,
                      segment_columns=columns)
    assert_matches_oracle(clone)
    assert_matches_oracle(store)
    # rebuilt: the back buffer must not serve the front buffer's order.
    doc_ids, urls, scores, columns = reversed_scores(store, sites[-1])
    replacement = (doc_ids, urls, scores) if columns is None \
        else (doc_ids, urls, scores, columns)
    rebuilt = store.rebuilt({sites[-1]: replacement})
    assert_matches_oracle(rebuilt)
    assert_matches_oracle(store)
    # update_site / drop_site in place.
    store.update_site(sites[-1], doc_ids, urls, scores,
                      segment_columns=columns)
    assert_matches_oracle(store)
    if len(sites) > 1:
        store.drop_site(sites[0])
        assert sites[0] not in store.sites()
        assert_matches_oracle(store)
    assert_matches_oracle(rebuilt)


@settings(max_examples=25, deadline=None)
@given(shard_specs())
def test_resident_store_matches_heap_merge(specs):
    assert_survives_changes(resident_store(specs))


@settings(max_examples=15, deadline=None)
@given(shard_specs())
def test_segment_columns_match_heap_merge(specs):
    assert_survives_changes(resident_store(specs, SEGMENTS))


@settings(max_examples=10, deadline=None)
@given(shard_specs(min_documents=1))
def test_mapped_store_matches_heap_merge(specs):
    # GenerationWriter normalises by the score sum, which must be positive;
    # shifting every score keeps every tie.
    specs = [(site, ids, urls, scores + 1.0, columns)
             for site, ids, urls, scores, columns in specs]
    with tempfile.TemporaryDirectory() as directory:
        # Overlay shards appear as assert_survives_changes replaces sites.
        assert_survives_changes(mapped_store(specs, directory))


class TestStaleOrder:
    """The cached global order must die with the generation it sorted."""

    @pytest.fixture
    def store(self):
        store = ShardedScoreStore()
        store.update_site("a", [0, 1], ["u0", "u1"], [0.9, 0.1])
        store.update_site("b", [2, 3], ["u2", "u3"], [0.5, 0.4])
        return store

    def test_update_site_in_place_drops_the_order(self, store):
        engine = TopKEngine(store)
        assert engine.top_k_ids(4) == [0, 2, 3, 1]
        store.update_site("a", [0, 1], ["u0", "u1"], [0.1, 0.9])
        assert engine.top_k_ids(4) == [1, 2, 3, 0]

    def test_drop_site_in_place_drops_the_order(self, store):
        engine = TopKEngine(store)
        assert engine.top_k_ids(4) == [0, 2, 3, 1]
        store.drop_site("a")
        assert engine.top_k_ids(4) == [2, 3]

    def test_clone_does_not_share_a_lazily_filled_order(self, store):
        clone = store.clone()
        assert clone._global_cache is not store._global_cache
        assert TopKEngine(store).top_k_ids(4) == [0, 2, 3, 1]  # fills store's
        clone.update_site("b", [2, 3], ["u2", "u3"], [0.95, 0.0])
        assert TopKEngine(clone).top_k_ids(4) == [2, 0, 1, 3]
        assert TopKEngine(store).top_k_ids(4) == [0, 2, 3, 1]

    def test_rebuilt_starts_without_the_order(self, store):
        assert TopKEngine(store).top_k_ids(1) == [0]
        rebuilt = store.rebuilt({"b": ([2, 3], ["u2", "u3"], [0.95, 0.0])})
        assert TopKEngine(rebuilt).top_k_ids(2) == [2, 0]
        assert TopKEngine(store).top_k_ids(2) == [0, 2]

    def test_racing_readers_fill_identical_orders(self):
        """Unlocked readers of a cold store (more than cores, switching
        every few bytecodes) may each sort the order and each encode a
        fragment; all of them must read the one right answer."""
        web = generate_synthetic_web(n_sites=12, n_documents=400, seed=8)
        ranking = Ranker().fit(web).ranking
        expected = ranking.top_k(60)
        answers, errors = [], []

        def read(store, barrier):
            try:
                barrier.wait(10.0)
                fragments = store.top_fragments(60)
                answers.append(([d.doc_id for d in store.global_top(60)],
                                [json.loads(f)["doc_id"] for f in fragments]))
            except Exception as error:  # noqa: BLE001 - thread boundary
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                store = ShardedScoreStore.from_ranking(ranking, web)
                barrier = threading.Barrier(6)
                threads = [threading.Thread(target=read,
                                            args=(store, barrier))
                           for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert answers == [(expected, expected)] * 30

    def test_order_is_built_once_per_generation(self, store):
        obs.reset()
        engine = TopKEngine(store)
        for k in (1, 2, 3, 4):
            engine.top_k(k)
        assert obs.registry().counter_value(
            "serving_global_order_builds_total") == 1.0
        store.update_site("a", [0, 1], ["u0", "u1"], [0.1, 0.9])
        engine.top_k(2)
        engine.top_k(3)
        assert obs.registry().counter_value(
            "serving_global_order_builds_total") == 2.0


class TestHugeK:
    """``k`` above ``sys.maxsize`` is a request for everything, not a 500
    (``islice`` used to reject it on the global path only)."""

    K = 99999999999999999999999

    def test_resident_store(self):
        web = generate_synthetic_web(n_sites=4, n_documents=60, seed=2)
        store = ShardedScoreStore.from_ranking(Ranker().fit(web).ranking, web)
        self._check(store, web.n_documents)

    def test_mapped_store(self, tmp_path):
        specs = [("a", [0, 2], ["u0", "u2"], np.array([0.5, 0.25]), None),
                 ("b", [1], ["u1"], np.array([0.25]), None)]
        store = mapped_store(specs, tmp_path / "generation")
        self._check(store, 3)
        # ... and with an in-RAM overlay shard masking a mapped one.
        store.update_site("b", [1], ["u1"], [2.0])
        self._check(store, 3)

    def _check(self, store, n_documents):
        service = RankingService(store)
        everything = TopKEngine(store).top_k(self.K)
        assert len(everything) == n_documents
        assert everything == oracle_top_k(store, self.K)
        for site in (None, store.sites()[0]):
            params = top_path(self.K, site=site)
            payload, status = route_request(service, "/top", params)
            assert status == 200 and payload["k"] == self.K
            assert route_body(service, "/top", params) == \
                (json.dumps(payload).encode("utf-8"), 200)
        assert len(route_request(service, "/top", top_path(self.K))[0]
                   ["results"]) == n_documents


class TestTopBody:
    @pytest.fixture(scope="class")
    def service(self):
        web = generate_synthetic_web(n_sites=5, n_documents=120, seed=3)
        return RankingService.from_ranking(Ranker().fit(web).ranking, web)

    def test_accounting_matches_top(self, service):
        """Same validation before the lookup, same counters after it."""
        served, stats = service.queries_served, service.cache_stats
        lookups = stats.lookups
        with pytest.raises(ValidationError):
            service.top_body(-1)
        with pytest.raises(GraphStructureError):
            service.top_body(3, site="nowhere.example.org")
        with pytest.raises(ValidationError):
            service.top_body(3, segment="nobody")
        assert service.cache_stats.lookups == lookups
        assert service.queries_served == served
        first = service.top_body(7)
        assert service.top_body(7) is first          # the cached bytes
        assert service.queries_served == served + 2
        assert service.cache_stats.lookups == lookups + 2
        assert ("top_body", 7, None) in service.cache

    def test_tags_follow_top(self, service):
        site = service.store.sites()[0]
        service.top_body(4)
        service.top_body(4, site=site)
        service.cache.invalidate_tag(site)
        assert ("top_body", 4, site) not in service.cache
        assert ("top_body", 4, None) in service.cache

    def test_top_seconds_observed_on_misses_only(self, service):
        obs.reset()
        service.cache.clear()
        site = service.store.sites()[0]
        for _ in range(3):
            service.top_body(5)
            service.top(5, site=site)
        histograms = {
            (entry["name"], entry["labels"].get("scope")): entry["count"]
            for entry in obs.snapshot()["histograms"]}
        assert histograms[("serving_top_seconds", "global")] == 1
        assert histograms[("serving_top_seconds", "site")] == 1

    def test_mapped_shards_cache_no_fragments(self, tmp_path):
        specs = [("a", [0, 1], ["u0", "u1"], np.array([0.5, 0.25]), None)]
        store = mapped_store(specs, tmp_path / "generation")
        assert store.top_fragments(2) == store.top_fragments(2)
        assert not hasattr(store._shard("a"), "_fragments")


class TestFromRanking:
    """Grouping by one stable argsort installs what the old walk did."""

    @pytest.mark.parametrize("personalised", [False, True])
    def test_identical_to_the_document_walk(self, personalised):
        web = generate_synthetic_web(n_sites=7, n_documents=150, seed=13)
        config = RankingConfig(personalization={
            "students": {"sites": {web.sites()[1]: 1.0}},
            "staff": {"sites": {web.sites()[2]: 2.0}, "background": 0.2},
        }) if personalised else RankingConfig()
        ranking = Ranker(config).fit(web).ranking
        # Interleave the sites so first-seen order differs from site order.
        shuffle = np.random.default_rng(4).permutation(len(ranking.doc_ids))
        ranking.doc_ids = [ranking.doc_ids[i] for i in shuffle]
        ranking.urls = [ranking.urls[i] for i in shuffle]
        ranking.scores = ranking.scores[shuffle]
        if personalised:
            ranking.segment_columns = ranking.segment_columns[shuffle]
        store = ShardedScoreStore.from_ranking(ranking, web)
        oracle = from_ranking_loop(ranking, web)
        assert store.sites() == oracle.sites()
        assert store.segments == oracle.segments
        assert store.generation == oracle.generation
        assert store._entries == oracle._entries
        assert list(store._entries) == list(oracle._entries)
        for site in oracle.sites():
            ours, theirs = store._shard(site), oracle._shard(site)
            assert ours.generation == theirs.generation
            assert ours.doc_ids == theirs.doc_ids
            assert ours.urls == theirs.urls
            assert np.array_equal(ours.scores, theirs.scores)
            assert np.array_equal(ours.order, theirs.order)
            if personalised:
                assert np.array_equal(ours.segment_columns,
                                      theirs.segment_columns)

    def test_unknown_document_id_is_rejected(self):
        web = generate_synthetic_web(n_sites=3, n_documents=30, seed=1)
        ranking = Ranker().fit(web).ranking
        ranking.doc_ids[0] = 10_000
        with pytest.raises(GraphStructureError, match="10000"):
            ShardedScoreStore.from_ranking(ranking, web)

    def test_segment_score_of_reads_the_documents_row(self):
        store = ShardedScoreStore(("students",))
        store.update_site("s", [7, 3, 5], ["u7", "u3", "u5"],
                          [0.1, 0.2, 0.3],
                          segment_columns=[[0.7], [0.3], [0.5]])
        assert [store.segment_score_of(doc_id, "students")
                for doc_id in (3, 5, 7)] == [0.3, 0.5, 0.7]
