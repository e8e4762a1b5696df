"""Tests for repro.serving.replicas (HashRing + ReplicaSet)."""

import threading

import pytest

from repro.api import Ranker
from repro.exceptions import ValidationError
from repro.graphgen import generate_synthetic_web
from repro.ir import synthesize_corpus
from repro.serving import HashRing, RankingService, ReplicaSet


def layered_docrank(web):
    return Ranker().fit(web).ranking


@pytest.fixture
def web():
    return generate_synthetic_web(n_sites=8, n_documents=300, seed=3)


@pytest.fixture
def corpus(web):
    return synthesize_corpus(web, seed=3)


@pytest.fixture
def replica_set(web, corpus):
    ranking = layered_docrank(web)
    replica_set = ReplicaSet.from_ranking(ranking, web, n_replicas=3,
                                          corpus=corpus)
    yield replica_set
    replica_set.close()


class TestHashRing:
    def test_assignment_is_deterministic(self):
        one = HashRing(["a", "b", "c"])
        two = HashRing(["a", "b", "c"])
        for key in range(200):
            assert one.node_for(key) == two.node_for(key)

    def test_keys_spread_over_all_nodes(self):
        ring = HashRing(["a", "b", "c"])
        owners = {ring.node_for(f"query-{key}") for key in range(300)}
        assert owners == {"a", "b", "c"}

    def test_removal_remaps_only_the_removed_nodes_keys(self):
        ring = HashRing(["a", "b", "c"])
        before = {key: ring.node_for(key) for key in range(500)}
        ring.remove("b")
        for key, owner in before.items():
            if owner != "b":
                # The consistent-hashing property: survivors keep
                # every key they already owned.
                assert ring.node_for(key) == owner
            else:
                assert ring.node_for(key) in {"a", "c"}

    def test_preference_lists_every_node_once(self):
        ring = HashRing(["a", "b", "c"])
        order = list(ring.preference("some key"))
        assert sorted(order) == ["a", "b", "c"]

    def test_duplicate_and_missing_nodes_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValidationError):
            ring.add("a")
        with pytest.raises(ValidationError):
            ring.remove("z")

    def test_empty_ring_has_no_owner(self):
        with pytest.raises(ValidationError):
            HashRing().node_for("key")

    def test_rejects_non_positive_vnodes(self):
        with pytest.raises(ValidationError):
            HashRing(vnodes=0)


class TestConstruction:
    def test_replicas_share_immutable_shards(self, replica_set):
        stores = [replica.service.store
                  for replica in replica_set.replicas]
        assert len(stores) == 3
        first_site = stores[0].sites()[0]
        # Cloned stores reuse the same shard objects (cheap replication).
        assert stores[0]._shard(first_site) is stores[1]._shard(first_site)

    def test_needs_at_least_one_service(self):
        with pytest.raises(ValidationError):
            ReplicaSet([])

    def test_rejects_duplicate_names(self, web):
        ranking = layered_docrank(web)
        services = [RankingService.from_ranking(ranking, web)
                    for _ in range(2)]
        with pytest.raises(ValidationError):
            ReplicaSet(services, names=["same", "same"])

    def test_default_names_are_stable(self, replica_set):
        assert [replica.name for replica in replica_set.replicas] == [
            "replica-0", "replica-1", "replica-2"]


class TestRouting:
    def test_same_text_routes_to_same_replica(self, replica_set):
        first = replica_set.route("research database").name
        assert all(replica_set.route("research database").name == first
                   for _ in range(10))

    def test_routing_skips_drained_replicas(self, replica_set):
        owner = replica_set.route("research database")
        owner.ready = False
        fallback = replica_set.route("research database")
        assert fallback.name != owner.name
        owner.ready = True
        assert replica_set.route("research database").name == owner.name

    def test_query_results_match_single_service(self, web, corpus,
                                                replica_set):
        single = RankingService.from_ranking(
            layered_docrank(web), web, corpus=corpus)
        for text in ["research database", "teaching course", "home page"]:
            assert replica_set.query(text, 5) == single.query(text, 5)

    def test_query_many_reassembles_in_input_order(self, web, corpus,
                                                   replica_set):
        single = RankingService.from_ranking(
            layered_docrank(web), web, corpus=corpus)
        texts = ["research database", "teaching course",
                 "research database", "home page", "teaching course"]
        assert replica_set.query_many(texts, 4) == \
            single.query_many(texts, 4)

    def test_top_and_score_surface(self, web, replica_set):
        ranking = layered_docrank(web)
        assert [d.doc_id for d in replica_set.top(10)] == ranking.top_k(10)
        doc = replica_set.describe(0)
        assert doc is not None and doc.doc_id == 0
        assert replica_set.score_of(0) == pytest.approx(doc.score)


class TestRollingRebuild:
    def incremental_set(self, web, corpus, **kwargs):
        ranker = Ranker().incremental(web)
        replica_set = ReplicaSet.from_incremental(ranker, corpus=corpus,
                                                  n_replicas=3, **kwargs)
        replica_set._owns_ranker = True
        return replica_set, ranker

    def test_update_rolls_over_every_replica(self, web, corpus):
        replica_set, ranker = self.incremental_set(web, corpus)
        with replica_set:
            generations = [replica.service.store.generation
                           for replica in replica_set.replicas]
            ranker.add_document("http://site000.example.org/fresh.html")
            assert replica_set.rolling_rebuilds == 1
            assert all(replica.rebuilds == 1
                       for replica in replica_set.replicas)
            assert all(replica.service.store.generation > generation
                       for replica, generation
                       in zip(replica_set.replicas, generations))
            assert all(replica.ready for replica in replica_set.replicas)

    def test_rebuilt_replicas_agree_with_each_other(self, web, corpus):
        replica_set, ranker = self.incremental_set(web, corpus)
        with replica_set:
            ranker.add_link("http://site000.example.org/",
                            "http://site001.example.org/")
            answers = {replica.name: replica.service.query("research", 5)
                       for replica in replica_set.replicas}
            values = list(answers.values())
            assert all(answer == values[0] for answer in values)

    def test_queries_keep_flowing_during_rolling_rebuild(self, web, corpus):
        replica_set, ranker = self.incremental_set(web, corpus,
                                                   drain_grace=0.02)
        with replica_set:
            stop = threading.Event()
            failures = []
            drains_seen = []

            def hammer():
                while not stop.is_set():
                    try:
                        replica_set.query("research database", 5)
                        replica_set.top(5)
                        drains_seen.append(
                            tuple(replica_set.readiness()["draining"]))
                    except Exception as error:  # noqa: BLE001
                        failures.append(error)

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                for number in range(3):
                    ranker.add_document(
                        f"http://site000.example.org/new{number}.html")
            finally:
                stop.set()
                thread.join(30.0)
            assert failures == []
            assert replica_set.rolling_rebuilds == 3
            # The drain_grace window makes the drains observable: at
            # some instant a replica was out of rotation while queries
            # kept succeeding.
            assert any(drained for drained in drains_seen)

    def test_last_ready_replica_is_never_drained(self, web, corpus):
        replica_set, ranker = self.incremental_set(web, corpus)
        with replica_set:
            for replica in replica_set.replicas[1:]:
                replica.ready = False
            survivor = replica_set.replicas[0]
            assert replica_set._drain(survivor) is False
            assert survivor.ready is True
            for replica in replica_set.replicas[1:]:
                replica.ready = True

    def test_single_replica_set_stays_ready_through_update(self, web,
                                                           corpus):
        ranker = Ranker().incremental(web)
        replica_set = ReplicaSet.from_incremental(ranker, corpus=corpus,
                                                  n_replicas=1)
        replica_set._owns_ranker = True
        with replica_set:
            ranker.add_document("http://site000.example.org/fresh.html")
            assert replica_set.readiness()["ready"] is True
            assert replica_set.replicas[0].rebuilds == 1

    def test_unattached_set_rejects_apply_update(self, replica_set):
        with pytest.raises(ValidationError):
            replica_set.apply_update(None)


class TestReadinessAndStats:
    def test_readiness_shape(self, replica_set):
        readiness = replica_set.readiness()
        assert readiness["ready"] is True
        assert readiness["draining"] == []
        assert {entry["name"] for entry in readiness["replicas"]} == {
            "replica-0", "replica-1", "replica-2"}

    def test_draining_replica_is_reported(self, replica_set):
        replica_set.replicas[1].ready = False
        readiness = replica_set.readiness()
        assert readiness["ready"] is True
        assert readiness["draining"] == ["replica-1"]
        replica_set.replicas[1].ready = True

    def test_stats_keep_single_service_shape(self, replica_set):
        replica_set.query("research database", 5)
        stats = replica_set.stats()
        for field in ("documents", "shards", "generation",
                      "queries_served", "cache", "engine"):
            assert field in stats
        assert set(stats["engine"]) == {"rebuilds", "shards_rebuilt",
                                        "swaps", "last_rebuild_seconds"}
        assert stats["replicas"]["count"] == 3
        assert stats["queries_served"] == 1

    def test_segments_must_match_across_replicas(self, web):
        ranking = layered_docrank(web)
        plain = RankingService.from_ranking(ranking, web)

        class FakeSegmented:
            segments = ("students",)

        with pytest.raises(ValidationError):
            ReplicaSet([plain, FakeSegmented()])
