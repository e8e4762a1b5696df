"""Tests for repro.serving.mmapstore — page-cache serving of generations.

Satellite contract: replicas built over :meth:`MmapScoreStore.clone` must
*share* the underlying memory mapping (one physical score column no
matter how many replicas), rolling rebuilds over the mmap-backed store
must behave exactly like the in-memory store's, and a corrupt manifest
must surface as a clean :class:`ValidationError`.
"""

import os

import numpy as np
import pytest

from repro.api import Ranker
from repro.exceptions import GraphStructureError, ValidationError
from repro.graphgen import generate_synthetic_web
from repro.io import ArtifactStore, write_diskgraph
from repro.io.artifacts import GENERATION_MANIFEST
from repro.ir import VectorSpaceIndex, combine_candidates, synthesize_corpus
from repro.engine import rank_outofcore
from repro.serving import (
    MmapScoreStore,
    RankingService,
    ReplicaSet,
    ShardedScoreStore,
    TopKEngine,
)
from repro.serving.mmapstore import _MmapShard


@pytest.fixture(scope="module")
def web():
    return generate_synthetic_web(n_sites=8, n_documents=320, seed=21)


@pytest.fixture(scope="module")
def ranked(web, tmp_path_factory):
    """(in-memory ranking, published artifact store) over the same web."""
    ranker = Ranker()
    result = ranker.fit(web)
    root = tmp_path_factory.mktemp("ranked")
    disk = write_diskgraph(web, root / "graph")
    outcome = rank_outofcore(disk, root / "store")
    return result, outcome.store


@pytest.fixture
def store(ranked) -> MmapScoreStore:
    return MmapScoreStore.from_store(ranked[1])


@pytest.fixture
def memory_store(ranked, web) -> ShardedScoreStore:
    return ShardedScoreStore.from_ranking(ranked[0].ranking, web)


class TestParityWithInMemoryStore:
    def test_top_k_is_identical(self, store, memory_store):
        for k in (1, 10, 50):
            assert TopKEngine(store).top_k(k) \
                == TopKEngine(memory_store).top_k(k)

    def test_per_site_top_k_is_identical(self, store, memory_store, web):
        for site in web.sites():
            assert TopKEngine(store).top_k(5, site=site) \
                == TopKEngine(memory_store).top_k(5, site=site)

    def test_point_lookups_are_identical(self, store, memory_store, web):
        for doc_id in range(web.n_documents):
            assert store.document(doc_id) == memory_store.document(doc_id)
        assert store.n_documents == memory_store.n_documents

    def test_link_scores_are_identical(self, store, memory_store):
        assert store.link_scores() == memory_store.link_scores()

    def test_unknown_document(self, store):
        assert 10_000 not in store
        assert "nope" not in store
        with pytest.raises(ValidationError, match="unknown document"):
            store.score_of(10_000)

    def test_segments_are_rejected(self, store):
        with pytest.raises(ValidationError):
            store.segment_position("students")
        with pytest.raises(ValidationError):
            store.link_scores("students")


class TestSharedMapping:
    def test_clone_shares_the_mapping(self, store):
        clone = store.clone()
        assert isinstance(clone, MmapScoreStore)
        assert clone.ranked_generation is store.ranked_generation
        assert clone._map is store._map
        # Untouched shards are the very same objects, not copies.
        for site in store.sites():
            assert clone._shard(site) is store._shard(site)

    def test_rebuilt_shares_the_mapping(self, store):
        site = store.sites()[0]
        shard = store._shard(site)
        ids = shard.doc_ids
        urls = [store.document(doc_id).url for doc_id in ids]
        scores = np.linspace(1.0, 2.0, len(ids))
        rebuilt = store.rebuilt({site: (ids, urls, scores)})
        assert rebuilt._map is store._map
        # The replaced shard is in-RAM now; the rest still serve from disk.
        assert not isinstance(rebuilt._shard(site), _MmapShard)
        for other in store.sites()[1:]:
            assert rebuilt._shard(other) is store._shard(other)
        # Double buffering: the source store is untouched.
        assert store._shard(site) is shard

    def test_update_site_masks_the_mapped_shard(self, store):
        site = store.sites()[0]
        ids = store._shard(site).doc_ids
        urls = [store.document(doc_id).url for doc_id in ids]
        scores = np.linspace(1.0, 2.0, len(ids))
        generation = store.update_site(site, ids, urls, scores)
        assert store.shard_generation(site) == generation
        best = TopKEngine(store).top_k(1)[0]
        assert best.site == site
        assert best.score == 2.0
        # Masked documents resolve through the overlay, others via mmap.
        assert store.score_of(ids[-1]) == 2.0

    def test_ownership_is_still_enforced(self, store):
        site_a, site_b = store.sites()[:2]
        stolen = store._shard(site_a).doc_ids[0]
        with pytest.raises(GraphStructureError, match="already belongs"):
            store.update_site(site_b, [stolen], ["http://x/"],
                              np.array([1.0]))

    def test_drop_site(self, store):
        site = store.sites()[0]
        doc_id = store._shard(site).doc_ids[0]
        store.drop_site(site)
        assert site not in store.sites()
        assert doc_id not in store
        with pytest.raises(GraphStructureError):
            store.drop_site(site)


class TestRollingRebuilds:
    def test_replicas_share_one_mapping_through_a_rolling_rebuild(
            self, web, ranked):
        """The satellite contract, end to end: N replicas, one mapping."""
        base = MmapScoreStore.from_store(ranked[1])
        generation = base.ranked_generation
        services = [RankingService(base if index == 0 else base.clone())
                    for index in range(3)]
        replica_set = ReplicaSet(services)
        for replica in replica_set.replicas:
            assert replica.service.store.ranked_generation is generation

        with Ranker().incremental(web) as ranker:
            replica_set.attach(ranker)
            source = web.documents_of_site(web.sites()[0])[0]
            target = web.documents_of_site(web.sites()[0])[1]
            ranker.add_link(web.document(source).url,
                            web.document(target).url)
            # Every replica was rebuilt (rolling, one drain at a time)…
            for replica in replica_set.replicas:
                assert replica.rebuilds == 1
                store = replica.service.store
                # …into a store that still shares the original mapping.
                assert isinstance(store, MmapScoreStore)
                assert store.ranked_generation is generation
            replica_set.detach()

    def test_rebuilt_replicas_answer_like_an_in_memory_set(self, web, ranked):
        """After the same update, mmap and in-memory replicas agree."""
        result, artifact_store = ranked
        mmap_service = RankingService(
            MmapScoreStore.from_store(artifact_store))
        memory_service = RankingService(
            ShardedScoreStore.from_ranking(result.ranking, web))

        with Ranker().incremental(web) as ranker:
            site_docs = web.documents_of_site(web.sites()[1])
            report = ranker.add_link(web.document(site_docs[0]).url,
                                     web.document(site_docs[1]).url)
            mmap_service.apply_update(report, ranker=ranker)
            memory_service.apply_update(report, ranker=ranker)
            assert mmap_service.top(25) == memory_service.top(25)
            for doc_id in range(web.n_documents):
                assert mmap_service.score_of(doc_id) \
                    == memory_service.score_of(doc_id)


class TestTextQueries:
    def test_query_equals_search_plus_combine(self, web, ranked):
        """The array query path over mapped shards, then over an overlay
        shard masking one of them, against the list path."""
        index = VectorSpaceIndex.from_corpus(synthesize_corpus(web))
        service = RankingService(MmapScoreStore.from_store(ranked[1]),
                                 index=index)

        def check():
            link_scores = service.store.link_scores()
            for text in ("research database", "university page"):
                for rule in ("linear", "rrf"):
                    assert service.query(text, 6, rule=rule) == tuple(
                        combine_candidates(index.search(text), link_scores,
                                           rule=rule, k=6))

        check()
        with Ranker().incremental(web) as ranker:
            site_docs = web.documents_of_site(web.sites()[3])
            report = ranker.add_link(web.document(site_docs[2]).url,
                                     web.document(site_docs[0]).url)
            service.apply_update(report, ranker=ranker)
        check()


class TestValidation:
    def test_corrupt_generation_manifest(self, ranked, tmp_path):
        artifact_store = ranked[1]
        generation = artifact_store.generation()
        path = tmp_path / "copy"
        import shutil

        shutil.copytree(generation.path, path)
        with open(os.path.join(path, GENERATION_MANIFEST), "w",
                  encoding="utf-8") as handle:
            handle.write("{ nope")
        with pytest.raises(ValidationError, match="corrupt"):
            MmapScoreStore(path)

    def test_store_without_published_generation(self, tmp_path):
        ArtifactStore(tmp_path / "empty", create=True)
        with pytest.raises(ValidationError, match="no published generation"):
            MmapScoreStore.from_store(tmp_path / "empty")

    def test_not_a_store(self, tmp_path):
        with pytest.raises(ValidationError, match="not an artifact store"):
            MmapScoreStore.from_store(tmp_path / "missing")

    def test_segment_columns_rejected_on_update(self, store):
        site = store.sites()[0]
        ids = store._shard(site).doc_ids
        urls = [store.document(doc_id).url for doc_id in ids]
        scores = np.ones(len(ids))
        with pytest.raises(ValidationError, match="no personalisation"):
            store.update_site(site, ids, urls, scores,
                              segment_columns=np.ones((len(ids), 1)))
