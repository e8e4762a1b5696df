"""Tests for repro.io.artifacts — the ranked-artifact store."""

import json
import os

import numpy as np
import pytest

from repro.exceptions import NotADistributionError, ValidationError
from repro.io import ArtifactStore, RankedGeneration, open_artifact_store
from repro.io.artifacts import GENERATION_MANIFEST, STORE_MANIFEST


#: Two hand-sized shards: (site, doc_ids, urls, local scores, site score).
SITES = [
    ("alpha.org", [2, 0, 4], ["http://alpha.org/c", "http://alpha.org/a",
                              "http://alpha.org/e"],
     np.array([0.5, 0.3, 0.2]), 0.6),
    ("beta.org", [1, 3], ["http://beta.org/b", "http://beta.org/d"],
     np.array([0.7, 0.3]), 0.4),
]
SITERANK = dict(siterank_sites=["alpha.org", "beta.org"],
                siterank_scores=[0.6, 0.4],
                siterank_iterations=7, siterank_damping=0.85)


def _write_generation(store: ArtifactStore) -> RankedGeneration:
    writer = store.create_generation(method="layered", n_documents=5)
    for site, ids, urls, local, weight in SITES:
        writer.append_site(site, ids, urls, local, weight, iterations=3)
    return writer.finalize(iterations=13, **SITERANK)


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store", create=True)


@pytest.fixture
def generation(store) -> RankedGeneration:
    generation = _write_generation(store)
    store.publish(generation.name)
    return generation


class TestGenerationWriter:
    def test_scores_are_weighted_and_normalised(self, generation):
        weighted = np.concatenate([weight * local
                                   for _, _, _, local, weight in SITES])
        expected = weighted / float(np.sum(weighted))
        np.testing.assert_array_equal(generation.map_array("scores"),
                                      expected)

    def test_order_is_per_shard_descending(self, generation):
        scores = generation.map_array("scores")
        order = generation.map_array("order")
        ids = generation.map_array("doc_ids")
        for shard in generation.shards():
            offset, count = shard["offset"], shard["count"]
            block_order = order[offset:offset + count]
            block = scores[offset:offset + count]
            block_ids = ids[offset:offset + count]
            expected = np.lexsort((block_ids, -block))
            np.testing.assert_array_equal(block_order, expected)

    def test_doc_position_is_the_inverse_permutation(self, generation):
        position = generation.map_array("doc_position")
        ids = generation.map_array("doc_ids")
        for doc_id in range(5):
            assert int(ids[int(position[doc_id])]) == doc_id

    def test_urls_round_trip(self, generation):
        ids = generation.map_array("doc_ids")
        by_id = {doc_id: url
                 for _, shard_ids, urls, _, _ in SITES
                 for doc_id, url in zip(shard_ids, urls)}
        for index in range(5):
            assert generation.url_at(index) == by_id[int(ids[index])]

    def test_manifest_metadata(self, generation):
        assert generation.method == "layered"
        assert generation.n_documents == 5
        assert generation.iterations == 13
        block = generation.siterank()
        assert block["sites"] == ["alpha.org", "beta.org"]
        assert block["scores"] == [0.6, 0.4]
        assert block["damping"] == 0.85

    def test_rejects_duplicate_site(self, store):
        writer = store.create_generation(method="layered", n_documents=5)
        writer.append_site(*SITES[0][:4], SITES[0][4], iterations=1)
        with pytest.raises(ValidationError, match="appended twice"):
            writer.append_site(*SITES[0][:4], SITES[0][4], iterations=1)
        writer.abort()

    def test_rejects_misaligned_block(self, store):
        writer = store.create_generation(method="layered", n_documents=5)
        with pytest.raises(ValidationError, match="must align"):
            writer.append_site("alpha.org", [0, 1], ["http://a/"],
                               np.array([0.5, 0.5]), 1.0, iterations=1)
        writer.abort()

    def test_rejects_out_of_range_ids(self, store):
        writer = store.create_generation(method="layered", n_documents=5)
        with pytest.raises(ValidationError, match="outside"):
            writer.append_site("alpha.org", [0, 9], ["http://a/", "http://b/"],
                               np.array([0.5, 0.5]), 1.0, iterations=1)
        writer.abort()

    def test_finalize_requires_full_coverage(self, store):
        writer = store.create_generation(method="layered", n_documents=5)
        writer.append_site(*SITES[0][:4], SITES[0][4], iterations=1)
        with pytest.raises(ValidationError, match="covers 3 documents"):
            writer.finalize(**SITERANK)

    def test_negative_scores_fail_normalisation(self, store):
        writer = store.create_generation(method="layered", n_documents=2)
        writer.append_site("alpha.org", [0, 1], ["http://a/", "http://b/"],
                           np.array([0.5, -0.5]), 1.0, iterations=1)
        with pytest.raises(NotADistributionError):
            writer.finalize(**SITERANK)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_fail_normalisation(self, store, bad):
        # min < 0 and sum <= 0 are both false for NaN: the parent wrote a
        # scores.bin of NaNs, published it and served it.
        writer = store.create_generation(method="layered", n_documents=3)
        writer.append_site("alpha.org", [0, 1], ["http://a/", "http://b/"],
                           np.array([0.5, bad]), 1.0, iterations=1)
        writer.append_site("beta.org", [2], ["http://c/"], np.array([1.0]),
                           1.0, iterations=1)
        with pytest.raises(NotADistributionError, match="non-finite"):
            writer.finalize(**SITERANK)
        with pytest.raises(ValidationError, match="not a ranked generation"):
            store.publish("gen-000001")
        assert store.current is None

    def test_normalize_distribution_rejects_a_non_finite_total(self):
        from repro._validation import normalize_distribution

        for vector in ([0.5, np.nan], [np.inf, 1.0], [np.nan]):
            with pytest.raises(NotADistributionError, match="non-finite"):
                normalize_distribution(vector)
        valid = np.array([0.1, 0.7, 0.2])
        assert np.array_equal(normalize_distribution(valid),
                              valid / float(valid.sum()))

    def test_abort_leaves_no_generation(self, store, tmp_path):
        writer = store.create_generation(method="layered", n_documents=5)
        writer.append_site(*SITES[0][:4], SITES[0][4], iterations=1)
        writer.abort()
        writer.abort()  # idempotent
        with pytest.raises(ValidationError, match="not a ranked generation"):
            RankedGeneration(tmp_path / "store" / "gen-000001")


class TestAppendSites:
    """The unit append: what append_site checked, for a run of sites."""

    def _unit(self, **changes):
        unit = dict(sites=["alpha.org", "beta.org"], counts=[3, 2],
                    doc_ids=[2, 0, 4, 1, 3],
                    local_scores=np.array([0.5, 0.3, 0.2, 0.7, 0.3]),
                    url_bytes=np.frombuffer(b"cAeBd", dtype=np.uint8),
                    url_lengths=[1, 1, 1, 1, 1], site_scores=[0.6, 0.4],
                    iterations=[3, 3])
        unit.update(changes)
        return unit

    def test_a_unit_writes_what_its_sites_write(self, store, generation):
        writer = store.create_generation(method="layered", n_documents=5)
        writer.append_sites(**self._unit(
            url_bytes=np.frombuffer("".join(
                url for _, _, urls, _, _ in SITES for url in urls
            ).encode(), dtype=np.uint8),
            url_lengths=[len(url) for _, _, urls, _, _ in SITES
                         for url in urls]))
        unit = writer.finalize(iterations=13, **SITERANK)
        for name in sorted(os.listdir(generation.path)):
            with open(os.path.join(generation.path, name), "rb") as one, \
                    open(os.path.join(unit.path, name), "rb") as other:
                assert one.read() == other.read(), name

    @pytest.mark.parametrize("changes, match", [
        (dict(sites=["alpha.org", "alpha.org"]), "appended twice"),
        (dict(counts=[3, 3]), "must align"),
        (dict(url_lengths=[1, 1, 1, 1, 2]), "must align"),
        (dict(site_scores=[0.6]), "must align"),
        (dict(doc_ids=[2, 0, 4, 1, 9]), "'beta.org' has document ids"),
    ])
    def test_rejects_what_append_site_rejects(self, store, changes, match):
        writer = store.create_generation(method="layered", n_documents=5)
        with pytest.raises(ValidationError, match=match):
            writer.append_sites(**self._unit(**changes))

    def test_names_the_site_that_overflows(self, store):
        writer = store.create_generation(method="layered", n_documents=4)
        with pytest.raises(ValidationError, match="'beta.org' overflows"):
            writer.append_sites(**self._unit(doc_ids=[2, 0, 3, 1, 3]))

    def test_rejects_a_site_of_an_earlier_unit(self, store):
        writer = store.create_generation(method="layered", n_documents=5)
        writer.append_site(*SITES[0][:4], SITES[0][4], iterations=1)
        with pytest.raises(ValidationError, match="appended twice"):
            writer.append_sites(**self._unit())


class TestArtifactStore:
    def test_create_then_reopen(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", create=True)
        assert store.current is None
        assert store.generations() == []
        reopened = open_artifact_store(tmp_path / "s")
        assert reopened.current is None

    def test_create_preserves_existing_store(self, store, generation):
        again = ArtifactStore(store.path, create=True)
        assert again.current == generation.name

    def test_publish_flips_the_pointer(self, store):
        first = _write_generation(store)
        assert store.current is None
        store.publish(first.name)
        assert store.current == first.name
        assert store.generations() == [first.name]
        second = _write_generation(store)
        assert second.name != first.name
        store.publish(second.name)
        assert store.current == second.name
        assert store.generations() == [first.name, second.name]
        # The superseded generation stays readable (double buffering).
        assert store.generation(first.name).n_documents == 5

    def test_generation_without_publish_raises(self, store):
        with pytest.raises(ValidationError, match="no published generation"):
            store.generation()

    def test_publish_validates_the_generation(self, store):
        with pytest.raises(ValidationError):
            store.publish("gen-999999")

    def test_open_missing_store(self, tmp_path):
        with pytest.raises(ValidationError, match="not an artifact store"):
            ArtifactStore(tmp_path / "missing")


class TestCorruption:
    def test_corrupt_store_manifest(self, store, generation):
        with open(os.path.join(store.path, STORE_MANIFEST), "w",
                  encoding="utf-8") as handle:
            handle.write("{ nope")
        with pytest.raises(ValidationError, match="corrupt"):
            ArtifactStore(store.path)

    def test_corrupt_generation_manifest(self, generation):
        with open(os.path.join(generation.path, GENERATION_MANIFEST), "w",
                  encoding="utf-8") as handle:
            handle.write("{ nope")
        with pytest.raises(ValidationError, match="corrupt"):
            RankedGeneration(generation.path)

    def test_wrong_generation_format(self, generation):
        with open(os.path.join(generation.path, GENERATION_MANIFEST), "w",
                  encoding="utf-8") as handle:
            json.dump({"format": "other"}, handle)
        with pytest.raises(ValidationError):
            RankedGeneration(generation.path)

    def test_missing_array_file(self, generation):
        os.remove(os.path.join(generation.path, "order.bin"))
        with pytest.raises(ValidationError):
            RankedGeneration(generation.path)

    def test_truncated_array_file(self, generation):
        scores = os.path.join(generation.path, "scores.bin")
        with open(scores, "r+b") as handle:
            handle.truncate(8)
        with pytest.raises(ValidationError):
            RankedGeneration(generation.path)
