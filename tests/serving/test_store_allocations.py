"""A store holds no per-document Python objects, before or after updates.

Both stores are an array base plus replacement shards: ``from_ranking``
lays the ranking out site-major in a few numpy arrays, ``MmapScoreStore``
maps a generation's files, and a document resolves through one document
-> site column and its site's shard, so an update adds a handful of
arrays and objects per shard, not an entry per document.  The probe
counts the allocation blocks still alive that the two store modules made:
numpy arrays and per-shard objects are a handful per site, while a
dictionary entry per document would cost at least one block per
document.
"""

import tracemalloc

import numpy as np
import pytest

from repro.api import Ranker
from repro.graphgen import generate_synthetic_web
from repro.io.artifacts import GenerationWriter
from repro.serving import MmapScoreStore, ShardedScoreStore, mmapstore, store
from repro.serving.store import UrlTable

#: Live allocation blocks the store modules may hold per document.
BLOCKS_PER_DOCUMENT = 0.25


def _blocks_held_by_store_modules() -> int:
    held = tracemalloc.take_snapshot().filter_traces([
        tracemalloc.Filter(True, store.__file__),
        tracemalloc.Filter(True, mmapstore.__file__)])
    return sum(stat.count for stat in held.statistics("filename"))


@pytest.fixture(scope="module")
def web():
    return generate_synthetic_web(n_sites=40, n_documents=4000, seed=4)


@pytest.fixture(scope="module")
def ranking(web):
    return Ranker().fit(web).ranking


def write_generation(ranking, web, directory):
    """The ranking's generation, one site block per shard."""
    memory = ShardedScoreStore.from_ranking(ranking, web)
    writer = GenerationWriter(directory, method="layered",
                              n_documents=memory.n_documents)
    for site in memory.sites():
        top = memory.shard_top(site, memory.shard_size(site))
        writer.append_site(site, [document.doc_id for document in top],
                           [document.url for document in top],
                           np.array([document.score for document in top]),
                           1.0, 0)
    return writer.finalize(siterank_sites=memory.sites(),
                           siterank_scores=[1.0] * memory.n_shards,
                           siterank_iterations=0, siterank_damping=0.85)


def exercise(served):
    """Reads a server makes: top-k, fragments, point lookups."""
    served.global_top(10)
    served.top_fragments(10)
    for site in served.sites()[:5]:
        served.shard_top(site, 10)
    for doc_id in range(0, served.n_documents, 7):
        served.find(doc_id)


@pytest.mark.parametrize("kind", ["resident", "mapped"])
def test_a_fresh_store_holds_no_per_document_objects(kind, web, ranking,
                                                     tmp_path):
    generation = write_generation(ranking, web, tmp_path / "generation")
    ShardedScoreStore.from_ranking(ranking, web)  # warm imports and caches
    tracemalloc.start(1)
    try:
        served = (ShardedScoreStore.from_ranking(ranking, web)
                  if kind == "resident" else MmapScoreStore(generation))
        exercise(served)
        fresh = _blocks_held_by_store_modules()
        # Lookups read the base through doc_position: no column is built
        # (a mapped serve stays at the pages its answers touch).
        assert "site_rows" not in vars(served._base)
        # Replacing the largest site, with its URLs read by id, and
        # reading it back keys none of its documents.
        # (The records read here are dropped before counting.)
        site = max(served.sites(), key=served.shard_size)
        top = served.shard_top(site, served.shard_size(site))
        doc_ids = np.array([document.doc_id for document in top])
        scores = np.array([document.score for document in top])
        del top
        served.update_site(site, doc_ids,
                           UrlTable(web.registry.urls, doc_ids), scores)
        exercise(served)
        assert [served.score_of(doc_id) for doc_id in doc_ids.tolist()] \
            == scores.tolist()
        updated = _blocks_held_by_store_modules()
    finally:
        tracemalloc.stop()
    n = web.n_documents
    assert fresh < BLOCKS_PER_DOCUMENT * n
    assert updated - fresh < BLOCKS_PER_DOCUMENT * doc_ids.size
