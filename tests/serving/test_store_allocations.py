"""A store holds no per-document Python objects until it is updated.

Both stores are an array base plus replacement shards: ``from_ranking``
lays the ranking out site-major in a few numpy arrays, ``MmapScoreStore``
maps a generation's files, and only the documents of shards that an
update replaced get an entry in a dictionary.  The probe counts the
allocation blocks still alive that the two store modules made: numpy
arrays and per-shard objects are a handful per site, while a dictionary
entry per document costs at least one block per document.
"""

import tracemalloc

import numpy as np
import pytest

from repro.api import Ranker
from repro.graphgen import generate_synthetic_web
from repro.io.artifacts import GenerationWriter
from repro.serving import MmapScoreStore, ShardedScoreStore, mmapstore, store

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
        # Replacing one site keys that site's documents, and only those.
        site = served.sites()[0]
        top = served.shard_top(site, served.shard_size(site))
        served.update_site(site, [document.doc_id for document in top],
                           [document.url for document in top],
                           [document.score for document in top])
        updated = _blocks_held_by_store_modules()
    finally:
        tracemalloc.stop()
    n = web.n_documents
    assert served._replaced.keys() == {document.doc_id for document in top}
    assert fresh < BLOCKS_PER_DOCUMENT * n
    assert updated - fresh >= len(top)
