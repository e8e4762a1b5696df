"""The resident and the memory-mapped score store answer alike, always.

A random web gets random, tie-heavy scores; one store is built from that
ranking in memory (``ShardedScoreStore.from_ranking``) and one is opened
over the same ranking's generation files (``MmapScoreStore``).  Hypothesis
then drives both through the same random sequence of changes — shards
grown, shrunk and re-scored by ``update_site``, dropped by ``drop_site``,
replaced and dropped on a back buffer by ``rebuilt``, copied by
``clone`` — and every store made along the way must answer every read
exactly as its twin does: the top-k lists and their JSON fragments, point
lookups of held, replaced, dropped and never-held ids, the link-score
dict and the aligned link-score view (fresh and patched), the shard
iterators and the generation counters.
"""

import json
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphStructureError
from repro.io.artifacts import GenerationWriter
from repro.serving import MmapScoreStore, ShardedScoreStore
from repro.web.docgraph import DocGraph
from repro.web.pipeline import WebRankingResult

#: Few distinct raw scores, so ties within and across shards are the rule.
RAW_SCORES = st.sampled_from([1.0, 2.0, 2.0, 3.0, 5.0])
#: Ids past the web's last document a grown shard may take.
SPARE_IDS = 6


@st.composite
def ranked_webs(draw):
    """``(docgraph, sizes, raw scores, within-site permutation seed)``."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    scores = draw(st.lists(RAW_SCORES, min_size=sum(sizes),
                           max_size=sum(sizes)))
    return sizes, scores, draw(st.integers(0, 2 ** 16))


def build_pair(sizes: List[int], raw: List[float], seed: int, directory
               ) -> Tuple[ShardedScoreStore, MmapScoreStore, int]:
    """The two stores over one ranking, and its document count."""
    graph = DocGraph()
    sites = [f"s{number}.example.org" for number in range(len(sizes))]
    for site, size in zip(sites, sizes):
        for page in range(size):
            graph.add_document(f"http://{site}/päge{page}", site=site)
    rng = np.random.default_rng(seed)
    writer = GenerationWriter(directory, method="layered",
                              n_documents=graph.n_documents)
    doc_ids: List[int] = []
    for site in sites:
        # Site-major like every ranking; pages shuffled inside their site.
        ids = rng.permutation(graph.documents_of_site(site)).tolist()
        writer.append_site(site, ids, [graph.document(d).url for d in ids],
                           np.asarray(raw[len(doc_ids):len(doc_ids)
                                          + len(ids)]), 1.0, 0)
        doc_ids.extend(ids)
    generation = writer.finalize(
        siterank_sites=sites, siterank_scores=[1.0 / len(sites)] * len(sites),
        siterank_iterations=0, siterank_damping=0.85)
    # The resident store gets the generation's (normalised) scores, so
    # both stores hold the very same floats.
    ranking = WebRankingResult(
        doc_ids=doc_ids, urls=[graph.document(d).url for d in doc_ids],
        scores=np.array(generation.array("scores")), method="layered")
    return (ShardedScoreStore.from_ranking(ranking, graph),
            MmapScoreStore(generation), graph.n_documents)


def probe_ids(n_documents: int) -> List[int]:
    """Held, replaced, dropped and never-held ids, negatives included."""
    return list(range(-2, n_documents + SPARE_IDS + 2))


def assert_same(memory: ShardedScoreStore, mapped: MmapScoreStore,
                n_documents: int) -> None:
    """Every read of the two stores agrees (and returns Python ints)."""
    assert memory.sites() == mapped.sites()
    assert memory.n_shards == mapped.n_shards
    assert memory.n_documents == mapped.n_documents
    assert memory.generation == mapped.generation
    sizes = {}
    for site in memory.sites():
        assert memory.shard_generation(site) == mapped.shard_generation(site)
        sizes[site] = memory.shard_size(site)
        assert sizes[site] == mapped.shard_size(site)
        assert list(memory.iter_shard_descending(site)) \
            == list(mapped.iter_shard_descending(site))
    total = memory.n_documents
    ks = sorted({0, 1, total - 1 if total else 0, total, total + 1,
                 *sizes.values(), *(size + 1 for size in sizes.values())})
    for k in ks:
        top = memory.global_top(k)
        assert top == mapped.global_top(k)
        assert all(type(document.doc_id) is int for document in top)
        fragments = memory.top_fragments(k)
        assert fragments == mapped.top_fragments(k)
        assert [json.loads(fragment)["doc_id"] for fragment in fragments] \
            == [document.doc_id for document in top]
        for site, size in sizes.items():
            assert memory.shard_top(site, k) == mapped.shard_top(site, k)
            assert memory.top_fragments(k, site=site) \
                == mapped.top_fragments(k, site=site)
    for doc_id in probe_ids(n_documents):
        found = memory.find(doc_id)
        assert found == mapped.find(doc_id)
        assert (doc_id in memory) == (doc_id in mapped) == (found is not None)
        if found is not None:
            assert type(found.doc_id) is int
            assert memory.score_of(doc_id) == mapped.score_of(doc_id) \
                == found.score
            assert memory.document(doc_id) == mapped.document(doc_id)
            assert memory.site_of(doc_id) == mapped.site_of(doc_id)
    assert memory.link_scores() == mapped.link_scores()
    rows = np.arange(n_documents + SPARE_IDS, dtype=np.int64)
    assert_same_view(memory.link_score_view(rows),
                     mapped.link_score_view(rows))


def assert_same_view(left, right) -> None:
    assert left.sites == right.sites
    assert left.scores.tobytes() == right.scores.tobytes()
    assert np.array_equal(left.site_rows, right.site_rows)


def replacement(data, store: ShardedScoreStore, site: str,
                n_documents: int):
    """A grown, shrunk and/or re-scored shard for *site*."""
    held = [document.doc_id
            for document in store.shard_top(site, store.shard_size(site))] \
        if site in store.sites() else []
    kept = data.draw(st.lists(st.sampled_from(held), unique=True)
                     if held else st.just([]))
    free = [doc_id for doc_id in range(n_documents + SPARE_IDS)
            if doc_id not in store]
    added = data.draw(st.lists(st.sampled_from(free), unique=True,
                               max_size=4) if free else st.just([]))
    doc_ids = kept + added
    scores = data.draw(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]),
                                min_size=len(doc_ids),
                                max_size=len(doc_ids)))
    return (doc_ids, [f"http://{site}/new/{doc_id}" for doc_id in doc_ids],
            np.asarray(scores, dtype=float))


@settings(max_examples=40, deadline=None)
@given(ranked_webs(), st.data())
def test_resident_and_mapped_stores_agree(tmp_path_factory, web, data):
    sizes, raw, seed = web
    memory, mapped, n = build_pair(sizes, raw, seed,
                                   tmp_path_factory.mktemp("generation"))
    pairs = [(memory, mapped)]
    assert_same(memory, mapped, n)
    rows = np.arange(n + SPARE_IDS, dtype=np.int64)
    for _step in range(data.draw(st.integers(1, 6))):
        memory, mapped = pairs[-1]
        action = data.draw(st.sampled_from(
            ["update", "update", "new site", "steal", "drop", "rebuilt",
             "clone"]))
        sites = memory.sites()
        if action == "clone":
            pairs.append((memory.clone(), mapped.clone()))
        elif action == "update" and sites:
            site = data.draw(st.sampled_from(sites))
            before = (memory.link_score_view(rows),
                      mapped.link_score_view(rows))
            doc_ids, urls, scores = replacement(data, memory, site, n)
            assert memory.update_site(site, doc_ids, urls, scores) \
                == mapped.update_site(site, doc_ids, urls, scores)
            # A view patched for the one changed site equals a fresh one.
            patched = [store.link_score_view(rows, previous=view,
                                             changed=[site])
                       for store, view in zip(pairs[-1], before)]
            assert_same_view(*patched)
            assert_same_view(patched[0], memory.link_score_view(rows))
        elif action == "new site":
            site = f"new{memory.generation}.example.org"
            doc_ids, urls, scores = replacement(data, memory, site, n)
            memory.update_site(site, doc_ids, urls, scores)
            mapped.update_site(site, doc_ids, urls, scores)
        elif action == "steal" and len(sites) > 1:
            thief, victim = data.draw(st.lists(st.sampled_from(sites),
                                               min_size=2, max_size=2,
                                               unique=True))
            if memory.shard_size(victim):
                stolen = memory.shard_top(victim, 1)[0]
                for store in (memory, mapped):
                    generation = store.generation
                    with pytest.raises(GraphStructureError,
                                       match="already belongs"):
                        store.update_site(thief, [stolen.doc_id],
                                          [stolen.url], [1.0])
                    assert store.generation == generation
        elif action == "drop" and sites:
            site = data.draw(st.sampled_from(sites))
            memory.drop_site(site)
            mapped.drop_site(site)
        elif action == "rebuilt" and sites:
            dropped = data.draw(st.lists(st.sampled_from(sites), unique=True,
                                         max_size=2))
            replaced = [site for site in data.draw(st.lists(
                st.sampled_from(sites), unique=True, max_size=2))
                if site not in dropped]
            # Replacements are drawn against the store as the drops leave
            # it, so freed documents may move to a replaced site.
            after_drops = memory.clone()
            for site in dropped:
                after_drops.drop_site(site)
            replacements = {}
            for site in replaced:
                replacements[site] = replacement(data, after_drops, site, n)
                after_drops.update_site(site, *replacements[site])
            pairs.append((memory.rebuilt(replacements, drop=dropped),
                          mapped.rebuilt(replacements, drop=dropped)))
        for left, right in pairs:
            assert_same(left, right, n)
