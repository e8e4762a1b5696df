"""Served ``/query`` bodies against ``json.dumps`` of the router's payload.

The server answers ``/query`` from :meth:`RankingService.query_body`: hit
numbers formatted as ``json.dumps`` writes them, joined with the store's
once-encoded ``"url"`` / ``"site"`` members, never from the payload dict
:func:`route_request` builds.  Over random stores — tied scores,
non-ASCII URLs and query texts, personalisation segments, indexed
documents the store does not hold — and random requests (batches with
repeated texts, ``k`` from 0 to above the candidate count, both rules, an
explicit weight, a segment), on a single service and on a
:class:`ReplicaSet`, and across incremental updates, the two must be the
same bytes, on the miss and on the cache hit.  A miss's cache tags must
equal the ``np.unique`` definition they replaced.

Tier-1 runs a short derandomised budget; the long one is its own CI
step::

    python -m pytest tests/serving/test_query_body.py \\
        --hypothesis-profile=oracle-long
"""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Ranker, RankingConfig
from repro.exceptions import ValidationError
from repro.graphgen import generate_synthetic_web
from repro.ir import synthesize_corpus
from repro.ir.combined import SearchHit
from repro.ir.vector_space import VectorSpaceIndex
from repro.serving import (
    RankingService,
    ReplicaSet,
    ShardedScoreStore,
    route_body,
    route_request,
)
from repro.serving.cache import GLOBAL_TAG
from repro.serving.httpd import query_response
from repro.serving.service import candidate_tags
from repro.serving.store import LinkScoreView

LONG_PROFILE = "oracle-long"

#: The property budget: the loaded profile's under ``oracle-long``, a short
#: fixed one otherwise (tier-1).
ORACLE_SETTINGS = (
    settings(deadline=None)
    if settings.get_current_profile_name() == LONG_PROFILE
    else settings(max_examples=25, deadline=None, derandomize=True))

#: Few distinct values, so ties within and across shards are the rule.
SCORES = st.sampled_from([0.0, 0.125, 0.25, 0.25, 0.5, 1.0])
SEGMENTS = ("students", "staff")
#: Index words; the non-ASCII ones reach the echoed query text verbatim
#: and the tokeniser as their ASCII runs.
WORDS = ["research", "database", "teaching", "course", "café", "naïve",
         "☃", "grant"]
TEXTS = st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)


def expected_body(service, params):
    """The oracle: ``json.dumps`` of the router's payload."""
    payload, status = route_request(service, "/query", params)
    return json.dumps(payload).encode("utf-8"), status


def outcome(call, *args):
    """A call's result, or the type and text of the error it raised."""
    try:
        return call(*args)
    except ValidationError as error:  # k=0: a 400 in the server
        return type(error), str(error)


def assert_bodies_match(service, params):
    """Miss, then hit: both bodies (or errors) equal the oracle's."""
    first = outcome(route_body, service, "/query", params)
    assert first == outcome(expected_body, service, params)
    assert outcome(route_body, service, "/query", params) == first


@st.composite
def served_stores(draw):
    """``(store, corpus)``: random shards with non-ASCII URLs, optionally
    personalised, and a corpus that also indexes ids the store lacks."""
    segments = draw(st.sampled_from([(), SEGMENTS]))
    n_sites = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(0, 6), min_size=n_sites,
                          max_size=n_sites))
    n_orphans = draw(st.integers(0, 3))
    n_documents = sum(sizes) + n_orphans
    if n_documents == 0:
        sizes[0], n_documents = 1, 1
    ids = draw(st.permutations(range(n_documents)))
    store = ShardedScoreStore(segments)
    start = 0
    for number, size in enumerate(sizes):
        doc_ids = list(ids[start:start + size])
        start += size
        site = f"site{number}.exämple.org"
        urls = [f"http://{site}/päge/{doc_id}?q=☃" for doc_id in doc_ids]
        scores = np.asarray(draw(st.lists(SCORES, min_size=size,
                                          max_size=size)), dtype=float)
        columns = np.asarray(draw(st.lists(st.tuples(SCORES, SCORES),
                                           min_size=size, max_size=size)),
                             dtype=float).reshape(-1, 2)
        store.update_site(site, doc_ids, urls, scores,
                          segment_columns=columns if segments else None)
    corpus = {doc_id: " ".join(draw(st.lists(st.sampled_from(WORDS),
                                             min_size=1, max_size=5)))
              for doc_id in ids}
    return store, corpus


@st.composite
def query_params(draw, segments=()):
    """One ``/query`` request's parsed parameters."""
    pool = draw(st.lists(TEXTS, min_size=1, max_size=3))
    params = {"q": draw(st.lists(st.sampled_from(pool), min_size=1,
                                 max_size=4)),
              "k": [str(draw(st.sampled_from([0, 1, 2, 5, 10, 1000])))]}
    rule = draw(st.sampled_from([None, "linear", "rrf"]))
    if rule is not None:
        params["rule"] = [rule]
    weight = draw(st.sampled_from([None, 0.0, 0.25, 1.0]))
    if weight is not None:
        params["weight"] = [repr(weight)]
    segment = draw(st.sampled_from([None, *segments]))
    if segment is not None:
        params["segment"] = [segment]
    return params


def served(store, corpus, n_replicas):
    index = VectorSpaceIndex.from_corpus(corpus)
    if n_replicas == 1:
        return RankingService(store, index=index)
    return ReplicaSet([RankingService(store if number == 0
                                      else store.clone(), index=index)
                       for number in range(n_replicas)])


@ORACLE_SETTINGS
@given(data=st.data(), web=served_stores(),
       n_replicas=st.sampled_from([1, 1, 3]))
def test_query_body_is_json_dumps_of_the_payload(data, web, n_replicas):
    store, corpus = web
    service = served(store, corpus, n_replicas)
    for _ in range(3):
        assert_bodies_match(
            service, data.draw(query_params(store.segments)))


def test_a_candidate_the_store_does_not_hold_has_no_location():
    """An indexed document without a shard is a hit of numbers only."""
    store = ShardedScoreStore()
    store.update_site("ä.example.org", [0, 1],
                      ["http://ä.example.org/ü", "http://ä.example.org/☃"],
                      np.array([0.75, 0.25]))
    corpus = {0: "research café", 1: "research", 2: "research naïve"}
    for n_replicas in (1, 2):
        service = served(store, corpus, n_replicas)
        params = {"q": ["research", "naïve ☃", "research"], "k": ["5"]}
        body, status = route_body(service, "/query", params)
        assert (body, status) == expected_body(service, params)
        hits = json.loads(body)["results"][0]["hits"]
        assert {hit["doc_id"] for hit in hits} == {0, 1, 2}
        orphan = next(hit for hit in hits if hit["doc_id"] == 2)
        assert "url" not in orphan and "site" not in orphan
        assert b"\\u00e4" in body and b"na\\u00efve \\u2603" in body


def test_non_finite_scores_are_written_as_json_dumps_writes_them():
    store = ShardedScoreStore()
    store.update_site("s.example.org", [0], ["http://s.example.org/"],
                      np.array([1.0]))
    service = RankingService(store)
    batches = [(SearchHit(0, float("nan"), float("inf"), -float("inf")),
                SearchHit(0, 1e308, 1e308, 0.1),
                SearchHit(7, 0.5, -0.0, 5e-324))]
    for segment in (None, "unused"):
        assert service.hits_body(["q"], batches, 3, segment) == json.dumps(
            query_response(service, ["q"], batches, 3, segment)
        ).encode("utf-8")


def test_concurrent_misses_fill_the_shared_fragments_consistently():
    """Threads answering overlapping texts fill one store's location
    text side by side; every body still equals the oracle's."""
    store = ShardedScoreStore()
    for number in range(5):
        site = f"s{number}.exämple.org"
        ids = list(range(number * 8, number * 8 + 8))
        store.update_site(site, ids, [f"http://{site}/{i}" for i in ids],
                          np.linspace(0.1, 0.9, 8))
    corpus = {doc_id: " ".join(WORDS[doc_id % 8:doc_id % 8 + 2])
              for doc_id in range(44)}
    texts = [" ".join(WORDS[start:start + 2]) for start in range(7)]
    index = VectorSpaceIndex.from_corpus(corpus)
    oracle = RankingService(store.clone(), index=index)
    expected = {text: expected_body(oracle, {"q": [text], "k": ["50"]})
                for text in texts}
    service = RankingService(store, index=index, cache_size=2)
    failures = []

    def client(offset):
        for turn in range(60):
            text = texts[(offset + turn) % len(texts)]
            body = route_body(service, "/query", {"q": [text], "k": ["50"]})
            if body != expected[text]:
                failures.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# --------------------------------------------------------------------- #
# Across incremental updates
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def live_services():
    """A single service and a replica set attached to one live ranker,
    their text index covering one id the graph does not have."""
    web = generate_synthetic_web(n_sites=6, n_documents=180, seed=5)
    corpus = synthesize_corpus(web, seed=5)
    corpus[web.n_documents + 50] = "research database café"
    ranker = Ranker(RankingConfig())
    live = ranker.incremental(web)
    single = ranker.serve(incremental=live)
    replica_set = ranker.serve(incremental=live, replicas=3)
    single.refresh_index(corpus)
    for replica in replica_set.replicas:
        replica.service.refresh_index(corpus)
    yield live, (single, replica_set)
    replica_set.close()
    single.close()
    live.close()


LIVE_TEXTS = st.lists(st.sampled_from(
    ["research", "database", "teaching course", "library archive",
     "software", "café news", "campus map restaurant"]),
    min_size=1, max_size=3)


@ORACLE_SETTINGS
@given(data=st.data())
def test_query_bodies_before_and_after_an_update(live_services, data):
    live, services = live_services
    params = {"q": data.draw(LIVE_TEXTS),
              "k": [str(data.draw(st.sampled_from([0, 3, 10, 500])))]}
    for service in services:
        assert_bodies_match(service, params)
    docgraph = live.docgraph
    site = data.draw(st.sampled_from(sorted(docgraph.sites())))
    pages = [docgraph.document(doc_id).url
             for doc_id in docgraph.documents_of_site(site)]
    live.add_link(data.draw(st.sampled_from(pages)),
                  data.draw(st.sampled_from(pages)))
    for service in services:
        assert_bodies_match(service, params)


# --------------------------------------------------------------------- #
# Cache tags from the presence mask
# --------------------------------------------------------------------- #
def unique_tags(view, rows):
    """The definition the presence mask replaced."""
    site_rows = np.unique(view.site_rows[rows])
    site_rows = site_rows[site_rows >= 0]
    if site_rows.size == len(view.sites):
        return (GLOBAL_TAG,)
    return [view.sites[row] for row in site_rows.tolist()]


@ORACLE_SETTINGS
@given(n_sites=st.integers(0, 6), data=st.data())
def test_candidate_tags_equal_the_unique_definition(n_sites, data):
    site_rows = np.asarray(data.draw(st.lists(st.integers(-1, n_sites - 1),
                                              max_size=30)), dtype=np.int32)
    view = LinkScoreView(np.zeros(site_rows.size), site_rows,
                         tuple(f"site{row}" for row in range(n_sites)))
    rows = np.asarray(data.draw(st.lists(
        st.integers(0, max(site_rows.size - 1, 0)),
        max_size=site_rows.size, unique=True)), dtype=np.int64)
    assert candidate_tags(view, rows) == unique_tags(view, rows)


def test_a_miss_is_tagged_as_the_unique_definition_tags_it(monkeypatch):
    """Through the service, on a view with ``-1`` rows (indexed ids the
    store does not hold): the tags handed to the cache, in order."""
    store = ShardedScoreStore()
    for number in range(4):
        site = f"s{number}.org"
        store.update_site(site, [number * 2, number * 2 + 1],
                          [f"http://{site}/a", f"http://{site}/b"],
                          np.array([0.5, 0.25]))
    corpus = {doc_id: ("research" if doc_id % 3 else "teaching")
              for doc_id in range(10)}
    service = RankingService(store,
                             index=VectorSpaceIndex.from_corpus(corpus))
    view = store.link_score_view(service.index.doc_id_array)
    assert (view.site_rows == -1).any()
    put = service.cache.put
    tagged = []

    def spy(key, value, *, tags=()):
        tagged.append(tags)
        put(key, value, tags=tags)

    monkeypatch.setattr(service.cache, "put", spy)
    for text in ("research", "teaching", "research teaching", "none"):
        service.query(text, 3)
        rows, _scores = service.index.match(text)
        assert tagged.pop() == unique_tags(view, rows)
