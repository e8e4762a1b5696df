"""What an update leaves in the served stores, against the paper's step 5.

Random sequences of the four kinds of live update — a link inside a site,
a link between sites, a new document, a new site — are fed to one
incremental ranker that three deployments follow: an attached
``RankingService``, a two-replica ``ReplicaSet`` and an unattached service
over an ``MmapScoreStore`` driven through ``apply_update(report,
ranker=live)``.  After every update each store must hold, per invalidated
site, exactly ``π_S(s) · π_D(s)`` of the ranker's cached factors (bitwise)
and, everywhere else, the bytes it held before (a published generation
starts out bitwise the in-memory ranking: ``GenerationWriter.finalize``
applies the same normalisation).

Against ``ShardedScoreStore.from_ranking(live.ranking(), live.docgraph)``
ids and URLs are equal and scores agree to 1e-12 only: ``compose_ranking``
divides the concatenated vector by its sum (1 ± a few ulp), which a
per-site rebuild cannot and need not reproduce.
"""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Ranker
from repro.graphgen import generate_synthetic_web
from repro.io.artifacts import GenerationWriter
from repro.serving import (
    MmapScoreStore,
    RankingService,
    ReplicaSet,
    ShardedScoreStore,
    route_body,
    route_request,
)

OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["intra", "inter", "document", "site"]),
              st.integers(0, 63), st.integers(0, 63), st.integers(0, 63)),
    min_size=1, max_size=4)


def composed_shard(live, site):
    """``{doc_id: (url, score)}`` of one site by the paper's step 5."""
    local = live.local(site)
    scores = live.siterank.score_of(site) * local.scores
    return {doc_id: (live.docgraph.document(doc_id).url, score)
            for doc_id, score in zip(local.doc_ids, scores.tolist())}


def shard_contents(store, site):
    return {document.doc_id: (document.url, document.score)
            for document in store.iter_shard_descending(site)}


def mapped_store(live, directory):
    """The ranker's current factors as a published generation, mmap'd."""
    graph = live.docgraph
    writer = GenerationWriter(directory, method="layered",
                              n_documents=graph.n_documents)
    for site in graph.sites():
        local = live.local(site)
        writer.append_site(site, local.doc_ids,
                           [graph.document(doc_id).url
                            for doc_id in local.doc_ids],
                           local.scores, live.siterank.score_of(site), 0)
    siterank = live.siterank
    return MmapScoreStore(writer.finalize(
        siterank_sites=list(siterank.sites),
        siterank_scores=list(siterank.scores),
        siterank_iterations=0, siterank_damping=0.85))


def apply_operation(live, operation, serial):
    """Run one drawn operation; its report and the document it targeted."""
    kind, first, second, third = operation
    graph = live.docgraph
    sites = graph.sites()
    site = sites[first % len(sites)]
    documents = graph.documents_of_site(site)
    if kind == "intra" and len(documents) < 2:
        kind = "document"
    if kind == "intra":
        source = documents[second % len(documents)]
        others = [doc_id for doc_id in documents if doc_id != source]
        target = others[third % len(others)]
    elif kind == "inter":
        other = sites[(first + 1 + second % (len(sites) - 1)) % len(sites)]
        source = documents[second % len(documents)]
        elsewhere = graph.documents_of_site(other)
        target = elsewhere[third % len(elsewhere)]
    else:
        host = site if kind == "document" else f"fresh{serial}.example.net"
        url = f"http://{host}/added-{serial}.html"
        report = live.add_document(url)
        return report, graph.document_by_url(url).doc_id
    report = live.add_link(graph.document(source).url,
                           graph.document(target).url)
    return report, target


def assert_store_holds(store, model, rebuilt_sites):
    assert store.sites() == list(model)
    assert store.n_documents == sum(len(shard) for shard in model.values())
    for site, shard in model.items():
        assert shard_contents(store, site) == shard
    generations = [store.shard_generation(site) for site in rebuilt_sites]
    assert generations == sorted(set(generations))  # strictly increasing
    assert generations[-1] == store.generation
    assert all(store.shard_generation(site) < generations[0]
               for site in store.sites() if site not in rebuilt_sites)


def assert_bodies(served, model, target):
    ranked = sorted(((doc_id, url, site, score)
                     for site, shard in model.items()
                     for doc_id, (url, score) in shard.items()),
                    key=lambda entry: (-entry[3], entry[0]))
    target_site = next(entry[2] for entry in ranked if entry[0] == target)
    requests = [({"k": ["5"]}, ranked[:5]),
                ({"k": [str(len(ranked) + 3)]}, ranked),
                ({"k": ["4"], "site": [target_site]},
                 [entry for entry in ranked if entry[2] == target_site][:4])]
    for params, expected in requests:
        payload, status = route_request(served, "/top", params)
        assert status == 200
        assert [(entry["doc_id"], entry["url"], entry["site"],
                 entry["score"]) for entry in payload["results"]] == expected
        assert route_body(served, "/top", params) == \
            (json.dumps(payload).encode("utf-8"), 200)
    params = {"doc": [str(target)]}
    payload, status = route_request(served, "/score", params)
    url, score = model[target_site][target]
    assert payload == {"doc_id": target, "url": url, "site": target_site,
                       "score": score}
    assert route_body(served, "/score", params) == \
        (json.dumps(payload).encode("utf-8"), 200)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5), operations=OPERATIONS)
def test_every_deployment_holds_the_composition_after_each_update(
        seed, operations):
    web = generate_synthetic_web(n_sites=4, n_documents=40, seed=seed)
    with tempfile.TemporaryDirectory() as directory, \
            Ranker().incremental(web) as live:
        service = RankingService.from_incremental(live)
        replica_set = ReplicaSet.from_incremental(live, n_replicas=2)
        mapped = RankingService(mapped_store(live, directory))
        fresh = ShardedScoreStore.from_ranking(live.ranking(), web)
        model = {site: shard_contents(fresh, site)
                 for site in fresh.sites()}
        for serial, operation in enumerate(operations):
            report, target = apply_operation(live, operation, serial)
            mapped.apply_update(report, ranker=live)
            rebuilt_sites = (web.sites() if report.siterank_recomputed
                             else report.recomputed_sites)
            for site in rebuilt_sites:
                model[site] = composed_shard(live, site)
            stores = [service.store, mapped.store,
                      *(replica.service.store
                        for replica in replica_set.replicas)]
            for store in stores:
                assert_store_holds(store, model, rebuilt_sites)
            for served in (service, replica_set, mapped):
                assert_bodies(served, model, target)
            fresh = ShardedScoreStore.from_ranking(live.ranking(), web)
            for site, shard in model.items():
                recomposed = shard_contents(fresh, site)
                assert {doc_id: url for doc_id, (url, _) in shard.items()} \
                    == {doc_id: url
                        for doc_id, (url, _) in recomposed.items()}
                assert [score for _, score in shard.values()] == \
                    pytest.approx([recomposed[doc_id][1]
                                   for doc_id in shard], rel=1e-12)
        service.close()
        replica_set.close()
