"""A frozen stream of live updates: every served byte, every update.

One seeded stream of 200 updates — links inside a site, links between
sites (at least a fifth of the stream), new documents and new sites — is
fed to one incremental ranker that three deployments follow: an attached
``RankingService`` over a resident store, an unattached service over an
``MmapScoreStore`` driven through ``apply_update(report, ranker=live)``
and a two-replica ``ReplicaSet``.  After every update the sha256 of the
ranker's report and ``live.ranking()``, and of each deployment's
``/top``, ``/score`` and ``/query`` bodies, must equal the digests
frozen in ``update_stream_digests.json`` (captured from the store that
kept a dictionary entry per replaced document and re-aggregated the
SiteGraph from every edge per SiteRank update).

Tier-1 checks the first ``TIER1_UPDATES`` updates; the long profile
(``--hypothesis-profile=oracle-long``, its own CI step) checks all of
them.
"""

import hashlib
import json
import os
import tempfile

import numpy as np
from hypothesis import settings

from repro.api import Ranker
from repro.graphgen import generate_synthetic_web
from repro.io.artifacts import GenerationWriter
from repro.ir import VectorSpaceIndex, synthesize_corpus
from repro.serving import (
    MmapScoreStore,
    RankingService,
    ReplicaSet,
    route_body,
)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "update_stream_digests.json")
N_UPDATES = 200
TIER1_UPDATES = 60
#: Update kinds and their shares of the stream.
KINDS = ("intra", "inter", "document", "site")
SHARES = (0.55, 0.3, 0.1, 0.05)
QUERIES = ("research database", "home page information", "university")


def stream_web():
    return generate_synthetic_web(n_sites=12, n_documents=600, seed=46)


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


def apply_update(live, rng, serial):
    """Draw and run update *serial*; its kind, report and target document."""
    graph = live.docgraph
    kind = KINDS[int(rng.choice(len(KINDS), p=SHARES))]
    sites = graph.sites()
    site = sites[int(rng.integers(len(sites)))]
    documents = graph.documents_of_site(site)
    if kind == "intra" and len(documents) < 2:
        kind = "document"
    if kind in ("document", "site"):
        host = site if kind == "document" else f"fresh{serial}.example.net"
        url = f"http://{host}/added-{serial}.html"
        report = live.add_document(url)
        return kind, report, graph.document_by_url(url).doc_id
    source = documents[int(rng.integers(len(documents)))]
    if kind == "intra":
        others = [doc_id for doc_id in documents if doc_id != source]
        target = others[int(rng.integers(len(others)))]
    else:
        other = [name for name in sites if name != site][
            int(rng.integers(len(sites) - 1))]
        elsewhere = graph.documents_of_site(other)
        target = elsewhere[int(rng.integers(len(elsewhere)))]
    report = live.add_link(graph.document(source).url,
                           graph.document(target).url)
    return kind, report, target


def ranking_digest(report, ranking) -> str:
    digest = hashlib.sha256(json.dumps(
        [report.recomputed_sites, report.siterank_recomputed,
         report.local_iterations, report.siterank_iterations,
         report.documents_recomputed, report.documents_total,
         report.segment_iterations]).encode("utf-8"))
    digest.update(np.asarray(ranking.doc_ids, dtype=np.int64).tobytes())
    digest.update(np.asarray(ranking.scores, dtype=np.float64).tobytes())
    return digest.hexdigest()


def bodies_digest(served, target, site) -> str:
    digest = hashlib.sha256()
    for path, params in (
            ("/top", {"k": ["7"]}),
            ("/top", {"k": ["100000"]}),
            ("/top", {"k": ["5"], "site": [site]}),
            ("/score", {"doc": [str(target)]}),
            ("/score", {"doc": ["0"]}),
            ("/query", {"q": list(QUERIES), "k": ["6"]})):
        body, status = route_body(served, path, params)
        assert status == 200, (path, params, body)
        digest.update(body + b"\n")
    return digest.hexdigest()


def stream_digests(n_updates):
    """``[{"kind", "ranking", "bodies"}]``, one entry per update; every
    deployment's bodies must agree, or the entry names them apart."""
    web = stream_web()
    index = VectorSpaceIndex.from_corpus(synthesize_corpus(web, seed=46))
    rng = np.random.default_rng(46)
    entries = []
    with tempfile.TemporaryDirectory() as directory, \
            Ranker().incremental(web) as live:
        resident = RankingService.from_incremental(live, index=index)
        mapped = RankingService(mapped_store(live, directory), index=index)
        replicas = ReplicaSet.from_incremental(live, n_replicas=2,
                                               index=index)
        try:
            for serial in range(n_updates):
                kind, report, target = apply_update(live, rng, serial)
                mapped.apply_update(report, ranker=live)
                site = web.site_of_document(target)
                bodies = {name: bodies_digest(served, target, site)
                          for name, served in (("resident", resident),
                                               ("mapped", mapped),
                                               ("replicas", replicas))}
                entry = {"kind": kind,
                         "ranking": ranking_digest(report, live.ranking())}
                if len(set(bodies.values())) == 1:
                    entry["bodies"] = bodies["resident"]
                else:
                    entry.update(bodies)
                entries.append(entry)
        finally:
            resident.close()
            replicas.close()
    return entries


def test_the_stream_mixes_every_kind_of_update():
    with open(FIXTURE, encoding="utf-8") as handle:
        frozen = json.load(handle)["updates"]
    kinds = [entry["kind"] for entry in frozen]
    assert len(kinds) == N_UPDATES
    assert kinds.count("inter") >= 0.2 * N_UPDATES
    assert kinds.count("document") > 0 and kinds.count("site") > 0


def test_every_update_serves_the_frozen_bytes():
    with open(FIXTURE, encoding="utf-8") as handle:
        frozen = json.load(handle)["updates"]
    n_updates = (N_UPDATES if settings().max_examples >= 1000
                 else TIER1_UPDATES)
    for serial, (entry, expected) in enumerate(zip(
            stream_digests(n_updates), frozen)):
        assert entry == expected, f"update {serial} ({expected['kind']})"


if __name__ == "__main__":  # pragma: no cover - fixture capture
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump({"updates": stream_digests(N_UPDATES)}, handle, indent=0)
        handle.write("\n")
