#!/usr/bin/env python
"""Online query serving: from an offline ranking to a live HTTP endpoint.

End-to-end demo of the :mod:`repro.serving` subsystem:

1. generate a synthetic campus web and rank it with the layered method
   (maintained incrementally by :class:`IncrementalLayeredRanker`);
2. build a :class:`RankingService` — sharded score store, lazy top-k
   engine, LRU result cache, and a TF-IDF index over a synthetic corpus;
3. answer top-k and combined text+link queries in-process, showing the
   cache warming up on a repeated-query workload;
4. expose the service over the stdlib JSON/HTTP endpoint and query it
   like a client would;
5. apply a live single-site update through the ranker and show that the
   service invalidates exactly one shard and keeps serving answers that
   match a from-scratch recomputation.

Run with::

    python examples/online_query_service.py [--sites 12] [--documents 600]
"""

import _bootstrap  # noqa: F401  (makes the example runnable from a checkout)

import argparse
import json
import urllib.request

from _bootstrap import scaled

from repro.api import Ranker, RankingConfig
from repro.graphgen import generate_synthetic_web
from repro.ir import synthesize_corpus
from repro.serving import serve_frontend


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=scaled(12, 8))
    parser.add_argument("--documents", type=int, default=scaled(600, 300))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    web = generate_synthetic_web(n_sites=args.sites,
                                 n_documents=args.documents, seed=args.seed)
    print(f"web: {web.n_documents} documents, {web.n_links} links, "
          f"{web.n_sites} sites")

    # One declarative config builds the whole serving stack: the facade
    # constructs the incremental ranker and attaches the service to it.
    api = Ranker(RankingConfig(method="layered", cache_size=1024))
    ranker = api.incremental(web)
    service = api.serve(incremental=ranker,
                        corpus=synthesize_corpus(web, seed=args.seed))
    print(f"service: {service.store.n_shards} shards, "
          f"{service.store.n_documents} documents "
          f"(one shard per site, as the Partition Theorem prescribes)\n")

    print("global top-5 (a prefix of the store's cached global order):")
    for rank, document in enumerate(service.top(5), start=1):
        print(f"  {rank}. {document.url}  score={document.score:.6f}")

    print("\ncombined text+link queries:")
    for query in ("research database", "teaching course", "campus map"):
        hits = service.query(query, k=3)
        best = hits[0] if hits else None
        summary = (f"{service.store.document(best.doc_id).url}  "
                   f"combined={best.combined_score:.4f}" if best else "(none)")
        print(f"  {query!r:24} -> {summary}")

    # A repeated-query workload: the same handful of queries over and over.
    workload = ["research database", "teaching course", "campus map",
                "research database", "library catalogue"] * 40
    service.query_many(workload, k=5)
    stats = service.cache_stats
    print(f"\nrepeated workload of {len(workload)} queries: "
          f"{stats.hits} cache hits / {stats.lookups} lookups "
          f"({stats.hit_rate:.0%} hit rate)")

    server = serve_frontend(service)
    print(f"\nHTTP endpoint up on {server.url}")
    with urllib.request.urlopen(
            server.url + "/query?q=research+database&k=3") as response:
        payload = json.load(response)
    hit = payload["results"][0]["hits"][0]
    print(f"  GET /query?q=research+database -> "
          f"{hit['url']} (combined={hit['combined_score']:.4f})")
    with urllib.request.urlopen(server.url + "/top?k=3") as response:
        payload = json.load(response)
    print(f"  GET /top?k=3 -> {[r['doc_id'] for r in payload['results']]}")

    # Live update: add an intra-site link through the ranker; the service's
    # subscription rebuilds exactly one shard and invalidates only the
    # cache entries that depend on it.
    site = web.sites()[0]
    docs = web.documents_of_site(site)
    before_entries = len(service.cache)
    report = ranker.add_link(web.document(docs[-1]).url,
                             web.document(docs[0]).url)
    print(f"\nlive update: intra-site link on {site!r} -> recomputed "
          f"{report.recomputed_sites}, siterank recomputed: "
          f"{report.siterank_recomputed}")
    print(f"  cache entries {before_entries} -> {len(service.cache)} "
          f"(site-tagged entries invalidated)")

    served = [document.doc_id for document in service.top(5)]
    fresh = ranker.ranking().top_k(5)
    print(f"  served top-5 after update:   {served}")
    print(f"  from-scratch recomposition:  {fresh}")
    print(f"  consistent after incremental update: {served == fresh}")
    if served != fresh:
        raise SystemExit("served top-k diverged from recomposition")

    server.close()
    print("\nserver stopped")


if __name__ == "__main__":
    main()
