#!/usr/bin/env python
"""Declarative personalisation, served: one fused solve, many audiences.

End-to-end demo of the multi-vector personalisation path:

1. declare audience segments on a :class:`RankingConfig` — a mapping from
   segment name to site/document preference weights, the same shape a
   ``[personalization.<segment>]`` TOML table carries;
2. fit once: the layered method solves every segment's preference vector
   in one fused SpMM pass (see benchmark E17), so K audiences cost far
   less than K rankings;
3. serve the per-segment score columns from one sharded store and answer
   ``segment=``-qualified top-k and combined text+link queries, in-process
   and over the JSON/HTTP endpoint;
4. apply a live single-site update and show every segment stays
   consistent with a from-scratch recomposition — no per-segment rebuild.

Run with::

    python examples/personalized_serving.py [--sites 12] [--documents 600]
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
    sites = web.sites()
    print(f"web: {web.n_documents} documents, {web.n_links} links, "
          f"{web.n_sites} sites")

    # Two audiences over the same web: "research" users lean towards the
    # first two sites, "teaching" users towards the last two; background
    # keeps some uniform mass so no document drops to zero.
    config = RankingConfig(
        method="layered", cache_size=1024,
        personalization={
            "research": {"sites": {sites[0]: 2.0, sites[1]: 1.0},
                         "background": 0.3},
            "teaching": {"sites": {sites[-1]: 2.0, sites[-2]: 1.0},
                         "background": 0.3},
        })
    api = Ranker(config)

    result = api.fit(web)
    print(f"segments solved in one fused pass: {list(result.segments)}\n")
    print("per-audience top-3 (same web, same solve):")
    print(f"  {'base':10} {result.top_k(3)}")
    for segment in result.segments:
        print(f"  {segment:10} {result.top_k(3, segment=segment)}")

    # Serve all score columns from one store: the incremental ranker
    # maintains base + segment columns, the service answers any of them.
    ranker = api.incremental(web)
    service = api.serve(incremental=ranker,
                        corpus=synthesize_corpus(web, seed=args.seed))
    print(f"\nservice: {service.store.n_shards} shards, "
          f"{service.store.n_documents} documents, "
          f"segments {list(service.segments)}")

    print("\nsegment-qualified serving answers:")
    for segment in (None, *service.segments):
        label = segment or "base"
        documents = service.top(3, segment=segment)
        print(f"  top-3 [{label:10}] {[d.doc_id for d in documents]}")
    hits = service.query("research database", k=3, segment="research")
    if hits:
        best = hits[0]
        print(f"  query 'research database' [research] -> "
              f"{service.store.document(best.doc_id).url} "
              f"(combined={best.combined_score:.4f})")

    server = serve_frontend(service)
    print(f"\nHTTP endpoint up on {server.url}")
    with urllib.request.urlopen(server.url + "/top?k=3") as response:
        base_payload = json.load(response)
    print(f"  GET /top?k=3              -> "
          f"{[r['doc_id'] for r in base_payload['results']]}")
    with urllib.request.urlopen(
            server.url + "/top?k=3&segment=teaching") as response:
        payload = json.load(response)
    print(f"  GET /top?k=3&segment=teaching -> "
          f"{[r['doc_id'] for r in payload['results']]} "
          f"(segment={payload['segment']!r})")

    # Live update: one intra-site link; the subscription rebuilds exactly
    # the affected shard's base + segment columns in place.
    site = sites[0]
    docs = web.documents_of_site(site)
    report = ranker.add_link(web.document(docs[-1]).url,
                             web.document(docs[0]).url)
    print(f"\nlive update: intra-site link on {site!r} -> recomputed "
          f"{report.recomputed_sites}")
    fresh = ranker.ranking()
    consistent = True
    for segment in (None, *service.segments):
        served = [d.doc_id for d in service.top(5, segment=segment)]
        expected = fresh.top_k(5, segment=segment)
        label = segment or "base"
        print(f"  [{label:10}] served {served} == fresh {expected}: "
              f"{served == expected}")
        consistent = consistent and served == expected
    if not consistent:
        raise SystemExit("served segment top-k diverged from recomposition")

    server.close()
    print("\nserver stopped")


if __name__ == "__main__":
    main()
