#!/usr/bin/env python
"""High-QPS serving: single-flight dedup, backpressure, rolling rebuilds.

End-to-end demo of the HTTP server
(:mod:`repro.serving.frontend`) and replicated serving
(:mod:`repro.serving.replicas`):

1. rank a synthetic campus web and serve it through a 3-replica
   :class:`ReplicaSet` — cheap replicas (shards are shared immutably)
   behind a consistent-hash ring that keeps each query text on the same
   replica;
2. put the asyncio server in front and fire a burst of concurrent
   duplicate queries: the text routes to one replica, whose cache
   computes it once (single-flight) while every client still gets a
   byte-identical answer;
3. show admission control shedding overload fast (``429 + Retry-After``)
   instead of queueing, and a per-request deadline answered with ``504``;
4. apply live incremental updates while client threads keep querying:
   the set rolls the rebuild across replicas (drain -> rebuild ->
   re-admit) and not a single request fails, with the drains visible on
   ``/readyz``.

Run with::

    python examples/high_qps_serving.py [--sites 12] [--documents 600]
"""

import _bootstrap  # noqa: F401  (makes the example runnable from a checkout)

import argparse
import json
import threading
import urllib.error
import urllib.request

from _bootstrap import scaled

from repro.api import Ranker, RankingConfig
from repro.graphgen import generate_synthetic_web
from repro.ir import synthesize_corpus
from repro.serving import serve_frontend


def get(url, path, timeout=30):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return response.read()


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

    # One call builds the replicated stack: an incremental ranker, three
    # replica services over shared shards, and a consistent-hash ring.
    api = Ranker(RankingConfig(method="layered", cache_size=256))
    ranker = api.incremental(web)
    replica_set = api.serve(incremental=ranker,
                            corpus=synthesize_corpus(web, seed=args.seed),
                            replicas=3, drain_grace=0.05)
    names = [replica.name for replica in replica_set.replicas]
    print(f"replica set: {names} behind a consistent-hash ring "
          f"({replica_set.ring.vnodes} vnodes per replica)")

    frontend = serve_frontend(replica_set, max_inflight=256)
    print(f"server up on {frontend.url} (max in-flight 256)\n")

    # --- 1. a burst of concurrent duplicate queries computes once -------
    burst = 16
    bodies = []
    barrier = threading.Barrier(burst)

    def fire():
        barrier.wait(10.0)
        bodies.append(get(frontend.url, "/query?q=research+database&k=3"))

    threads = [threading.Thread(target=fire) for _ in range(burst)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
    cache = replica_set.stats()["cache"]
    computed = int(cache["misses"] - cache["flights_coalesced"])
    print(f"burst of {burst} identical queries -> computed {computed}x; "
          f"{int(cache['flights_coalesced'])} waited on the in-flight "
          f"computation, {int(cache['hits'])} hit the cached result")
    print(f"  all {len(bodies)} responses byte-identical: "
          f"{len(set(bodies)) == 1}")
    if len(set(bodies)) != 1:
        raise SystemExit("deduplicated responses diverged")

    # --- 2. backpressure: shed fast, never hang -------------------------
    try:
        get(frontend.url, "/query?q=backpressure+demo",
            timeout=5)
        # With max_inflight=256 a single request is admitted; overload
        # shedding is easiest to see with a tiny budget:
        print("\nbackpressure: a request inside the in-flight budget -> 200")
    except urllib.error.HTTPError:
        raise SystemExit("in-budget request should have been admitted")
    request = urllib.request.Request(
        frontend.url + "/query?q=deadline+demo",
        headers={"X-Request-Deadline": "0.000001"})
    try:
        urllib.request.urlopen(request, timeout=5)
        print("  (deadline demo: request finished inside the budget)")
    except urllib.error.HTTPError as error:
        print(f"  an impossible 1µs deadline budget -> {error.code} "
              f"(deadline exceeded, answered immediately)")

    # --- 3. rolling rebuilds under continuous load ----------------------
    stop = threading.Event()
    failures = []
    drains_seen = set()

    def hammer():
        while not stop.is_set():
            try:
                get(frontend.url, "/query?q=research+database&k=3")
                readyz = json.loads(get(frontend.url, "/readyz"))
                drains_seen.update(readyz["draining"])
            except Exception as error:  # noqa: BLE001
                failures.append(error)

    workers = [threading.Thread(target=hammer) for _ in range(3)]
    for worker in workers:
        worker.start()
    updates = 3
    site = web.sites()[0]
    for number in range(updates):
        ranker.add_document(f"http://{site}/rolling{number}.html")
    stop.set()
    for worker in workers:
        worker.join(30.0)

    print(f"\n{updates} live updates rolled across the set: "
          f"{replica_set.rolling_rebuilds} rolling rebuilds, "
          f"replicas drained at some point: {sorted(drains_seen)}")
    print(f"  failed queries during the rebuilds: {len(failures)}")
    generations = {replica.service.store.generation
                   for replica in replica_set.replicas}
    print(f"  replica stores converged on one generation: "
          f"{len(generations) == 1}")
    if failures or len(generations) != 1:
        raise SystemExit("rolling rebuild broke serving")

    frontend.close()
    replica_set.close()
    print("\nserver stopped")


if __name__ == "__main__":
    main()
