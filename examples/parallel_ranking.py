"""Walkthrough of the parallel execution engine (repro.engine).

The paper's decentralisability theorem says every site's local DocRank is
independent of every other site's and of the SiteRank.  This example shows
the three ways the repository exploits that:

1. the one-liner — ``Ranker(RankingConfig(executor="threaded", n_jobs=N))``
   (and ``executor="auto"``, which prices the batch and picks a backend);
2. the explicit route — build a :class:`RankingPlan`, execute it on
   different backends, and verify the scores are bitwise identical;
3. warm starts — resume power iterations from the previous stationary
   vectors and watch the iteration counts collapse.

Run with::

    python examples/parallel_ranking.py --sites 40 --documents 4000 --jobs 4
"""

import argparse
import os
import time

import _bootstrap  # noqa: F401  (src/ path setup)
from _bootstrap import scaled

import numpy as np

from repro.api import Ranker, RankingConfig
from repro.engine import (
    AutoExecutor,
    RankingPlan,
    SerialExecutor,
    ThreadedExecutor,
    WarmStartState,
)
from repro.graphgen import generate_synthetic_web


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=scaled(40, 10))
    parser.add_argument("--documents", type=int, default=scaled(4000, 400))
    parser.add_argument("--jobs", type=int,
                        default=max(2, min(4, os.cpu_count() or 1)))
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    web = generate_synthetic_web(n_sites=args.sites,
                                 n_documents=args.documents, seed=args.seed)
    print(f"web: {web.n_documents} documents over {web.n_sites} sites")

    # 1. The one-liner: the same declarative config that drives the CLI
    #    selects the backend; the result is identical to serial.
    serial = Ranker(RankingConfig(executor="serial")).fit(web)
    parallel = Ranker(RankingConfig(executor="threaded",
                                    n_jobs=args.jobs)).fit(web)
    threaded_identical = np.array_equal(serial.scores, parallel.scores)
    print(f"\nRanker(executor='threaded', n_jobs={args.jobs}) "
          f"identical to serial: {threaded_identical}")
    auto = Ranker(RankingConfig(executor="auto")).fit(web)
    auto_identical = np.array_equal(serial.scores, auto.scores)
    print(f"Ranker(executor='auto') identical to serial: {auto_identical} "
          "(backend chosen from the plan's cost model)")
    if not (threaded_identical and auto_identical):
        raise SystemExit("determinism regression: backends disagree")

    # 2. The explicit route: one plan, three backends.
    plan = RankingPlan.from_docgraph(web)
    print(f"\nplan: {plan.n_sites} per-site tasks + 1 SiteRank task, "
          "executed concurrently, composed at the barrier")
    for executor in (SerialExecutor(), ThreadedExecutor(args.jobs),
                     AutoExecutor(args.jobs)):
        with executor:
            # Absorb pool start-up outside the timing (the adaptive
            # backend warms only the pool this batch will use).
            executor.warmup([plan.siterank_task, *plan.site_tasks])
            start = time.perf_counter()
            execution = plan.execute(executor=executor)
            seconds = time.perf_counter() - start
        identical = np.array_equal(execution.siterank.scores,
                                   serial.ranking.siterank.scores)
        print(f"  {executor.name:>8} ({executor.n_jobs} workers): "
              f"{seconds:.3f}s, {execution.total_iterations} iterations, "
              f"SiteRank identical: {identical}")
        if not identical:
            raise SystemExit(f"determinism regression on {executor.name}")

    # 3. Warm starts: the second execution resumes from the first one's
    #    converged vectors.
    warm = WarmStartState()
    cold = plan.execute(warm=warm)
    resumed = plan.execute(warm=warm)
    print(f"\nwarm start: cold run {cold.total_iterations} iterations, "
          f"resumed run {resumed.total_iterations}")

    # The same machinery powers incremental maintenance: a refresh after a
    # small change is warm-started and touches only the changed site.
    ranker = Ranker(RankingConfig(executor="threaded",
                                  n_jobs=args.jobs)).incremental(web)
    site = web.sites()[0]
    docs = web.documents_of_site(site)
    report = ranker.add_link(web.document(docs[-1]).url,
                             web.document(docs[0]).url)
    print(f"incremental repair of {site!r}: "
          f"{report.local_iterations} warm iterations, "
          f"{report.recompute_fraction:.1%} of the corpus recomputed")
    ranker.close()


if __name__ == "__main__":
    main()
