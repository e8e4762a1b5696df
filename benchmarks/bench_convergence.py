"""E11: power-method convergence — global vs per-layer computations.

The layered method replaces one huge power-method run (flat PageRank over
all documents) by many small ones (one per site) plus one tiny one (the
SiteRank).  This benchmark records the iteration counts and convergence
rates of each, and also places the centralized acceleration techniques from
the paper's related work (Aitken/quadratic extrapolation) on the same
graph for context.
"""

import numpy as np
import pytest

from conftest import write_result
from repro.metrics import ConvergenceTrace, summarize_traces
from repro.pagerank import accelerated_pagerank, pagerank
from repro.web import aggregate_sitegraph, all_local_docranks, siterank

TOLERANCE = 1e-10


@pytest.fixture(scope="module")
def graph(synthetic_webs):
    # The middle size of the scaling sweep (4000 documents normally, the
    # shrunk equivalent when REPRO_BENCH_SMOKE=1).
    return synthetic_webs[sorted(synthetic_webs)[1]]


@pytest.fixture(scope="module")
def convergence_rows(graph):
    flat = pagerank(graph.adjacency(), tol=TOLERANCE)
    site = siterank(aggregate_sitegraph(graph), tol=TOLERANCE)
    locals_ = all_local_docranks(graph, tol=TOLERANCE)
    local_iterations = [rank.iterations for rank in locals_.values()]

    aitken = accelerated_pagerank(graph.adjacency(), scheme="aitken",
                                  tol=TOLERANCE)
    quadratic = accelerated_pagerank(graph.adjacency(), scheme="quadratic",
                                     tol=TOLERANCE)

    trace_rows = summarize_traces([
        ConvergenceTrace("flat PageRank", flat.residuals, TOLERANCE),
        ConvergenceTrace("SiteRank", [], TOLERANCE),
        ConvergenceTrace("Aitken-extrapolated PageRank", aitken.residuals,
                         TOLERANCE),
        ConvergenceTrace("quadratic-extrapolated PageRank",
                         quadratic.residuals, TOLERANCE),
    ], tolerance=TOLERANCE)

    rows = [
        {"computation": "flat PageRank (all documents)",
         "matrix_size": graph.n_documents,
         "iterations": flat.iterations,
         "rate": round(trace_rows[0]["rate"], 3)},
        {"computation": "SiteRank (site graph)",
         "matrix_size": graph.n_sites,
         "iterations": site.iterations,
         "rate": "-"},
        {"computation": "local DocRanks (per site, max)",
         "matrix_size": max(graph.site_sizes().values()),
         "iterations": int(max(local_iterations)),
         "rate": "-"},
        {"computation": "local DocRanks (per site, median)",
         "matrix_size": int(np.median(list(graph.site_sizes().values()))),
         "iterations": int(np.median(local_iterations)),
         "rate": "-"},
        {"computation": "Aitken-extrapolated PageRank",
         "matrix_size": graph.n_documents,
         "iterations": aitken.iterations,
         "rate": round(trace_rows[2]["rate"], 3)},
        {"computation": "quadratic-extrapolated PageRank",
         "matrix_size": graph.n_documents,
         "iterations": quadratic.iterations,
         "rate": round(trace_rows[3]["rate"], 3)},
    ]
    return rows


@pytest.mark.benchmark(group="E11 convergence")
def test_e11_iteration_counts(benchmark, convergence_rows, graph):
    rows = benchmark.pedantic(lambda: convergence_rows, rounds=1, iterations=1)
    write_result("E11_convergence", rows,
                 ["computation", "matrix_size", "iterations", "rate"],
                 caption="Power-method iteration counts at tolerance 1e-10: "
                         "the one global run the flat method needs vs the "
                         "many small runs of the layered decomposition, with "
                         "the centralized acceleration baselines for context.")
    by_name = {row["computation"]: row for row in rows}
    # The per-site and site-graph problems are far smaller than the global one.
    assert by_name["SiteRank (site graph)"]["matrix_size"] < \
        by_name["flat PageRank (all documents)"]["matrix_size"] / 10
    # The convergence rate of the damped chain is bounded by the damping factor.
    assert by_name["flat PageRank (all documents)"]["rate"] <= 0.86


@pytest.mark.benchmark(group="E11 convergence")
def test_e11_flat_pagerank_convergence_time(benchmark, graph):
    benchmark(pagerank, graph.adjacency(), tol=TOLERANCE)


@pytest.mark.benchmark(group="E11 convergence")
def test_e11_all_local_docranks_time(benchmark, graph):
    benchmark(all_local_docranks, graph, tol=TOLERANCE)
