"""Determinism guard: every executor backend must produce *bitwise* identical
rankings.

The engine's contract is that scheduling is invisible in the output: the
serial, threaded and auto backends run the same task objects through the
same floating point operations and compose in the same site order, so
``WebRankingResult.scores`` must match bit for bit — not merely within
tolerance.  The guard pins this down on the paper's Figure-2 worked example
(its 3-site / 4-3-5-document layer structure encoded as link multiplicities)
and on the campus-web fixture.
"""

import numpy as np
import pytest

from repro.engine import AutoExecutor, SerialExecutor, ThreadedExecutor
from repro.web import DocGraph
from repro.web.pipeline import _layered_docrank as layered_docrank

#: The worked example's matrices (Section 2.3, Figure 2) scaled by 100 into
#: integer link counts: entry (i, j) becomes that many parallel DocLinks, so
#: row-normalising the multiplicities recovers the printed probabilities.
FIGURE2_U1 = [[30, 30, 20, 20], [50, 10, 10, 30],
              [10, 20, 60, 10], [40, 30, 10, 20]]
FIGURE2_U2 = [[20, 10, 70], [10, 80, 10], [5, 5, 90]]
FIGURE2_U3 = [[60, 2, 20, 10, 8], [5, 20, 50, 5, 20], [40, 10, 20, 10, 20],
              [70, 10, 5, 10, 5], [50, 20, 10, 10, 10]]
FIGURE2_Y = [[1, 3, 6], [2, 4, 4], [3, 5, 2]]


def figure2_web() -> DocGraph:
    """The Figure-2 worked example's layer structure as a DocGraph."""
    graph = DocGraph()
    sites = [("phase-1.example.org", FIGURE2_U1),
             ("phase-2.example.org", FIGURE2_U2),
             ("phase-3.example.org", FIGURE2_U3)]
    doc_ids = {}
    for host, matrix in sites:
        for local in range(len(matrix)):
            doc_ids[(host, local)] = graph.add_document(
                f"http://{host}/state{local}.html")
    for host, matrix in sites:
        for i, row in enumerate(matrix):
            for j, count in enumerate(row):
                for _ in range(count):
                    graph.add_link_by_id(doc_ids[(host, i)],
                                         doc_ids[(host, j)])
    # Phase transitions: inter-site links between the sites' first pages
    # with the Y matrix's multiplicities.
    hosts = [host for host, _matrix in sites]
    for i, row in enumerate(FIGURE2_Y):
        for j, count in enumerate(row):
            if i == j:
                continue  # intra-site counts are already in the U matrices
            for _ in range(count):
                graph.add_link_by_id(doc_ids[(hosts[i], 0)],
                                     doc_ids[(hosts[j], 0)])
    return graph


@pytest.fixture(scope="module")
def figure2_docgraph():
    return figure2_web()


def executors():
    return [SerialExecutor(), ThreadedExecutor(2), AutoExecutor(2)]


class TestExecutorDeterminism:
    def test_figure2_worked_example_is_bitwise_identical(self,
                                                         figure2_docgraph):
        reference = layered_docrank(figure2_docgraph)
        for executor in executors():
            with executor:
                result = layered_docrank(figure2_docgraph, executor=executor)
            assert result.doc_ids == reference.doc_ids
            assert np.array_equal(result.scores, reference.scores), \
                f"{executor.name} diverged from the serial reference"

    def test_campus_web_is_bitwise_identical(self, small_campus):
        graph = small_campus.docgraph
        reference = layered_docrank(graph)
        for executor in executors():
            with executor:
                result = layered_docrank(graph, executor=executor)
            assert result.doc_ids == reference.doc_ids
            assert np.array_equal(result.scores, reference.scores), \
                f"{executor.name} diverged from the serial reference"

    def test_n_jobs_path_is_bitwise_identical(self, figure2_docgraph):
        reference = layered_docrank(figure2_docgraph)
        parallel = layered_docrank(figure2_docgraph, n_jobs=2)
        assert np.array_equal(parallel.scores, reference.scores)

    def test_siterank_and_locals_match_too(self, figure2_docgraph):
        reference = layered_docrank(figure2_docgraph)
        with ThreadedExecutor(2) as executor:
            result = layered_docrank(figure2_docgraph, executor=executor)
        assert np.array_equal(result.siterank.scores,
                              reference.siterank.scores)
        for site, local in reference.local_docranks.items():
            assert np.array_equal(result.local_docranks[site].scores,
                                  local.scores)
