"""No engine path can reach a dense n × n matrix.

The two functions that build one — ``maximal_irreducibility`` (the Google
matrix) and ``transition_matrix`` (dangling rows patched dense) — are
replaced by tripwires under every name the package binds them to; every
way the engine ranks a web must still complete, and stay equal to the
serial reference exactly where it did before.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.api import Ranker, RankingConfig
from repro.distributed.coordinator import DistributedRankingCoordinator
from repro.engine import (
    AutoExecutor,
    ThreadedExecutor,
    WarmStartState,
    rank_outofcore,
)
from repro.engine.plan import batch_site_tasks, site_tasks_for
from repro.graphgen import generate_synthetic_web
from repro.io import write_diskgraph
from repro.linalg.stochastic import transition_matrix
from repro.markov.irreducibility import maximal_irreducibility
from repro.web import IncrementalLayeredRanker
from repro.web.docgraph import DocGraph
from repro.web.pipeline import _layered_docrank

BIG_SITE = "big.example.org"


def web_with_dedicated_site(n_big=600):
    """Ten small (fused) sites plus one above the fusing bound."""
    small = generate_synthetic_web(n_sites=10, n_documents=400, seed=9)
    graph = DocGraph()
    for document in small.documents():
        graph.add_document(document.url, site=document.site,
                           is_dynamic=document.is_dynamic)
    for source, target in small.edges():
        graph.add_link_by_id(source, target)
    rng = np.random.default_rng(4)
    first = graph.n_documents
    for page in range(n_big):
        graph.add_document(f"http://{BIG_SITE}/p{page:04d}.html",
                           site=BIG_SITE)
    # The last tenth of the big site's pages have no out-links (dangling).
    for _ in range(4 * n_big):
        source = int(rng.integers(first, first + n_big - n_big // 10))
        target = int(rng.integers(first, graph.n_documents))
        graph.add_link_by_id(source, target)
    return graph


@pytest.fixture
def no_dense(monkeypatch):
    """Trip on any construction of a dense transition / Google matrix."""
    def tripwire(*args, **kwargs):
        raise AssertionError("an engine path built a dense n × n matrix")

    for function in (maximal_irreducibility, transition_matrix):
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if (name.startswith("repro")
                    and getattr(module, function.__name__, None) is function):
                monkeypatch.setattr(module, function.__name__, tripwire)


@pytest.fixture(scope="module")
def web():
    return web_with_dedicated_site()


def test_tripwire_is_armed(no_dense, web):
    from repro.pagerank import pagerank

    adjacency, _ = web.local_adjacency(BIG_SITE)
    with pytest.raises(AssertionError, match="dense"):
        pagerank(adjacency, method="dense")
    pagerank(adjacency)  # sparse in, sparse kernel: no tripwire


def test_every_backend_fits_without_a_dense_matrix(no_dense, web):
    tasks = batch_site_tasks(site_tasks_for(web))
    assert any(getattr(task, "site", None) == BIG_SITE for task in tasks), \
        "the big site must ride a dedicated task for this test to bite"
    reference = _layered_docrank(web)
    facade = Ranker().fit(web)
    assert np.array_equal(facade.scores, reference.scores)
    for executor in (ThreadedExecutor(2), AutoExecutor(2)):
        with executor:
            result = _layered_docrank(web, executor=executor)
        assert result.doc_ids == reference.doc_ids
        assert np.array_equal(result.scores, reference.scores)
        assert result.iterations == reference.iterations


def assert_generation_equals(generation, ranking):
    want = dict(zip(ranking.doc_ids, ranking.scores.tolist()))
    got = dict(zip(generation.map_array("doc_ids").tolist(),
                   generation.map_array("scores").tolist()))
    assert got == want  # bitwise, not approx


def test_outofcore_cold_and_warm(no_dense, web, tmp_path):
    disk = write_diskgraph(web, tmp_path / "graph")
    reference = _layered_docrank(web)
    store = tmp_path / "store"
    cold = rank_outofcore(disk, store)
    assert cold.iterations == reference.iterations
    assert_generation_equals(cold.generation, reference)

    warm = WarmStartState()
    _layered_docrank(web, warm=warm)
    warm_reference = _layered_docrank(web, warm=warm)
    resumed = rank_outofcore(disk, store, warm=cold.generation)
    assert resumed.iterations == warm_reference.iterations
    assert resumed.iterations < cold.iterations
    assert_generation_equals(resumed.generation, warm_reference)


def test_incremental_updates(no_dense):
    graph = web_with_dedicated_site()
    urls = [graph.document(doc).url
            for doc in graph.documents_of_site(BIG_SITE)[:3]]
    other = graph.document(0).url
    with IncrementalLayeredRanker(graph) as ranker:
        intra = ranker.add_link(urls[0], urls[1])
        assert intra.recomputed_sites == [BIG_SITE]
        inter = ranker.add_link(urls[2], other)
        assert inter.siterank_recomputed
        incremental = ranker.ranking()
    full = _layered_docrank(graph)
    assert incremental.doc_ids == full.doc_ids
    assert np.allclose(incremental.scores, full.scores, atol=1e-9)


def test_segment_personalised_fit(no_dense, web):
    spec = {"big": {"sites": {BIG_SITE: 3.0}, "background": 0.2},
            "flat": {"background": 1.0}}
    serial = Ranker(RankingConfig(personalization=spec)).fit(web)
    pooled = Ranker(RankingConfig(personalization=spec, executor="threaded",
                                  n_jobs=2)).fit(web)
    assert serial.segments == ("big", "flat")
    for segment in serial.segments:
        assert np.array_equal(serial.segment_scores(segment),
                              pooled.segment_scores(segment))
    assert np.array_equal(serial.scores, _layered_docrank(web).scores)


def test_simulated_distributed_round(no_dense, web):
    serial = DistributedRankingCoordinator(web, n_peers=3).run()
    pooled = DistributedRankingCoordinator(web, n_peers=3, n_jobs=2).run()
    assert np.array_equal(pooled.ranking.scores, serial.ranking.scores)
    reference = _layered_docrank(web)
    assert serial.ranking.doc_ids == reference.doc_ids
    # The protocol renormalises what the peers send back, so it matches
    # the centralised fit to rounding, as it always has.
    assert np.allclose(serial.ranking.scores, reference.scores,
                       rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [1240, 3000])
def test_dedicated_site_memory_is_linear_in_its_links(no_dense, n):
    """A dedicated site solves in < 2 MB; its Google matrix is 12 / 72 MB."""
    graph = DocGraph()
    for page in range(n):
        graph.add_document(f"http://{BIG_SITE}/p{page:04d}.html",
                           site=BIG_SITE)
    rng = np.random.default_rng(8)
    for source, target in rng.integers(0, n, size=(5 * n, 2)).tolist():
        graph.add_link_by_id(source, target)
    [task] = site_tasks_for(graph)
    task.run()  # imports, scipy's lazy state and caches settle here
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = task.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.scores.size == n
    assert peak < 2 * 1024 * 1024, f"dedicated solve peaked at {peak} bytes"
