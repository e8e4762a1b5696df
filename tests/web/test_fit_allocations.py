"""A fit builds no per-document lookup dict (tracemalloc probe).

``LocalDocRank`` and ``WebRankingResult`` answer ``score_of`` through a
``{doc_id: position}`` map.  Nothing in a fit reads it, so the map is built
by the first ``score_of`` call, not with the result.  The probe charges
every allocation still alive after a fit to the line that made it and
sums what the two result modules hold: the composed ranking's id and URL
lists are one pointer per document each, while any per-document dict
costs several times that.
"""

import tracemalloc
from typing import Dict

import numpy as np
import pytest

from fit_oracle import oracle_fit
from repro.api import Ranker
from repro.engine import plan
from repro.engine.plan import (
    BATCH_SITE_MAX_DOCS,
    BATCH_TARGET_DOCS,
    LocalRankTask,
)
from repro.graphgen import generate_synthetic_web
from repro.web import docrank, pipeline
from repro.web.docgraph import SiteBlockRef
from repro.web.docrank import LocalDocRank

#: Bytes per document the result modules may keep alive after a fit: the
#: two pointer lists of the composed ranking plus list over-allocation.
#: A ``{doc_id: position}`` dict alone costs more than this.
BUDGET_PER_DOCUMENT = 32


def _held_by_result_modules(snapshot) -> int:
    """Bytes still held by allocations made in the two result modules."""
    held = snapshot.filter_traces([
        tracemalloc.Filter(True, docrank.__file__),
        tracemalloc.Filter(True, pipeline.__file__)])
    return sum(stat.size for stat in held.statistics("filename"))


@pytest.fixture(scope="module")
def web():
    return generate_synthetic_web(n_sites=200, n_documents=4000, seed=4)


def test_fit_builds_no_per_document_dict(web):
    Ranker().fit(web)  # imports, caches and the site layout, outside the probe
    tracemalloc.start(1)
    try:
        result = Ranker().fit(web)
        after_fit = _held_by_result_modules(tracemalloc.take_snapshot())
        ranking = result.ranking
        # The probe sees a lookup map once one is built.
        ranking.score_of(ranking.doc_ids[-1])
        for local in ranking.local_docranks.values():
            local.score_of(local.doc_ids[0])
        after_lookups = _held_by_result_modules(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    n = web.n_documents
    assert after_fit < BUDGET_PER_DOCUMENT * n
    assert after_lookups - after_fit > BUDGET_PER_DOCUMENT * n


def test_score_of_builds_the_map_on_first_use(toy_docgraph):
    ranking = Ranker().fit(toy_docgraph).ranking
    local = next(iter(ranking.local_docranks.values()))
    assert ranking._position is None and local._position is None
    doc = ranking.doc_ids[3]
    assert ranking.score_of(doc) == float(ranking.scores[3])
    assert local.score_of(local.doc_ids[-1]) == float(local.scores[-1])
    assert ranking._position is not None and local._position is not None


def _with_big_site(graph, n_pages=600):
    """*graph* plus one site over ``BATCH_SITE_MAX_DOCS`` (a ring of pages)."""
    pages = [f"http://big.example.org/p{i}.html" for i in range(n_pages)]
    for source, target in zip(pages, pages[1:] + pages[:1]):
        graph.add_link(source, target)
    return graph


def _count_constructions(monkeypatch, graph):
    """Patch the per-site classes to record the site each one is built for."""
    built = []

    def record(cls, site_of):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append((cls.__name__, site_of(self)))
        monkeypatch.setattr(cls, "__init__", init)

    sites = graph.sites()
    record(LocalRankTask, lambda task: task.site)
    record(SiteBlockRef, lambda ref: sites[ref.index])
    record(LocalDocRank, lambda rank: rank.site)
    return built


def test_a_fit_builds_no_per_site_object_for_fused_sites(monkeypatch):
    graph = _with_big_site(
        generate_synthetic_web(n_sites=199, n_documents=3400, seed=4))
    sizes = graph.site_sizes()
    dedicated = [site for site, size in sizes.items()
                 if size > BATCH_SITE_MAX_DOCS]
    assert len(sizes) == 200 and dedicated == ["big.example.org"]
    Ranker().fit(graph)  # the site layout, outside the count
    built = _count_constructions(monkeypatch, graph)
    ranking = Ranker().fit(graph).ranking
    assert sorted(built) == [("LocalDocRank", dedicated[0]),
                             ("LocalRankTask", dedicated[0]),
                             ("SiteBlockRef", dedicated[0])]
    # Read back, every site's local DocRank is the per-site chain's.
    monkeypatch.undo()
    want = oracle_fit(graph, max_docs=BATCH_SITE_MAX_DOCS,
                      target_docs=BATCH_TARGET_DOCS).local_docranks
    for site in graph.sites():
        local = ranking.local_docranks[site]
        assert local.doc_ids == want[site].doc_ids
        assert np.array_equal(local.scores, want[site].scores)
        assert local.iterations == want[site].iterations


def _held_after_fit(graph) -> Dict[tracemalloc.Frame, int]:
    """Bytes the result modules and the plan still hold after a fit, by
    the line that allocated them."""
    Ranker().fit(graph)
    tracemalloc.start(1)
    try:
        result = Ranker().fit(graph)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del result
    held = snapshot.filter_traces([
        tracemalloc.Filter(True, module.__file__)
        for module in (docrank, pipeline, plan)])
    return {stat.traceback[0]: stat.size
            for stat in held.statistics("lineno")}


def test_fit_results_do_not_grow_with_the_site_count():
    few, many = (generate_synthetic_web(n_sites=n_sites, n_documents=4000,
                                        seed=4) for n_sites in (20, 400))
    assert few.n_documents == many.n_documents
    added = 400 - 20
    before, after = _held_after_fit(few), _held_after_fit(many)
    growth = {line: size - before.get(line, 0)
              for line, size in after.items()}
    # Per-site growth only: a line holding anything per site grows by at
    # least a byte per added site, while the lines of size-independent
    # objects (small ints, array headers) drift by a few bytes either way
    # with the process's history.  One int64 iteration count and one
    # int64 offset per site is all a site may add; a LocalDocRank with its
    # id list costs ten times that.
    assert sum(grown for grown in growth.values() if grown >= added) \
        <= 16 * added
