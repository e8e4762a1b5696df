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

import pytest

from repro.api import Ranker
from repro.graphgen import generate_synthetic_web
from repro.web import docrank, pipeline

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
