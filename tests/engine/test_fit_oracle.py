"""A layout-scheduled fit against the per-site chain it replaced.

``RankingPlan.from_docgraph`` schedules, solves and composes step 3 from
the DocGraph's site-major layout; ``fit_oracle.py`` keeps the old
``site_tasks_for -> batch_site_tasks -> BatchedSiteTask.run ->
collect_site_results -> compose_ranking`` chain.  Over small generated
webs and every fuse/flush edge of the schedule (all fused, all dedicated,
mixed, a trailing singleton chunk, several chunks), cold, warm-started,
with document preferences and personalised, and at the ``tol`` /
``max_iter`` edges, the two must agree bit for bit: scores, ids, URLs,
iterations, the SiteRank and every site's local vector — or fail with the
same error.

Tier-1 runs a short derandomised budget; the long one is its own CI
step::

    python -m pytest tests/engine/test_fit_oracle.py \\
        --hypothesis-profile=oracle-long
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fit_oracle import oracle_fit
from repro.api import Ranker, RankingConfig
from repro.engine import WarmStartState, plan
from repro.web.docgraph import DocGraph

LONG_PROFILE = "oracle-long"

#: The property budget: the loaded profile's under ``oracle-long``, a short
#: fixed one otherwise (tier-1).
ORACLE_SETTINGS = (
    settings(deadline=None)
    if settings.get_current_profile_name() == LONG_PROFILE
    else settings(max_examples=15, deadline=None, derandomize=True))

#: ``(tol, max_iter)``: the default (drawn most), a tight tolerance, a
#: loose one met at once, and budgets too small to converge in.
SOLVER_EDGES = [(1e-8, 1000)] * 4 + [(1e-14, 5000), (0.5, 1000), (1e-9, 1),
                                     (1e-9, 3)]


def url(site: int, page: int) -> str:
    return f"http://s{site}.example.org/p{page}.html"


def host(site: int) -> str:
    return f"s{site}.example.org"


@st.composite
def fit_cases(draw):
    """A web, a fuse schedule and solver settings."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    links_per_page = draw(st.sampled_from([0.0, 0.5, 1.5, 3.0]))
    # max_docs 0 dedicates every site, 8 fuses every one; a small target
    # cuts several chunks and often leaves a trailing singleton.
    max_docs = draw(st.sampled_from([0, 3, 5, 8]))
    target_docs = draw(st.integers(1, 24))
    tol, max_iter = draw(st.sampled_from(SOLVER_EDGES))
    seed = draw(st.integers(0, 2 ** 16))
    return sizes, links_per_page, max_docs, target_docs, tol, max_iter, seed


def random_page(sizes, rng, site=None):
    if site is None:
        site = int(rng.integers(len(sizes)))
    return site, int(rng.integers(sizes[site]))


def build_graph(sizes, links_per_page, rng) -> DocGraph:
    """Pages site by site, then random links, three in four intra-site."""
    graph = DocGraph()
    for site, size in enumerate(sizes):
        for page in range(size):
            graph.add_document(url(site, page))
    for _ in range(int(links_per_page * sum(sizes))):
        source = random_page(sizes, rng)
        target = random_page(
            sizes, rng, source[0] if rng.random() < 0.75 else None)
        graph.add_link(url(*source), url(*target))
    return graph


def document_preferences(graph: DocGraph, rng):
    """Random teleport vectors for about half of the sites."""
    preferences = {}
    for site in graph.sites():
        if rng.random() < 0.5:
            vector = rng.random(len(graph.documents_of_site(site))) + 0.05
            preferences[site] = vector / vector.sum()
    return preferences


def personalization(sizes, rng):
    """One to three segments; the first weights a page, the rest sites."""
    segments = {"x": {"sites": {host(0): 2.0},
                      "documents": {url(0, 0): 3.0}, "background": 0.1}}
    for index in range(int(rng.integers(3))):
        segments[f"s{index}"] = {
            "sites": {host(int(rng.integers(len(sizes)))): 1.0}}
    return segments


def outcome(fit):
    """The fit's result, or the type and text of the error it raised."""
    try:
        return fit(), None
    except Exception as error:  # compared with the oracle's, not hidden
        return None, (type(error), str(error))


def assert_same_fit(got, want):
    assert got.method == want.method
    assert got.scores.dtype == want.scores.dtype
    assert np.array_equal(got.scores, want.scores)
    assert got.doc_ids == want.doc_ids
    assert all(type(doc_id) is int for doc_id in got.doc_ids)
    assert got.urls == want.urls
    assert got.iterations == want.iterations
    assert got.siterank.sites == want.siterank.sites
    assert np.array_equal(got.siterank.scores, want.siterank.scores)
    assert got.siterank.iterations == want.siterank.iterations
    assert list(got.local_docranks) == list(want.local_docranks)
    for site, expected in want.local_docranks.items():
        local = got.local_docranks[site]
        assert local.doc_ids == expected.doc_ids, site
        assert local.scores.dtype == expected.scores.dtype, site
        assert np.array_equal(local.scores, expected.scores), site
        assert local.iterations == expected.iterations, site
    assert got.segments == want.segments
    if want.segment_columns is None:
        assert got.segment_columns is None
    else:
        assert np.array_equal(got.segment_columns, want.segment_columns)


@pytest.mark.parametrize("variant", ["cold", "warm", "preferences",
                                     "personalized"])
@ORACLE_SETTINGS
@given(case=fit_cases())
def test_fit_equals_the_per_site_chain(variant, case):
    sizes, links_per_page, max_docs, target_docs, tol, max_iter, seed = case
    rng = np.random.default_rng(seed)
    graph = build_graph(sizes, links_per_page, rng)
    personalized = variant == "personalized"
    config = RankingConfig(
        tol=tol, max_iter=max_iter, warm_start=variant == "warm",
        # A SiteRank damping of its own keeps the segment pass's SiteRank
        # block out of the site batches.
        site_damping=0.6 if personalized and rng.random() < 0.5 else None,
        personalization=personalization(sizes, rng) if personalized else None)
    options = {}
    if variant == "preferences":
        options["document_preferences"] = document_preferences(graph, rng)
    oracle_options = dict(options, max_docs=max_docs,
                          target_docs=target_docs, tol=tol,
                          max_iter=max_iter, site_damping=config.site_damping,
                          personalization=config.personalization)
    ranker = Ranker(config)
    warm = WarmStartState() if variant == "warm" else None
    fits = 2 if variant == "warm" else 1
    with mock.patch.object(plan, "BATCH_SITE_MAX_DOCS", max_docs), \
            mock.patch.object(plan, "BATCH_TARGET_DOCS", target_docs):
        for round_ in range(fits):
            if round_:
                # The second fit resumes on a grown graph.
                graph.add_link(url(*random_page(sizes, rng)),
                               url(*random_page(sizes, rng)))
                graph.add_document(url(len(sizes), 0))
            got, got_error = outcome(
                lambda: ranker.fit(graph, **options).ranking)
            want, want_error = outcome(
                lambda: oracle_fit(graph, warm=warm, **oracle_options))
            assert got_error == want_error
            if want_error is not None:
                event(f"{variant}: {want_error[0].__name__}")
                return
            event(f"{variant}: compared")
            assert_same_fit(got, want)
