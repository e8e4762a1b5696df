"""The layout-scheduled incremental refresh against the per-site one it replaced.

``IncrementalLayeredRanker.refresh`` solves its changed sites as steps
over the DocGraph's site-major layout (``layout_step``), and rebuilds its
segment columns through the fit's segment pass; ``refresh_oracle.py``
keeps the ranker that built per-site tasks for both.  Driven through the
same random sequences — intra-site links, inter-site links, links to new
documents and new sites, ``add_document``, and external mutations
repaired by one multi-site ``refresh`` — cold and personalised (one to
three segments, a SiteRank damping equal to or apart from the sites'), at
every fuse/flush edge of the schedule, the two must agree bit for bit
after every step: the ``UpdateReport``, every cached local vector, the
SiteRank, the segment caches, every site's ``segment_shard_columns`` and
``ranking()``.  ``all_local_docranks`` must equal a fit's local vectors.

Tier-1 runs a short derandomised budget; the long one is its own CI
step::

    python -m pytest tests/web/test_refresh_oracle.py \\
        --hypothesis-profile=oracle-long
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from refresh_oracle import OracleRanker
from repro.api import Ranker, RankingConfig
from repro.engine import plan
from repro.web import all_local_docranks
from repro.web.docgraph import DocGraph
from repro.web.incremental import IncrementalLayeredRanker

LONG_PROFILE = "oracle-long"

#: The property budget: the loaded profile's under ``oracle-long``, a short
#: fixed one otherwise (tier-1).
ORACLE_SETTINGS = (
    settings(deadline=None)
    if settings.get_current_profile_name() == LONG_PROFILE
    else settings(max_examples=15, deadline=None, derandomize=True))

DAMPING = 0.85

#: What one step of a sequence does.
OPERATIONS = ["intra", "inter", "new_document_link", "new_site_link",
              "document", "new_site_document", "external"]


def url(site: int, page: int) -> str:
    return f"http://s{site}.example.org/p{page}.html"


def host(site: int) -> str:
    return f"s{site}.example.org"


@st.composite
def refresh_cases(draw):
    """A web, a fuse schedule, solver settings and an update sequence."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    links_per_page = draw(st.sampled_from([0.0, 0.5, 1.5, 3.0]))
    # max_docs 0 dedicates every site, 8 fuses every one; a small target
    # cuts several chunks and often leaves a trailing singleton.
    max_docs = draw(st.sampled_from([0, 1, 3, 5, 8]))
    target_docs = draw(st.integers(1, 24))
    tol = draw(st.sampled_from([1e-8, 1e-8, 1e-12, 1e-3]))
    operations = draw(st.lists(st.sampled_from(OPERATIONS), min_size=1,
                               max_size=8))
    seed = draw(st.integers(0, 2 ** 16))
    return (sizes, links_per_page, max_docs, target_docs, tol, operations,
            seed)


def random_page(sizes, rng, site=None):
    if site is None:
        site = int(rng.integers(len(sizes)))
    return site, int(rng.integers(sizes[site]))


def build_graph(sizes, links_per_page, seed) -> DocGraph:
    """Pages site by site, then random links, three in four intra-site."""
    rng = np.random.default_rng(seed)
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


def personalization(sizes, rng):
    """One to three segments; the first weights a page, the rest sites."""
    segments = {"x": {"sites": {host(0): 2.0},
                      "documents": {url(0, 0): 3.0}, "background": 0.1}}
    for index in range(int(rng.integers(3))):
        segments[f"s{index}"] = {
            "sites": {host(int(rng.integers(len(sizes)))): 1.0}}
    return segments


class Web:
    """The pages both rankers' graphs hold, grown in step."""

    def __init__(self, sizes, rng):
        self.sizes = list(sizes)
        self.rng = rng

    def page(self, site=None):
        return url(*random_page(self.sizes, self.rng, site))

    def new_page(self, site):
        self.sizes[site] += 1
        return url(site, self.sizes[site] - 1)

    def new_site(self):
        self.sizes.append(1)
        return url(len(self.sizes) - 1, 0)

    def link(self):
        """A random link of any kind, as two URLs."""
        kind = self.rng.random()
        source = self.page()
        if kind < 0.5:
            target_site = int(self.rng.integers(len(self.sizes)))
            return source, self.page(target_site)
        if kind < 0.8:
            return source, self.new_page(int(self.rng.integers(
                len(self.sizes))))
        return source, self.new_site()


def apply(operation, web, rankers):
    """Run one step on every ranker; their reports, in ranker order."""
    rng = web.rng
    if operation == "intra":
        source = web.page()
        site = int(source.split("//s")[1].split(".")[0])
        links = [(source, web.page(site))]
    elif operation == "inter":
        links = [(web.page(), web.page())]
    elif operation == "new_document_link":
        links = [(web.page(), web.new_page(int(rng.integers(len(web.sizes)))))]
    elif operation == "new_site_link":
        links = [(web.page(), web.new_site())]
    elif operation == "document":
        page = web.new_page(int(rng.integers(len(web.sizes))))
        return [ranker.add_document(page) for ranker in rankers]
    elif operation == "new_site_document":
        page = web.new_site()
        return [ranker.add_document(page) for ranker in rankers]
    else:
        # Several mutations made behind the rankers' backs, repaired by
        # one multi-site refresh (sometimes naming an untouched site too).
        links = [web.link() for _ in range(int(rng.integers(1, 5)))]
        untouched = rng.random() < 0.3
        reports = []
        for ranker in rankers:
            graph = ranker._docgraph
            changed, intersite = set(), False
            for source, target in links:
                source_id, target_id = graph.add_link(source, target)
                sites = {graph.site_of_document(source_id),
                         graph.site_of_document(target_id)}
                intersite |= len(sites) == 2
                changed |= sites
            if untouched:
                changed.add(graph.sites()[0])
            reports.append(ranker.refresh(sorted(changed, reverse=True),
                                          intersite_changed=intersite))
        return reports
    return [ranker.add_link(*links[0]) for ranker in rankers]


def assert_same_ranking(got, want):
    assert got.method == want.method
    assert np.array_equal(got.scores, want.scores)
    assert got.doc_ids == want.doc_ids
    assert got.urls == want.urls
    assert got.iterations == want.iterations
    assert list(got.local_docranks) == list(want.local_docranks)
    assert got.segments == want.segments
    if want.segment_columns is None:
        assert got.segment_columns is None
    else:
        assert got.segment_columns.shape == want.segment_columns.shape
        assert np.array_equal(got.segment_columns, want.segment_columns)


def assert_same_state(live, oracle):
    assert list(live._local) == list(oracle._local)
    for site, expected in oracle._local.items():
        local = live.local(site)
        assert local.doc_ids == expected.doc_ids, site
        assert all(type(doc_id) is int for doc_id in local.doc_ids), site
        assert local.scores.dtype == expected.scores.dtype, site
        assert np.array_equal(local.scores, expected.scores), site
        assert local.iterations == expected.iterations, site
    assert live.siterank.sites == oracle._siterank.sites
    assert np.array_equal(live.siterank.scores, oracle._siterank.scores)
    assert live.siterank.iterations == oracle._siterank.iterations
    assert list(live._local_columns) == list(oracle._local_columns)
    for site, expected in oracle._local_columns.items():
        columns = live._local_columns[site]
        assert columns.doc_ids == expected.doc_ids, site
        assert columns.columns.shape == expected.columns.shape, site
        assert np.array_equal(columns.columns, expected.columns), site
        assert columns.iterations == expected.iterations, site
    if oracle._segment_site_state is None:
        assert live._segment_site_state is None
    else:
        sites, matrix = live._segment_site_state
        assert sites == oracle._segment_site_state[0]
        assert matrix.shape == oracle._segment_site_state[1].shape
        assert np.array_equal(matrix, oracle._segment_site_state[1])
    for site in oracle._docgraph.sites():
        got = live.segment_shard_columns(site)
        want = oracle.segment_shard_columns(site)
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, want), site
    assert_same_ranking(live.ranking(), oracle.ranking())


@pytest.mark.parametrize("variant", ["cold", "personalized"])
@ORACLE_SETTINGS
@given(case=refresh_cases())
def test_refresh_equals_the_per_site_ranker(variant, case):
    (sizes, links_per_page, max_docs, target_docs, tol, operations,
     seed) = case
    rng = np.random.default_rng(seed)
    options = {"tol": tol, "max_iter": 1000}
    if variant == "personalized":
        options["personalization"] = personalization(sizes, rng)
        # A SiteRank damping of its own keeps the segment SiteRank block
        # out of the site batches.
        options["site_damping"] = 0.6 if rng.random() < 0.5 else None
    with mock.patch.object(plan, "BATCH_SITE_MAX_DOCS", max_docs), \
            mock.patch.object(plan, "BATCH_TARGET_DOCS", target_docs):
        live = IncrementalLayeredRanker(
            build_graph(sizes, links_per_page, seed), DAMPING, **options)
        oracle = OracleRanker(
            build_graph(sizes, links_per_page, seed), DAMPING,
            max_docs=max_docs, target_docs=target_docs, **options)
        assert_same_state(live, oracle)
        web = Web(sizes, rng)
        for operation in operations:
            got, want = apply(operation, web, [live, oracle])
            assert got == want, operation
            assert_same_state(live, oracle)
            event(f"{variant}: {operation}")


@ORACLE_SETTINGS
@given(case=refresh_cases())
def test_all_local_docranks_are_a_fits(case):
    sizes, links_per_page, max_docs, target_docs, tol, _ops, seed = case
    graph = build_graph(sizes, links_per_page, seed)
    with mock.patch.object(plan, "BATCH_SITE_MAX_DOCS", max_docs), \
            mock.patch.object(plan, "BATCH_TARGET_DOCS", target_docs):
        local = all_local_docranks(graph, tol=tol)
        fitted = Ranker(RankingConfig(tol=tol)).fit(graph).ranking.local_docranks
    assert list(local) == list(fitted)
    for site, expected in fitted.items():
        assert local[site].doc_ids == expected.doc_ids, site
        assert np.array_equal(local[site].scores, expected.scores), site
        assert local[site].iterations == expected.iterations, site
