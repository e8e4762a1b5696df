"""The planner's task builders against the hand-built constructors they replaced.

``site_tasks_for`` / ``siterank_task_for`` and the layout steps
(``sites_step``, whose ``_LayoutStep.task(i)`` is the task a site would
get on its own, plus ``segment_siterank_task_for`` for the K-column
SiteRank block) are the only task constructors of the product path;
``task_oracle.py`` keeps what the incremental ranker, the segment pass
and the out-of-core runner used to assemble by hand.  Over random
DocGraphs and update sequences the two must agree field by field — arrays
(``start``, ``preference``, ``doc_ids``, the materialised adjacency)
bitwise — for the base tasks, the K-column tasks and the
``SITERANK_BLOCK`` pseudo-site, cold and warm.
"""

import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import WarmStartState, plan, rank_outofcore
from repro.engine.outofcore import GenerationWarmStart
from repro.engine.plan import RankingPlan, site_tasks_for
from repro.io import write_diskgraph
from repro.web.docgraph import DocGraph
from repro.web.incremental import IncrementalLayeredRanker
from repro.web.pipeline import build_segment_preferences, solve_segment_columns
from repro.web.sitegraph import aggregate_sitegraph
from task_oracle import (
    assert_same_task,
    oracle_local_task,
    oracle_outofcore_unit_tasks,
    oracle_pipeline_segment_tasks,
    oracle_segment_local_task,
    oracle_segment_site_task,
    oracle_siterank_task,
)

DAMPING, SITE_DAMPING, TOL, MAX_ITER = 0.8, 0.6, 1e-9, 500
SOLVER = {"tol": TOL, "max_iter": MAX_ITER}


def url(site: int, page: int) -> str:
    return f"http://s{site}.example.org/p{page}.html"


def host(site: int) -> str:
    return f"s{site}.example.org"


@st.composite
def webs(draw):
    """``(site sizes, intra/inter edges, rounds of updates)``."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    pages = [(site, page) for site, size in enumerate(sizes)
             for page in range(size)]
    page = st.sampled_from(pages)
    edges = draw(st.lists(st.tuples(page, page), max_size=25))
    update = st.one_of(
        st.tuples(st.just("link"), page, page),
        st.tuples(st.just("page"), st.integers(0, len(sizes) - 1),
                  st.integers(5, 7)),
        st.tuples(st.just("site"), st.integers(10, 12), st.just(0)),
        st.tuples(st.just("link"), page,
                  st.tuples(st.integers(10, 12), st.integers(0, 1))))
    rounds = draw(st.lists(st.lists(update, min_size=1, max_size=3),
                           min_size=1, max_size=3))
    return sizes, edges, rounds


def build_graph(sizes, edges) -> DocGraph:
    graph = DocGraph()
    for site, size in enumerate(sizes):
        for page in range(size):
            graph.add_document(url(site, page))
    for source, target in edges:
        graph.add_link(url(*source), url(*target))
    return graph


#: Two segments over the first two sites (every drawn web has them).
PERSONALIZATION = {"x": {"sites": {host(0): 2.0},
                         "documents": {url(0, 0): 3.0, url(1, 0): 1.0},
                         "background": 0.1},
                   "y": {"sites": {host(1): 1.0}}}


def apply_updates(graph: DocGraph, updates):
    """Mutate *graph*; return what ``refresh`` must be told."""
    changed, intersite = set(), False
    for kind, first, second in updates:
        if kind == "link":
            source, target = graph.add_link(url(*first), url(*second))
            sites = {graph.site_of_document(source),
                     graph.site_of_document(target)}
            intersite |= len(sites) == 2
            changed |= sites
        else:
            target = (first, second) if kind == "page" else (first, 0)
            changed.add(graph.site_of_document(
                graph.add_document(url(*target))))
    return changed, intersite


def capture_steps(submitted):
    """A ``plan.solve_windows`` that records what it is handed.

    The leading task, then every step's per-site task views
    (``_LayoutStep.task(i)``) followed by its tail, in dispatch order.
    """
    solve_windows = plan.solve_windows

    def capture(steps, **kwargs):
        steps = list(steps)
        if kwargs.get("first") is not None:
            submitted.append(kwargs["first"])
        for step in steps:
            submitted.extend(step.task(position)
                             for position in range(len(step.sites)))
            if step.tail is not None:
                submitted.append(step.tail)
        return solve_windows(steps, **kwargs)

    return mock.patch.object(plan, "solve_windows", capture)


def assert_same_tasks(got, want):
    assert len(got) == len(want)
    for got_task, want_task in zip(got, want):
        assert_same_task(got_task, want_task)


@settings(max_examples=30, deadline=None)
@given(webs())
def test_incremental_refresh_submits_the_oracle_tasks(web):
    sizes, edges, rounds = web
    graph = build_graph(sizes, edges)
    spec = PERSONALIZATION
    ranker = IncrementalLayeredRanker(
        graph, DAMPING, site_damping=SITE_DAMPING,
        personalization=spec, **SOLVER)
    for updates in rounds:
        changed, intersite = apply_updates(graph, updates)
        ordered = sorted(changed | (set(graph.sites()) - set(ranker._local)))
        recomputed = intersite or bool(set(graph.sites())
                                       - set(ranker._local))
        sitegraph = aggregate_sitegraph(graph)
        segments = build_segment_preferences(graph, sitegraph, spec)
        want = [oracle_local_task(graph, site, ranker._local.get(site),
                                  DAMPING, TOL, MAX_ITER)
                for site in ordered]
        want += [oracle_segment_local_task(
            graph, site, segments, ranker._local_columns.get(site),
            DAMPING, TOL, MAX_ITER) for site in ordered]
        if recomputed:
            want.append(oracle_segment_site_task(
                sitegraph, segments, ranker._segment_site_state,
                SITE_DAMPING, TOL, MAX_ITER))
            want.insert(0, oracle_siterank_task(
                sitegraph, ranker._siterank, SITE_DAMPING, TOL, MAX_ITER))

        # The refresh's steps: the SiteRank task leads, then the base
        # step's sites, the K-column step's and its SiteRank block.
        submitted = []
        with capture_steps(submitted):
            report = ranker.refresh(changed, intersite_changed=intersite)
        assert report.recomputed_sites == ordered
        assert_same_tasks(submitted, want)


@settings(max_examples=30, deadline=None)
@given(webs())
def test_plan_and_segment_pass_build_the_oracle_tasks(web):
    sizes, edges, rounds = web
    graph = build_graph(sizes, edges)
    sitegraph = aggregate_sitegraph(graph)
    segments = build_segment_preferences(graph, sitegraph, PERSONALIZATION)
    # Cold K-column pass (solve_segment_columns' step and its tail).
    submitted = []
    with capture_steps(submitted):
        solve_segment_columns(graph, sitegraph, segments, DAMPING,
                              site_damping=SITE_DAMPING, **SOLVER)
    assert_same_tasks(
        submitted,
        oracle_pipeline_segment_tasks(graph, sitegraph, segments, DAMPING,
                                      SITE_DAMPING, TOL, MAX_ITER))

    # The plan, cold and then re-seeded from a recorded WarmStartState
    # after the graph moved on.
    warm = WarmStartState()
    cold = RankingPlan.from_docgraph(graph, DAMPING,
                                     site_damping=SITE_DAMPING, **SOLVER)
    assert_same_tasks(
        [cold.siterank_task, *cold.site_tasks],
        [oracle_siterank_task(sitegraph, None, SITE_DAMPING, TOL, MAX_ITER),
         *(oracle_local_task(graph, site, None, DAMPING, TOL, MAX_ITER)
           for site in graph.sites())])
    execution = cold.execute(warm=warm)
    for updates in rounds:
        apply_updates(graph, updates)
    resumed = RankingPlan.from_docgraph(
        graph, DAMPING, site_damping=SITE_DAMPING, warm=warm, **SOLVER)
    assert_same_tasks(
        [resumed.siterank_task, *resumed.site_tasks],
        [oracle_siterank_task(aggregate_sitegraph(graph), execution.siterank,
                              SITE_DAMPING, TOL, MAX_ITER),
         *(oracle_local_task(graph, site, execution.local.get(site),
                             DAMPING, TOL, MAX_ITER)
           for site in graph.sites())])


@settings(max_examples=15, deadline=None)
@given(webs())
def test_disk_blocks_build_the_oracle_tasks(web):
    """A DiskGraph is a block source: memmap'd ids become int tuples, and
    a generation on disk seeds the next run's grown graph."""
    sizes, edges, rounds = web
    graph = build_graph(sizes, edges)
    rng = np.random.default_rng(sum(sizes))
    vector = rng.random(sizes[0]) + 0.1
    preferences = {host(0): vector / vector.sum()}
    with tempfile.TemporaryDirectory() as work:
        disk = write_diskgraph(graph, f"{work}/graph-0",
                               preferences=preferences)
        stored = {host(0): disk.preference(host(0))}
        assert_same_tasks(
            site_tasks_for(disk, DAMPING, preferences=stored, **SOLVER),
            oracle_outofcore_unit_tasks(disk, disk.sites(), stored, None,
                                        DAMPING, TOL, MAX_ITER))
        ranking = rank_outofcore(disk, f"{work}/store", DAMPING, **SOLVER)
        for updates in rounds:
            apply_updates(graph, updates)
        grown = write_diskgraph(graph, f"{work}/graph-1")
        seed = GenerationWarmStart(ranking.generation)
        sites = grown.sites()[1:]
        assert_same_tasks(
            site_tasks_for(grown, DAMPING, sites=sites, warm=seed, **SOLVER),
            oracle_outofcore_unit_tasks(grown, sites, {}, ranking.generation,
                                        DAMPING, TOL, MAX_ITER))
