"""The facade ↔ out-of-core join: ``Ranker.fit`` and ``rank_outofcore`` agree bitwise.

Both drivers plan with :func:`repro.engine.plan.fuse_schedule` and build
their tasks with :func:`repro.engine.plan.site_tasks_for`, so ranking a
web in memory through the facade and ranking its disk graph one solve
unit at a time must give the same floats and the same iteration totals —
under non-default solver settings and per-site document preferences, cold
and warm, and on a web whose schedule has every kind of unit: fused
chunks, a mid-stream chunk of one (stays fused) and a dedicated site.
"""

import numpy as np
import pytest

from repro.api import Ranker, RankingConfig
from repro.engine import outofcore, plan, plan_solve_units, rank_outofcore
from repro.io import ArtifactStore, write_diskgraph
from repro.web.docgraph import DocGraph

#: Site sizes in first-seen order; with the 100/100 thresholds of
#: :func:`small_units` the schedule is fused (a, b, c), fused (d) —
#: flushed mid-stream as a chunk of one —, fused (e, g), dedicated (f).
SITE_SIZES = {"a": 30, "b": 40, "c": 25, "d": 90, "e": 20, "f": 150, "g": 30}


@pytest.fixture
def small_units(monkeypatch):
    """Both planners' thresholds at 100 documents (defaults: 512 / 25 000)."""
    schedule = plan.fuse_schedule

    def scaled(sizes, *, max_docs, target_docs):
        return schedule(sizes, max_docs=100, target_docs=100)

    monkeypatch.setattr(plan, "fuse_schedule", scaled)
    monkeypatch.setattr(outofcore, "fuse_schedule", scaled)


@pytest.fixture(scope="module")
def web():
    rng = np.random.default_rng(19)
    graph = DocGraph()
    ranges = {}
    for site, size in SITE_SIZES.items():
        first = graph.n_documents
        for page in range(size):
            graph.add_document(f"http://{site}.example.org/p{page:03d}.html",
                               site=f"{site}.example.org")
        ranges[site] = (first, graph.n_documents)
    for first, last in ranges.values():
        for _ in range(4 * (last - first)):
            graph.add_link_by_id(int(rng.integers(first, last)),
                                 int(rng.integers(first, last)))
    for _ in range(300):
        graph.add_link_by_id(int(rng.integers(0, graph.n_documents)),
                             int(rng.integers(0, graph.n_documents)))
    return graph


@pytest.fixture(scope="module")
def preferences(web):
    """Document preferences for a fused, the mid-stream and the dedicated site."""
    rng = np.random.default_rng(5)
    vectors = {}
    for site in ("b.example.org", "d.example.org", "f.example.org"):
        vector = rng.random(len(web.documents_of_site(site))) + 0.05
        vectors[site] = vector / vector.sum()
    return vectors


CONFIGS = [
    pytest.param({}, id="defaults"),
    pytest.param({"damping": 0.7, "site_damping": 0.5, "tol": 1e-6,
                  "max_iter": 40}, id="non-default"),
    pytest.param({"damping": 0.5, "tol": 1e-3, "max_iter": 12},
                 id="loose-tol"),
]


def by_doc_id(doc_ids, scores):
    return dict(zip((int(doc_id) for doc_id in doc_ids), scores))


def assert_generation_equals_fit(ranking, fitted):
    assert ranking.iterations == fitted.iterations
    assert ranking.method == fitted.method
    assert ranking.siterank.sites == fitted.ranking.siterank.sites
    np.testing.assert_array_equal(ranking.siterank.scores,
                                  fitted.ranking.siterank.scores)
    generation = ranking.generation
    got = by_doc_id(generation.map_array("doc_ids"),
                    generation.map_array("scores"))
    assert got == by_doc_id(fitted.doc_ids, fitted.scores)  # bitwise
    local = generation.map_array("local_scores")
    for shard in generation.shards():
        start, stop = shard["offset"], shard["offset"] + shard["count"]
        np.testing.assert_array_equal(
            local[start:stop],
            fitted.ranking.local_docranks[shard["site"]].scores)


def test_schedule_has_every_kind_of_unit(web, small_units):
    sizes = {site: len(web.documents_of_site(site)) for site in web.sites()}
    units = [(unit.kind, tuple(site[0] for site in unit.sites))
             for unit in plan_solve_units(web.sites(), sizes)]
    assert units == [("fused", ("a", "b", "c")), ("fused", ("d",)),
                     ("fused", ("e", "g")), ("dedicated", ("f",))]


@pytest.mark.parametrize("with_preferences", [False, True],
                         ids=["plain", "doc-preferences"])
@pytest.mark.parametrize("settings", CONFIGS)
def test_fit_equals_rank_outofcore_cold_and_warm(
        web, preferences, small_units, tmp_path, settings, with_preferences):
    chosen = preferences if with_preferences else None
    config = RankingConfig(warm_start=True, **settings)
    ranker = Ranker(config)
    options = {"document_preferences": chosen} if chosen else {}
    cold_fit = ranker.fit(web, **options)
    warm_fit = ranker.fit(web, **options)

    disk = write_diskgraph(web, tmp_path / "graph", preferences=chosen)
    store = ArtifactStore(tmp_path / "store", create=True)
    solver = dict(site_damping=config.site_damping, tol=config.tol,
                  max_iter=config.max_iter)
    cold = rank_outofcore(disk, store, config.damping, **solver)
    warm = rank_outofcore(disk, store, config.damping, **solver,
                          warm=cold.generation)

    assert_generation_equals_fit(cold, cold_fit)
    assert_generation_equals_fit(warm, warm_fit)
    assert warm.iterations < cold.iterations
