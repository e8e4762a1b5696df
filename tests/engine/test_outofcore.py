"""Tests for repro.engine.outofcore — streaming solves over a DiskGraph.

The heart of the out-of-core contract is *bitwise parity*: ranking from
the mmap'd disk store must produce exactly the floats the in-memory
pipeline produces, cold and warm alike — the disk path is an optimisation,
never a different ranking.
"""

import numpy as np
import pytest

from repro.engine import (
    BatchedSiteTask,
    WarmStartState,
    plan_solve_units,
    rank_outofcore,
)
from repro.engine.plan import batch_site_tasks, site_tasks_for
from repro.exceptions import ValidationError
from repro.graphgen import generate_synthetic_web
from repro.io import ArtifactStore, write_diskgraph
from repro.web.docgraph import DocGraph
from repro.web.pipeline import _layered_docrank


@pytest.fixture(scope="module")
def web():
    """A web with both fused chunks and a dedicated (big) site."""
    graph = generate_synthetic_web(n_sites=10, n_documents=400, seed=9)
    big = DocGraph()
    for document in graph.documents():
        big.add_document(document.url, site=document.site,
                         is_dynamic=document.is_dynamic)
    for source, target in graph.edges():
        big.add_link_by_id(source, target)
    rng = np.random.default_rng(4)
    first = big.n_documents
    for page in range(600):
        big.add_document(f"http://big.example.org/p{page:04d}.html",
                         site="big.example.org")
    for _ in range(2400):
        source = int(rng.integers(first, big.n_documents))
        target = int(rng.integers(first, big.n_documents))
        big.add_link_by_id(source, target)
    return big


@pytest.fixture(scope="module")
def reference(web):
    return _layered_docrank(web, 0.85)


@pytest.fixture(scope="module")
def disk(web, tmp_path_factory):
    return write_diskgraph(web, tmp_path_factory.mktemp("disk") / "graph")


def _scores_by_doc_id(ranking):
    return dict(zip(ranking.doc_ids, ranking.scores))


class TestPlanSolveUnits:
    def test_replicates_batch_site_tasks(self, web):
        """Same fused chunks, same dedicated tasks, from sizes alone."""
        tasks = site_tasks_for(web, 0.85)
        batched = batch_site_tasks(tasks)
        want = []
        for task in batched:
            if isinstance(task, BatchedSiteTask):
                want.append(("fused", tuple(task.sites)))
            else:
                want.append(("dedicated", (task.site,)))
        sizes = {site: len(web.documents_of_site(site))
                 for site in web.sites()}
        got = [(unit.kind, unit.sites)
               for unit in plan_solve_units(web.sites(), sizes)]
        assert got == want

    def test_midstream_singleton_stays_fused(self):
        # Site "b" flushes a one-element chunk mid-stream: the batcher
        # keeps it fused; only a trailing singleton becomes dedicated.
        sizes = {"a": 90, "b": 20, "c": 95}
        units = plan_solve_units(["a", "b", "c"], sizes,
                                 max_docs=100, target_docs=100)
        assert [(unit.kind, unit.sites) for unit in units] == [
            ("fused", ("a",)), ("fused", ("b",)), ("dedicated", ("c",))]

    def test_trailing_singleton_is_dedicated(self):
        units = plan_solve_units(["only"], {"only": 5})
        assert units == [type(units[0])("dedicated", ("only",))]

    def test_missing_size_raises(self):
        with pytest.raises(ValidationError, match="no size recorded"):
            plan_solve_units(["a"], {})

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValidationError):
            plan_solve_units([], {}, max_docs=-1)
        with pytest.raises(ValidationError):
            plan_solve_units([], {}, target_docs=0)


class TestBitwiseParity:
    def test_cold_rank_matches_in_memory(self, disk, reference, tmp_path):
        result = rank_outofcore(disk, tmp_path / "store")
        assert result.method == reference.method
        assert result.iterations == reference.iterations
        generation = result.generation
        got = dict(zip((int(d) for d in generation.map_array("doc_ids")),
                       generation.map_array("scores")))
        want = _scores_by_doc_id(reference)
        assert set(got) == set(want)
        for doc_id, score in want.items():
            assert got[doc_id] == score  # bitwise, not approx

    def test_siterank_matches_in_memory(self, disk, reference, tmp_path):
        result = rank_outofcore(disk, tmp_path / "store")
        assert result.siterank.sites == reference.siterank.sites
        np.testing.assert_array_equal(result.siterank.scores,
                                      reference.siterank.scores)

    def test_warm_resume_from_store_matches_in_memory_warm(
            self, web, disk, tmp_path):
        """The disk-persisted vectors round-trip bitwise into a resume."""
        warm = WarmStartState()
        _layered_docrank(web, 0.85, warm=warm)
        warm_reference = _layered_docrank(web, 0.85, warm=warm)

        store = ArtifactStore(tmp_path / "store", create=True)
        rank_outofcore(disk, store)
        resumed = rank_outofcore(disk, store, warm=store.generation())
        assert resumed.iterations == warm_reference.iterations
        got = dict(zip(
            (int(d) for d in resumed.generation.map_array("doc_ids")),
            resumed.generation.map_array("scores")))
        for doc_id, score in _scores_by_doc_id(warm_reference).items():
            assert got[doc_id] == score

    def test_publishes_and_warm_records(self, disk, tmp_path):
        warm = WarmStartState()
        result = rank_outofcore(disk, tmp_path / "store", warm=warm)
        store = ArtifactStore(tmp_path / "store")
        assert store.current == result.generation.name
        assert result.n_documents == disk.n_documents
        # The live warm state was recorded into, like RankingPlan.execute.
        assert warm.local_start(disk.sites()[0],
                                list(disk.doc_ids_of(disk.sites()[0]))) \
            is not None

    def test_rejects_unknown_warm_type(self, disk, tmp_path):
        with pytest.raises(ValidationError, match="warm must be"):
            rank_outofcore(disk, tmp_path / "store", warm=object())

    def test_failed_run_publishes_nothing(self, disk, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store", create=True)

        def explode(*args, **kwargs):
            raise RuntimeError("solver died")

        monkeypatch.setattr(BatchedSiteTask, "solve", explode)
        with pytest.raises(RuntimeError):
            rank_outofcore(disk, store)
        store.reload()
        assert store.current is None
