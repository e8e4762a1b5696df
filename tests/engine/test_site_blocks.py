"""The site-major block layout against its slice-and-glue oracle.

``pack_oracle.py`` keeps the way local subgraphs used to be cut
(``submatrix`` of the global adjacency per site) and packed
(``scipy.sparse.block_diag``); everything here holds
:meth:`repro.web.docgraph.DocGraph.site_blocks`, the lazy per-site
references the engine plans with, and the concatenating
:func:`repro.linalg.block_solver.pack_blocks` to it — array for array,
dtype for dtype.
"""

import pickle
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pack_oracle import (
    assert_same_csr,
    oracle_block,
    oracle_packed_sites,
)
from repro import obs
from repro.engine import (
    BatchedSiteTask,
    WarmStartState,
    plan_solve_units,
    rank_outofcore,
)
from repro.engine import plan
from repro.engine.plan import (
    LocalRankTask,
    RankingPlan,
    batch_site_tasks,
    site_tasks_for,
)
from repro.graphgen import generate_synthetic_web
from repro.io import ArtifactStore, write_diskgraph
from repro.linalg import block_diagonal, pack_blocks
from repro.linalg.layout import family_nbytes
from repro.web.docgraph import DocGraph, SiteBlockRef
from repro.web.pipeline import _layered_docrank

# --------------------------------------------------------------------- #
# Random DocGraphs: sites interleaved in first-seen order, parallel
# edges, self-links, link-less and single-document sites
# --------------------------------------------------------------------- #
_webs = st.integers(1, 6).flatmap(lambda n_sites: st.tuples(
    # Owning site of each document, in insertion order.
    st.lists(st.integers(0, n_sites - 1), min_size=1, max_size=40),
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)),
             max_size=120),
    # A second wave of documents and links, added after a first build,
    # and a third of links alone (patched into the cached layout).
    st.lists(st.integers(0, n_sites), max_size=10),
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)),
             max_size=30),
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)),
             max_size=10),
))


def _grow(graph: DocGraph, owners, links) -> None:
    for owner in owners:
        graph.add_document(f"http://h{owner}.org/p{graph.n_documents}",
                           site=f"h{owner}.org")
    n = graph.n_documents
    for source, target in links:
        graph.add_link_by_id(source % n, target % n)


def _assert_layout_matches_oracle(graph: DocGraph, data) -> None:
    layout = graph.site_blocks()
    sites = graph.sites()
    assert layout.offsets.dtype == np.int64
    for index, site in enumerate(sites):
        want, want_ids = oracle_block(graph, site)
        assert_same_csr(layout.packed([index])[0], want)
        got, got_ids = graph.local_adjacency(site)
        assert_same_csr(got, want)
        assert got_ids == want_ids
        reference, _ids = graph.local_block(site)
        assert (reference.shape, reference.nnz) == (want.shape, want.nnz)
    chosen = data.draw(st.lists(st.integers(0, len(sites) - 1), min_size=1,
                                max_size=8, unique=True))
    matrix, offsets, doc_ids = layout.packed(chosen)
    want, want_offsets, want_ids = oracle_packed_sites(
        graph, [sites[index] for index in chosen])
    assert_same_csr(matrix, want)
    for got_array, want_array in ((offsets, want_offsets),
                                  (doc_ids, want_ids)):
        assert got_array.dtype == want_array.dtype
        assert np.array_equal(got_array, want_array)


@given(_webs, st.data())
@settings(max_examples=150, deadline=None)
def test_blocks_and_packed_equal_the_oracle(web, data):
    owners, links, more_owners, more_links, patches = web
    graph = DocGraph(normalize=False)
    _grow(graph, owners, links)
    _assert_layout_matches_oracle(graph, data)
    _grow(graph, more_owners, more_links)
    _assert_layout_matches_oracle(graph, data)
    _grow(graph, [], patches)
    _assert_layout_matches_oracle(graph, data)


@given(_webs)
@settings(max_examples=100, deadline=None)
def test_fused_batch_equals_the_oracle(web):
    """The one-gather pack of lazy references and the concatenating pack
    of materialised matrices both equal ``block_diag`` of the slices."""
    owners, links = web[:2]
    graph = DocGraph(normalize=False)
    _grow(graph, owners, links)
    tasks = site_tasks_for(graph)
    assert all(isinstance(task.adjacency, SiteBlockRef) for task in tasks)
    want, want_offsets, want_ids = oracle_packed_sites(graph, graph.sites())
    batched = BatchedSiteTask.from_tasks(tasks)
    packed = pack_blocks([task.adjacency.tocsr() for task in tasks])
    for matrix, offsets in ((batched.adjacency, batched.offsets),
                            (packed.matrix, packed.offsets)):
        assert_same_csr(matrix, want)
        assert offsets.dtype == np.int64
        assert np.array_equal(offsets, want_offsets)
    assert batched.doc_ids.dtype == np.int64
    assert np.array_equal(batched.doc_ids, want_ids)
    assert batched.nnz == want.nnz


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5),
                          st.integers(0, 2 ** 31)),
                min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_block_diagonal_canonicalises_like_scipy(shapes):
    """Rectangular, unsorted and duplicate-carrying blocks included."""
    blocks = []
    for n_rows, n_cols, seed in shapes:
        rng = np.random.default_rng(seed)
        count = int(rng.integers(0, 2 * n_rows * n_cols + 1))
        blocks.append(sp.coo_matrix(
            (rng.integers(1, 4, count).astype(float),
             (rng.integers(0, n_rows, count), rng.integers(0, n_cols, count))),
            shape=(n_rows, n_cols)))
    raw = []
    for block in blocks:
        # CSR with unsorted rows and unsummed duplicates.
        order = np.argsort(block.row, kind="stable")
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(block.row, minlength=block.shape[0]))])
        raw.append(sp.csr_matrix((block.data[order], block.col[order],
                                  indptr), shape=block.shape))
    assert_same_csr(block_diagonal(raw),
                    sp.block_diag(blocks, format="csr"))


class TestCacheAndSnapshot:
    def test_every_mutator_reaches_the_layout(self, toy_docgraph):
        graph = toy_docgraph
        site = graph.sites()[0]
        inside = graph.documents_of_site(site)
        outside = graph.documents_of_site(graph.sites()[1])[0]
        first = graph.site_blocks()
        assert graph.site_blocks() is first
        graph.add_document(graph.urls()[0])  # already known: no change
        assert graph.site_blocks() is first
        graph.add_link_by_id(inside[0], outside)  # inter-site: not held
        assert graph.site_blocks() is first
        graph.add_document("http://new.example.org/")
        second = graph.site_blocks()
        assert second is not first
        assert second.order.size == first.order.size + 1
        # Intra-site links are patched in: a new snapshot, the old intact.
        before = second.matrix.copy()
        graph.add_link(graph.urls()[inside[0]], graph.urls()[inside[1]])
        third = graph.site_blocks()
        graph.add_link_by_id(inside[1], inside[1])
        fourth = graph.site_blocks()
        assert len({id(second), id(third), id(fourth)}) == 3
        assert_same_csr(second.matrix, before)
        assert fourth.matrix.sum() == before.sum() + 2
        assert_same_csr(graph.local_adjacency(site)[0],
                        oracle_block(graph, site)[0])

    def test_tasks_keep_the_snapshot_they_were_planned_on(self, toy_docgraph):
        tasks = site_tasks_for(toy_docgraph)
        before = [task.adjacency.tocsr().toarray() for task in tasks]
        source, target = toy_docgraph.documents_of_site(tasks[0].site)[:2]
        toy_docgraph.add_link_by_id(source, target)
        for task, want in zip(tasks, before):
            assert np.array_equal(task.adjacency.tocsr().toarray(), want)

    def test_a_fit_never_builds_the_global_adjacency(self, monkeypatch,
                                                     small_synthetic_web):
        def forbidden(self):
            raise AssertionError("global adjacency built on the fit path")
        monkeypatch.setattr(DocGraph, "adjacency", forbidden)
        plan = RankingPlan.from_docgraph(small_synthetic_web)
        assert plan.execute().local.keys() == set(small_synthetic_web.sites())

    def test_builds_are_counted_per_layout_not_per_site(self):
        graph = generate_synthetic_web(n_sites=6, n_documents=120, seed=3)
        def builds():
            return obs.registry().counter_value("site_blocks_builds_total")
        before = builds()
        RankingPlan.from_docgraph(graph).execute()
        RankingPlan.from_docgraph(graph).execute()
        assert builds() == before + 1
        graph.add_link_by_id(0, 1)  # patched in or not held: no rebuild
        RankingPlan.from_docgraph(graph)
        assert builds() == before + 1
        graph.add_document("http://another.example.org/")
        RankingPlan.from_docgraph(graph)
        assert builds() == before + 2


class TestLazyReferenceTransport:
    def test_pickles_as_its_own_slice(self, small_synthetic_web):
        graph = small_synthetic_web
        whole = len(pickle.dumps(graph.site_blocks().matrix))
        for task in site_tasks_for(graph):
            block = task.adjacency.tocsr()
            shipped = pickle.dumps(task.adjacency)
            assert len(shipped) <= family_nbytes(
                block.data.nbytes, block.indices.nbytes,
                block.indptr.nbytes) + 1024
            assert len(shipped) < whole / 2
            assert_same_csr(pickle.loads(shipped), block)
            # The task ships no more than the same task over a cut matrix.
            cut = LocalRankTask(site=task.site, adjacency=block,
                                doc_ids=task.doc_ids)
            assert len(pickle.dumps(task)) <= len(pickle.dumps(cut))


# --------------------------------------------------------------------- #
# One chunking rule
# --------------------------------------------------------------------- #
@given(st.lists(st.integers(1, 30), min_size=1, max_size=40),
       st.integers(0, 32), st.integers(1, 90))
@settings(max_examples=200, deadline=None)
def test_both_schedules_name_the_same_units(sizes, max_docs, target_docs):
    sites = [f"s{index}" for index in range(len(sizes))]
    tasks = [LocalRankTask(site=site, adjacency=sp.identity(size,
                                                            format="csr"),
                           doc_ids=tuple(range(size)))
             for site, size in zip(sites, sizes)]
    batched = batch_site_tasks(tasks, max_docs=max_docs,
                               target_docs=target_docs)
    units = plan_solve_units(sites, dict(zip(sites, sizes)),
                             max_docs=max_docs, target_docs=target_docs)
    assert [unit.sites for unit in units] == [
        task.sites if isinstance(task, BatchedSiteTask) else (task.site,)
        for task in batched]
    assert [unit.kind == "fused" for unit in units] == [
        isinstance(task, BatchedSiteTask) for task in batched]


@given(st.lists(st.integers(1, 30), min_size=1, max_size=40),
       st.integers(0, 32), st.integers(1, 90),
       st.one_of(st.none(), st.integers(1, 30)))
@settings(max_examples=200, deadline=None)
# A mid-stream chunk of one (90, then 70) stays fused; a trailing one (60)
# is dedicated, unless a tail joins it.
@example(sizes=[90, 20, 20, 70, 60], max_docs=100, target_docs=100,
         tail=None)
@example(sizes=[90, 20, 20, 70, 60], max_docs=100, target_docs=100,
         tail=30)
def test_sites_step_schedules_the_whole_web_as_fuse_schedule(
        sizes, max_docs, target_docs, tail):
    """A step over every block is scheduled as the one fuse/flush rule
    schedules it — on its own (a fit's step, the segment SiteRank tail as
    one more block) and from the whole web's kinds (the path of a peer's
    sites and a disk window), chunk for chunk."""
    blocks = SimpleNamespace(offsets=np.pad(np.cumsum(sizes), (1, 0)))
    sites = [f"s{index}" for index in range(len(sizes))]
    task = None if tail is None else LocalRankTask(
        site="tail", adjacency=sp.identity(tail, format="csr"),
        doc_ids=tuple(range(tail)))
    with mock.patch.object(plan, "BATCH_SITE_MAX_DOCS", max_docs), \
            mock.patch.object(plan, "BATCH_TARGET_DOCS", target_docs):
        own = plan.sites_step(blocks, range(len(sizes)), sites,
                              tail=task).schedule
        chunks, dedicated = plan.sites_step(
            blocks, range(len(sizes)), sites,
            fused=plan.fused_sites(sizes)).schedule
    assert own == plan.fuse_schedule(
        sizes + ([] if tail is None else [tail]), max_docs=max_docs,
        target_docs=target_docs)
    want_chunks, want_dedicated = plan.fuse_schedule(
        sizes, max_docs=max_docs, target_docs=target_docs)
    assert chunks == want_chunks
    assert sorted(dedicated) == sorted(want_dedicated)


# --------------------------------------------------------------------- #
# Out of core: a warm resume reads its vectors through two mappings
# --------------------------------------------------------------------- #
def test_warm_outofcore_maps_once_and_matches_in_memory(tmp_path,
                                                        monkeypatch):
    web = generate_synthetic_web(n_sites=200, n_documents=2000, seed=5)
    warm = WarmStartState()
    _layered_docrank(web, 0.85, warm=warm)
    reference = _layered_docrank(web, 0.85, warm=warm)

    opened = []
    original = np.memmap.__new__

    def counting(cls, *args, **kwargs):
        opened.append(1)
        return original(cls, *args, **kwargs)
    monkeypatch.setattr(np.memmap, "__new__", counting)

    disk = write_diskgraph(web, tmp_path / "graph")
    store = ArtifactStore(tmp_path / "store", create=True)
    del opened[:]
    cold = rank_outofcore(disk, store)
    cold_maps = len(opened)
    generation = cold.generation
    del opened[:]
    resumed = rank_outofcore(disk, store, warm=generation)
    # The two extra mappings are the previous generation's id and vector
    # files, opened once for the run — not once per site.
    assert len(opened) <= cold_maps + 2
    assert resumed.iterations == reference.iterations
    assert np.array_equal(resumed.generation.array("doc_ids"),
                          np.asarray(reference.doc_ids))
    assert np.array_equal(resumed.generation.array("scores"),
                          reference.scores)


def test_urls_of_positions_checks_ids_and_reads_ranges(tmp_path,
                                                       small_synthetic_web):
    from repro.exceptions import GraphStructureError

    disk = write_diskgraph(small_synthetic_web, tmp_path / "graph")
    urls = small_synthetic_web.urls()
    n = len(urls)
    assert disk.urls_of_positions(range(3, 40)) == urls[3:40]  # one read
    scattered = [n - 1, 0, 7, 7, 5]
    assert disk.urls_of_positions(scattered) == [urls[i] for i in scattered]
    assert disk.urls_of_positions([]) == []
    for bad in ([0, n], [-1, 2]):
        with pytest.raises(GraphStructureError):
            disk.urls_of_positions(bad)
