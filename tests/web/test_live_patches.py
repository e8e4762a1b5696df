"""A live update patches what it changed, array for array.

Three patches stand in for whole-web rebuilds, and each must equal the
computation it replaced — arrays, dtypes and scipy's canonical flag:

* :func:`repro.linalg.sparse_utils.csr_count_link` against the sparse sum
  ``matrix + csr_matrix(([1.0], ([row], [column])))``;
* ``SiteBlocks.with_link`` (one splice per intra-site link) against that
  sum, and against the layout rebuilt from every link;
* the incremental ranker's SiteGraph (the new SiteLinks counted in one
  delta, a size bump per document, a row and column per site) against
  ``aggregate_sitegraph`` over every edge;

and a block of a layout that is not canonical comes out summed, as
scipy's own cut would.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Ranker
from repro.graphgen import generate_synthetic_web
from repro.linalg.sparse_utils import csr_count_link
from repro.web.docgraph import DocGraph, SiteBlocks
from repro.web.sitegraph import aggregate_sitegraph


def assert_same_csr(got, want):
    """Arrays, dtypes and canonical flag of two CSR matrices."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert got_array.dtype == want_array.dtype, name
        assert np.array_equal(got_array, want_array), name
    assert got.has_canonical_format == want.has_canonical_format


def summed(matrix, row, column):
    """The whole-matrix sum the splice replaces (flag kept, as it was)."""
    total = matrix + sp.csr_matrix(([1.0], ([row], [column])),
                                   shape=matrix.shape)
    total.has_canonical_format = matrix.has_canonical_format
    return total


_entries = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                    max_size=40)


@given(_entries, _entries)
@settings(max_examples=200, deadline=None)
def test_a_counted_link_is_the_sum(links, added):
    matrix = sp.coo_matrix((np.ones(len(links)),
                            ([row for row, _ in links],
                             [column for _, column in links])),
                           shape=(12, 12)).tocsr()
    before = matrix.copy()
    for row, column in added:
        counted = csr_count_link(matrix, row, column)
        assert_same_csr(counted, summed(matrix, row, column))
        matrix = counted
    assert_same_csr(before, before.copy())  # the inputs stay untouched


# --------------------------------------------------------------------- #
# Random webs and update streams
# --------------------------------------------------------------------- #
_streams = st.integers(1, 5).flatmap(lambda n_sites: st.tuples(
    st.lists(st.integers(0, n_sites - 1), min_size=2, max_size=30),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
             max_size=60),
    # (kind, a, b): 0 = link by id (any two documents), 1 = new document
    # of an existing site, 2 = new document of a new site.
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 99),
                       st.integers(0, 99)), min_size=1, max_size=25),
))


def build(owners, links):
    graph = DocGraph(normalize=False)
    for owner in owners:
        graph.add_document(f"http://h{owner}.org/p{graph.n_documents}",
                           site=f"h{owner}.org")
    n = graph.n_documents
    for source, target in links:
        graph.add_link_by_id(source % n, target % n)
    return graph


def mutate(graph, kind, first, second):
    n = graph.n_documents
    if kind == 0:
        graph.add_link_by_id(first % n, second % n)
    else:
        site = (graph.sites()[first % graph.n_sites] if kind == 1
                else f"new{n}.org")
        graph.add_document(f"http://{site}/p{n}", site=site)


@given(_streams)
@settings(max_examples=150, deadline=None)
def test_spliced_layouts_equal_the_sum_and_the_rebuild(stream):
    owners, links, updates = stream
    graph = build(owners, links)
    layout = graph.site_blocks()
    for kind, first, second in updates:
        n = graph.n_documents
        mutate(graph, kind, first, second)
        if kind:
            layout = graph.site_blocks()
            continue
        source, target = first % n, second % n
        if graph.site_indices()[source] == graph.site_indices()[target]:
            want = summed(layout.matrix, layout._position[source],
                          layout._position[target])
            layout = graph.site_blocks()
            assert_same_csr(layout.matrix, want)
    rebuilt = SiteBlocks.from_links(graph.site_indices(), graph.n_sites,
                                    *graph.edge_arrays())
    assert_same_csr(graph.site_blocks().matrix, rebuilt.matrix)
    assert np.array_equal(graph.site_blocks().nnz, rebuilt.nnz)


@given(_streams, st.booleans())
@settings(max_examples=60, deadline=None)
def test_the_patched_sitegraph_is_the_aggregate(stream, self_links):
    owners, links, updates = stream
    graph = build(owners, links)
    with Ranker(include_site_self_links=self_links).incremental(
            graph) as live:
        for kind, first, second in updates:
            n = graph.n_documents
            if kind == 0:
                live.add_link(graph.urls()[first % n],
                              graph.urls()[second % n])
            else:
                site = (graph.sites()[first % graph.n_sites] if kind == 1
                        else f"new{n}.org")
                live.add_document(f"http://{site}/p{n}", site=site)
            patched = live._sitegraph()
            want = aggregate_sitegraph(graph, include_self_links=self_links)
            assert patched.sites == want.sites
            assert patched.site_sizes == want.site_sizes
            assert patched.include_self_links == want.include_self_links
            assert_same_csr(patched.adjacency, want.adjacency)


def test_a_bulk_mutation_is_counted_in_one_delta():
    graph = generate_synthetic_web(n_sites=6, n_documents=120, seed=5)
    with Ranker().incremental(graph) as live:
        sizes = [len(graph.documents_of_site(site)) for site in graph.sites()]
        first = np.cumsum([0] + sizes)[:-1]
        for shift in range(1, 6):  # five SiteLinks added behind its back
            graph.add_link_by_id(int(first[0]), int(first[shift]))
        report = live.refresh([], intersite_changed=True)
        assert report.siterank_recomputed
        assert_same_csr(live._sitegraph().adjacency,
                        aggregate_sitegraph(graph).adjacency)


# --------------------------------------------------------------------- #
# A block of a non-canonical layout is canonicalised
# --------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=30), st.data())
@settings(max_examples=100, deadline=None)
def test_a_block_of_a_non_canonical_layout_is_summed(entries, data):
    # Two sites of four documents; entries land, duplicated and out of
    # order, in a random one's block.
    rows, columns = [], []
    for row, column in entries:
        site = data.draw(st.integers(0, 1))
        rows.append(4 * site + row)
        columns.append(4 * site + column)
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows,
                                                        minlength=8))))
    matrix = sp.csr_matrix((np.ones(len(rows)),
                            np.asarray(columns)[order].astype(np.int32),
                            indptr.astype(np.int32)), shape=(8, 8))
    layout = SiteBlocks(matrix, np.array([0, 4, 8]), np.arange(8))
    for index in range(2):
        want = matrix[4 * index:4 * index + 4, 4 * index:4 * index + 4]
        want.sum_duplicates()
        assert_same_csr(layout.block(index), want)
