"""Tests for repro.io.diskgraph — the mmap'd on-disk graph store."""

import json
import os

import numpy as np
import pytest

from repro.exceptions import GraphStructureError, ValidationError
from repro.graphgen import generate_synthetic_web
from repro.io import (
    DiskGraphBuilder,
    open_diskgraph,
    stream_url_edges,
    write_diskgraph,
    write_url_edgelist,
)
from repro.io.diskgraph import MANIFEST_FILE
from repro.web.sitegraph import aggregate_sitegraph


@pytest.fixture(scope="module")
def web():
    return generate_synthetic_web(n_sites=6, n_documents=240, seed=5)


@pytest.fixture
def disk(web, tmp_path):
    return write_diskgraph(web, tmp_path / "graph")


def _same_csr(a, b) -> bool:
    return a.shape == b.shape and (a != b).nnz == 0


class TestWriteRoundTrip:
    def test_counts_and_sites(self, web, disk):
        assert disk.n_documents == web.n_documents
        assert disk.n_links == web.n_links
        assert disk.n_sites == web.n_sites
        assert disk.sites() == web.sites()
        assert disk.site_sizes() == {
            site: len(web.documents_of_site(site)) for site in web.sites()}

    def test_local_block_matches_docgraph(self, web, disk):
        for site in web.sites():
            want_matrix, want_ids = web.local_adjacency(site)
            got_matrix, got_ids = disk.local_block(site)
            assert got_ids.tolist() == want_ids
            assert _same_csr(got_matrix, want_matrix)

    def test_blocks_are_the_docgraph_layout(self, web, disk):
        layout = web.site_blocks()
        stored = _stored(disk)
        for name in ("data", "indices", "indptr"):
            want = getattr(layout.matrix, name)
            assert stored[name].dtype == want.dtype, name
            np.testing.assert_array_equal(stored[name], want, err_msg=name)
        np.testing.assert_array_equal(stored["order"], layout.order)
        np.testing.assert_array_equal(stored["offsets"], layout.offsets)
        with open(os.path.join(disk.path, MANIFEST_FILE),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["version"] == 2
        assert manifest["sites"] == web.sites()
        assert "preference" not in manifest["blocks"]

    def test_sitegraph_matches_docgraph(self, web, disk):
        want = aggregate_sitegraph(web)
        got = disk.sitegraph()
        assert got.sites == want.sites
        assert _same_csr(got.adjacency, want.adjacency)

    def test_document_table(self, web, disk):
        for doc_id in (0, 1, web.n_documents - 1):
            document = web.document(doc_id)
            assert disk.url_of(doc_id) == document.url
            assert disk.site_of_document(doc_id) == document.site
            assert disk.document(doc_id).url == document.url
        positions = [3, 0, web.n_documents - 1]
        assert disk.urls_of_positions(positions) == [
            web.document(p).url for p in positions]

    def test_reopen_by_path(self, web, disk):
        reopened = open_diskgraph(disk.path)
        assert reopened.n_documents == web.n_documents
        assert reopened.sites() == web.sites()

    def test_preferences_round_trip(self, web, tmp_path):
        site = web.sites()[0]
        n_docs = len(web.documents_of_site(site))
        vector = np.full(n_docs, 1.0 / n_docs)
        disk = write_diskgraph(web, tmp_path / "pref",
                               preferences={site: vector})
        np.testing.assert_array_equal(disk.preference(site), vector)
        assert disk.preference(web.sites()[1]) is None

    def test_unknown_site_raises(self, disk):
        with pytest.raises(GraphStructureError):
            disk.local_block("no-such-site")


class TestBuilderParity:
    """The streaming builder must emit the same store as write_diskgraph."""

    def test_streamed_build_matches_bulk_write(self, web, tmp_path):
        bulk = write_diskgraph(web, tmp_path / "bulk")
        edges_path = tmp_path / "edges.txt"
        write_url_edgelist(web, edges_path)
        builder = DiskGraphBuilder(tmp_path / "streamed")
        with open(edges_path, encoding="utf-8") as handle:
            builder.consume(stream_url_edges(handle, chunk_edges=64))
        streamed = builder.finalize()
        # The edge list loses isolated documents, so compare the streamed
        # store against a graph rebuilt the same way.
        assert streamed.n_links == bulk.n_links
        assert set(streamed.sites()) <= set(bulk.sites())
        for site in streamed.sites():
            got_matrix, got_ids = streamed.local_block(site)
            want_matrix, want_ids = bulk.local_block(site)
            got_urls = [streamed.url_of(d) for d in got_ids]
            want_urls = [bulk.url_of(d) for d in want_ids]
            assert got_urls == want_urls
            assert _same_csr(got_matrix, want_matrix)

    def test_builder_rejects_use_after_finalize(self, tmp_path):
        builder = DiskGraphBuilder(tmp_path / "g")
        builder.add_edge("http://a.org/x", "http://a.org/y")
        builder.finalize()
        with pytest.raises(ValidationError):
            builder.add_edge("http://a.org/x", "http://a.org/z")
        with pytest.raises(ValidationError):
            builder.finalize()

    @pytest.mark.parametrize(
        "url", ["http://a:99999/", "http://a:x/", "http://[::1/"])
    def test_hostile_url_is_a_validation_error(self, tmp_path, url):
        builder = DiskGraphBuilder(tmp_path / "g")
        with pytest.raises(ValidationError, match="malformed URL"):
            builder.consume([[("http://a.org/", "http://b.org/")],
                             [(url, "http://a.org/")]])
        builder.abort()

    def test_empty_build_raises(self, tmp_path):
        builder = DiskGraphBuilder(tmp_path / "g")
        with pytest.raises(GraphStructureError):
            builder.finalize()

    def test_abort_discards_spill_state(self, tmp_path):
        builder = DiskGraphBuilder(tmp_path / "g")
        builder.add_edge("http://a.org/x", "http://a.org/y")
        builder.abort()
        leftovers = [name for name in os.listdir(tmp_path / "g")
                     if name.startswith(".build.")]
        assert leftovers == []


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValidationError, match="not a disk graph"):
            open_diskgraph(tmp_path / "empty")

    def test_corrupt_manifest(self, disk):
        manifest_path = os.path.join(disk.path, MANIFEST_FILE)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        with pytest.raises(ValidationError, match="corrupt"):
            open_diskgraph(disk.path)

    def test_wrong_format_field(self, disk):
        manifest_path = os.path.join(disk.path, MANIFEST_FILE)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(ValidationError):
            open_diskgraph(disk.path)

    def test_truncated_block_file_detected(self, web, tmp_path):
        disk = write_diskgraph(web, tmp_path / "trunc")
        blocks = os.path.join(disk.path, "blocks.bin")
        with open(blocks, "r+b") as handle:
            handle.truncate(os.path.getsize(blocks) // 2)
        with pytest.raises(ValidationError):
            open_diskgraph(disk.path)


def _set(path, value):
    """A manifest edit: assign *value* at the nested key *path*."""
    def edit(manifest):
        node = manifest
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _drop(path):
    def edit(manifest):
        node = manifest
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


def _duplicate_site(manifest):
    manifest["sites"][1] = manifest["sites"][0]


def _personalized_without_preference(manifest):
    manifest["blocks"]["personalized"] = dict(manifest["blocks"]["offsets"])


#: Manifests a hostile or damaged store could carry.  Every one must fail
#: ``open_diskgraph``: mapping file bytes as object pointers crashes the
#: interpreter on first touch, and counts that disagree cut arrays short.
HOSTILE_MANIFESTS = [
    pytest.param(_set(["blocks", "order", "dtype"], "O"),
                 id="object-doc-ids"),
    pytest.param(_set(["blocks", "data", "dtype"], "O"),
                 id="object-adjacency-data"),
    pytest.param(_set(["blocks", "indices", "dtype"], "<f8"),
                 id="float-indices"),
    pytest.param(_set(["blocks", "indptr", "dtype"], "<i8"),
                 id="indptr-and-indices-dtypes-differ"),
    pytest.param(_set(["documents", "url_offsets", "dtype"], "<i4"),
                 id="narrow-url-offsets"),
    pytest.param(_set(["documents", "url_offsets", "count"], 3),
                 id="url-offsets-not-one-per-document"),
    pytest.param(_set(["documents", "doc_sites", "count"], 3),
                 id="doc-sites-not-one-per-document"),
    pytest.param(_set(["sitegraph"], []), id="sitegraph-is-a-list"),
    pytest.param(_drop(["sitegraph", "adjacency"]),
                 id="no-sitegraph-adjacency"),
    pytest.param(_set(["sitegraph", "adjacency", "shape"], [1, "two"]),
                 id="sitegraph-shape-not-integers"),
    pytest.param(_set(["sitegraph", "adjacency", "shape"], [1, 1]),
                 id="sitegraph-shape-not-one-row-per-site"),
    pytest.param(_set(["blocks", "indptr", "count"], 7),
                 id="indptr-not-one-per-row"),
    pytest.param(_set(["blocks", "indices", "count"], 3),
                 id="indices-and-data-counts-differ"),
    pytest.param(_set(["blocks", "offsets", "count"], 3),
                 id="offsets-not-one-per-site"),
    pytest.param(_drop(["blocks", "order"]), id="no-order"),
    pytest.param(_personalized_without_preference,
                 id="flags-without-preferences"),
    pytest.param(_set(["sites"], "a.org"), id="sites-not-a-list"),
    pytest.param(_set(["sites", 1], 7), id="site-name-not-a-string"),
    pytest.param(_duplicate_site, id="duplicate-site"),
    pytest.param(_set(["n_documents"], "many"), id="n-documents-not-integer"),
    pytest.param(_set(["n_documents"], True), id="n-documents-is-a-bool"),
    pytest.param(_set(["n_documents"], 7), id="counts-do-not-sum"),
    pytest.param(_set(["blocks", "order", "dtype"], "<f8"),
                 id="float-doc-ids"),
]


class TestHostileManifest:
    @pytest.mark.parametrize("edit", HOSTILE_MANIFESTS)
    def test_open_fails_with_validation_error(self, disk, edit):
        manifest_path = os.path.join(disk.path, MANIFEST_FILE)
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        edit(manifest)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValidationError):
            open_diskgraph(disk.path)

    def test_version_one_is_rebuilt_not_read(self, disk):
        manifest_path = os.path.join(disk.path, MANIFEST_FILE)
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["version"] = 1
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValidationError,
                           match="version 1 .*reads version 2.*rebuild"):
            open_diskgraph(disk.path)


def _stored(disk):
    """The site-major arrays of ``blocks.bin``, read without mapping."""
    with open(os.path.join(disk.path, MANIFEST_FILE), encoding="utf-8") as f:
        specs = json.load(f)["blocks"]
    return {name: np.fromfile(os.path.join(disk.path, "blocks.bin"),
                              dtype=spec["dtype"], count=spec["count"],
                              offset=spec["offset"])
            for name, spec in specs.items()}


def _stored_block(disk, index):
    """Site *index*'s rows of ``blocks.bin`` as a CSR, as stored."""
    import scipy.sparse as sp

    stored = _stored(disk)
    low, high = stored["offsets"][index:index + 2]
    indptr = stored["indptr"][low:high + 1]
    entries = slice(indptr[0], indptr[-1])
    return sp.csr_matrix((stored["data"][entries],
                          stored["indices"][entries] - low,
                          indptr - indptr[0]), shape=(high - low, high - low))


def _patch_block_file(disk, name, at, value):
    """Overwrite element *at* of the site-major array *name*."""
    with open(os.path.join(disk.path, MANIFEST_FILE), encoding="utf-8") as f:
        spec = json.load(f)["blocks"][name]
    dtype = np.dtype(spec["dtype"])
    _poke(os.path.join(disk.path, "blocks.bin"),
          spec["offset"] + dtype.itemsize * at,
          np.array([value], dtype=dtype).tobytes())


def _first_entry_of_largest_site(disk):
    stored = _stored(disk)
    largest = int(np.argmax(np.diff(stored["offsets"])))
    return int(stored["indptr"][stored["offsets"][largest]])


def _duplicate_first_id(disk):
    _patch_block_file(disk, "order", 1, _stored(disk)["order"][0])


#: One wrong value in ``blocks.bin``.  Under the per-site layout of
#: format version 1 the first three killed the interpreter in
#: ``rank_outofcore`` (SIGSEGV or SIGABRT) and the last two ranked and
#: published with no error.
HOSTILE_BLOCKS = [
    pytest.param(lambda disk: _patch_block_file(disk, "indices", 0, 10**6),
                 id="column-past-the-web"),
    pytest.param(lambda disk: _patch_block_file(disk, "indices", 0, -1),
                 id="negative-column"),
    pytest.param(lambda disk: _patch_block_file(disk, "indptr", 2, 10**5),
                 id="indptr-past-the-entries"),
    pytest.param(_duplicate_first_id, id="duplicated-doc-id"),
    pytest.param(lambda disk: _patch_block_file(
        disk, "indices", _first_entry_of_largest_site(disk), -1),
        id="negative-column-in-the-largest-site"),
]


class TestHostileBlockFile:
    """A corrupt block file fails the round with a ValidationError before
    anything solves, and publishes no generation."""

    @pytest.fixture
    def probe(self, tmp_path):
        web = generate_synthetic_web(n_sites=6, n_documents=300, seed=3)
        return write_diskgraph(web, tmp_path / "probe")

    @pytest.mark.parametrize("patch", HOSTILE_BLOCKS)
    def test_rank_outofcore_fails_and_publishes_nothing(self, probe,
                                                        tmp_path, patch):
        from repro.engine import rank_outofcore
        from repro.io import ArtifactStore

        patch(probe)
        store = ArtifactStore(tmp_path / "store", create=True)
        with pytest.raises(ValidationError, match="disk graph"):
            rank_outofcore(open_diskgraph(probe.path), store)
        store.reload()
        assert store.current is None

    def test_a_column_in_another_site_is_rejected(self, probe):
        stored = _stored(probe)
        # Site 0's first column, pointed at site 1's first document.
        _patch_block_file(probe, "indices", 0, stored["offsets"][1])
        with pytest.raises(ValidationError, match="outside its row's site"):
            probe.unit_blocks(probe.sites()[:2])

    def test_an_id_of_another_site_is_rejected(self, probe):
        stored = _stored(probe)
        _patch_block_file(probe, "order", 0,
                          stored["order"][stored["offsets"][1]])
        with pytest.raises(ValidationError, match="each site's own"):
            probe.unit_blocks(probe.sites()[:1])

    @pytest.mark.parametrize("offsets", [[1], [0, 5, 3]],
                             ids=["not-from-zero", "not-ascending"])
    def test_offsets_that_do_not_partition_fail_at_open(self, probe,
                                                        offsets):
        for at, value in enumerate(offsets):
            _patch_block_file(probe, "offsets", at, value)
        with pytest.raises(ValidationError, match="blocks.offsets"):
            open_diskgraph(probe.path)

    def test_a_window_is_a_run_of_consecutive_sites(self, probe):
        sites = probe.sites()
        with pytest.raises(ValidationError, match="consecutive"):
            probe.unit_blocks([sites[0], sites[2]])


def _url_table(disk):
    """(url_blob offset in blocks.bin, the offsets array, blocks path)."""
    with open(os.path.join(disk.path, MANIFEST_FILE), encoding="utf-8") as f:
        documents = json.load(f)["documents"]
    blocks = os.path.join(disk.path, "blocks.bin")
    spec = documents["url_offsets"]
    offsets = np.fromfile(blocks, dtype=np.int64, count=spec["count"],
                          offset=spec["offset"])
    return documents["url_blob"]["offset"], spec["offset"], offsets, blocks


def _poke(path, at, data: bytes):
    with open(path, "r+b") as handle:
        handle.seek(at)
        handle.write(data)


class TestCorruptUrlTable:
    """A damaged URL table is a ValidationError naming the graph and the
    first bad document — at the parent a bare UnicodeDecodeError, or
    wrong / empty URLs without any error."""

    def test_bytes_that_are_not_utf8(self, disk):
        blob_at, _, offsets, blocks = _url_table(disk)
        _poke(blocks, blob_at + int(offsets[7]) + 3, b"\xff")
        with pytest.raises(ValidationError,
                           match=r"graph.*corrupt at document 7: .*UTF-8"):
            disk.urls_of_positions([2, 9, 7, 8])
        assert disk.urls_of_positions([2, 9, 8])  # the rest still reads

    def test_url_opening_inside_a_character(self, disk):
        # Documents 4 and 5 share a two-byte character across their
        # boundary: the joined bytes decode, neither URL does alone.
        blob_at, _, offsets, blocks = _url_table(disk)
        _poke(blocks, blob_at + int(offsets[5]) - 1, b"\xc3\xa9")
        with pytest.raises(ValidationError, match="document 5: "):
            disk.urls_of_positions([5])
        with pytest.raises(ValidationError, match="document 4: "):
            disk.urls_of_positions([3, 4, 5])

    @pytest.mark.parametrize("value, doc", [
        (lambda offsets: int(offsets[2]) - 1, 2),
        (lambda offsets: int(offsets[-1]) + 64, 2),
    ], ids=["backwards", "past-the-blob"])
    def test_offsets_out_of_order_or_past_the_blob(self, disk, value, doc):
        _, offsets_at, offsets, blocks = _url_table(disk)
        _poke(blocks, offsets_at + 8 * 3,
              np.int64(value(offsets)).tobytes())
        with pytest.raises(ValidationError,
                           match=f"corrupt at document {doc}: .*offsets"):
            disk.urls_of_positions([0, 1, 2])

    def test_rank_outofcore_fails_and_publishes_nothing(self, disk,
                                                        tmp_path):
        from repro.engine import rank_outofcore
        from repro.io import ArtifactStore

        blob_at, _, offsets, blocks = _url_table(disk)
        _poke(blocks, blob_at + int(offsets[11]), b"\x80")
        store = ArtifactStore(tmp_path / "store", create=True)
        with pytest.raises(ValidationError,
                           match="corrupt at document 11: .*UTF-8"):
            rank_outofcore(disk, store)
        store.reload()
        assert store.current is None


class TestNonFiniteLinkWeight:
    """A NaN or infinite link weight in ``blocks.bin`` fails the rank with a
    ValidationError and publishes nothing — at the parent NaN burned the
    whole iteration budget and an infinite weight silently emptied its
    row."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("family", ["site", "sitegraph"])
    def test_rank_outofcore_fails_and_publishes_nothing(self, disk, tmp_path,
                                                        family, bad):
        from repro.engine import rank_outofcore
        from repro.io import ArtifactStore

        with open(os.path.join(disk.path, MANIFEST_FILE),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        csr = (manifest["blocks"] if family == "site"
               else manifest["sitegraph"]["adjacency"])
        _poke(os.path.join(disk.path, "blocks.bin"), csr["data"]["offset"],
              np.float64(bad).tobytes())
        store = ArtifactStore(tmp_path / "store", create=True)
        with pytest.raises(ValidationError, match="non-negative and finite"):
            rank_outofcore(open_diskgraph(disk.path), store)
        store.reload()
        assert store.current is None


def _same_arrays(got, want) -> None:
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name), err_msg=name)


class TestWindowBlocks:
    """A window of disk blocks is a ``SiteBlocks`` over one mapping: it
    packs its sites as ``block_diagonal`` packs their blocks."""

    def test_packed_is_the_block_diagonal_of_its_blocks(self, disk):
        from repro.linalg import block_diagonal
        from repro.web.docgraph import SiteBlocks

        sites = disk.sites()
        window, preferences = disk.unit_blocks(sites)
        assert isinstance(window, SiteBlocks)
        assert preferences == [None] * len(sites)
        picked = [0, 2, 3]
        matrix, offsets, doc_ids = window.packed(picked)
        _same_arrays(matrix, block_diagonal(
            [disk.local_block(sites[index])[0] for index in picked]))
        np.testing.assert_array_equal(doc_ids, np.concatenate(
            [disk.doc_ids_of(sites[index]) for index in picked]))
        np.testing.assert_array_equal(np.diff(offsets), [
            disk.site_sizes()[sites[index]] for index in picked])
        np.testing.assert_array_equal(window.nnz, [
            disk.local_block(site)[0].nnz for site in sites])

    def test_a_window_inside_the_web_packs_its_own_blocks(self, web, disk):
        sites = disk.sites()
        window, _ = disk.unit_blocks(sites[2:5])
        for index, site in enumerate(sites[2:5]):
            _same_arrays(window.block(index), web.local_adjacency(site)[0])
            assert window.site_doc_ids(index) == tuple(
                web.documents_of_site(site))

    def test_a_packed_block_reads_back_after_its_pages_are_released(
            self, tmp_path):
        # Sites of a thousand pages: their entries span whole pages.
        disk = write_diskgraph(generate_synthetic_web(
            n_sites=3, n_documents=3000, seed=5), tmp_path / "big")
        sites = disk.sites()
        window, _ = disk.unit_blocks(sites)
        released = []
        release = window._release
        window._release = lambda *span: (released.append(span),
                                         release(*span))
        first = window.packed([0, 1])[0]
        assert released == [(0, int(window.nnz[:2].sum()))]
        # The released pages fault back in from the file.
        for index in (0, 1):
            _same_arrays(window.block(index),
                         disk.local_block(sites[index])[0])
        _same_arrays(window.packed([0, 1])[0], first)
        # Sites that do not follow on release one span each, never the
        # entries of the site between them.
        released.clear()
        bounds = np.concatenate(([0], np.cumsum(window.nnz))).tolist()
        window.packed([0, 2])
        assert released == [(bounds[0], bounds[1]), (bounds[2], bounds[3])]
        assert all(high <= bounds[1] or low >= bounds[2]
                   for low, high in released)
        _same_arrays(window.block(1), disk.local_block(sites[1])[0])

    def test_sites_without_intra_site_links(self, tmp_path):
        from repro.engine import rank_outofcore
        from repro.web.docgraph import DocGraph

        graph = DocGraph()
        for source, target in (("a.org/1", "b.org/1"), ("b.org/1", "c.org/1"),
                               ("c.org/2", "a.org/1"), ("b.org/2", "a.org/2")):
            graph.add_link(f"http://{source}", f"http://{target}")
        disk = write_diskgraph(graph, tmp_path / "graph")
        window, _ = disk.unit_blocks(disk.sites())
        assert window.packed(range(disk.n_sites))[0].nnz == 0
        ranked = rank_outofcore(disk, tmp_path / "store")
        assert ranked.n_documents == graph.n_documents

    @pytest.mark.parametrize("edit", ["unsorted", "duplicate"])
    def test_a_non_canonical_block_packs_canonicalised(self, disk, edit):
        from repro.linalg import block_diagonal

        stored = _stored(disk)
        indptr = stored["indptr"]
        row = int(np.argmax(np.diff(indptr[:stored["offsets"][1] + 1]) >= 2))
        first = int(indptr[row])
        columns = stored["indices"][first:first + 2]
        assert columns.size == 2
        columns = columns[::-1] if edit == "unsorted" else columns[[0, 0]]
        for at, column in enumerate(columns.tolist()):
            _patch_block_file(disk, "indices", first + at, column)
        graph = open_diskgraph(disk.path)
        sites = graph.sites()
        stored_blocks = [_stored_block(graph, index) for index in (0, 1)]
        assert not stored_blocks[0].has_canonical_format
        # A fused batch of one site is canonicalised as several are.
        for picked in ([0, 1], [0]):
            matrix = graph.unit_blocks(sites)[0].packed(picked)[0]
            assert matrix.has_canonical_format
            _same_arrays(matrix, block_diagonal(
                [stored_blocks[index] for index in picked]))
        # So is a dedicated site's block: the same gather.
        for block in (graph.unit_blocks(sites)[0].block(0),
                      graph.local_block(sites[0])[0]):
            assert block.has_canonical_format
            _same_arrays(block, block_diagonal(stored_blocks[:1]))
