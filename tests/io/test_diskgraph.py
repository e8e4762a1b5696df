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

    def test_local_adjacency_matches_docgraph(self, web, disk):
        for site in web.sites():
            want_matrix, want_ids = web.local_adjacency(site)
            got_matrix, got_ids = disk.local_adjacency(site)
            assert got_ids == want_ids
            assert _same_csr(got_matrix, want_matrix)

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
            disk.local_adjacency("no-such-site")


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
            got_matrix, got_ids = streamed.local_adjacency(site)
            want_matrix, want_ids = bulk.local_adjacency(site)
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


def _alias_second_site(manifest):
    """Two site entries pointing at one doc-id range (counts kept summing)."""
    first, second = manifest["sites"][:2]
    manifest["n_documents"] += (first["doc_ids"]["count"]
                                - second["doc_ids"]["count"])
    second["doc_ids"] = dict(first["doc_ids"])
    second["adjacency"] = first["adjacency"]


#: Manifests a hostile or damaged store could carry.  At the parent of
#: this test every one of them opened; the first then crashed the
#: interpreter in ``rank_outofcore`` (object pointers read from file
#: bytes), the last two ranked "successfully" with duplicated ids.
HOSTILE_MANIFESTS = [
    pytest.param(_set(["sites", 0, "doc_ids", "dtype"], "O"),
                 id="object-doc-ids"),
    pytest.param(_set(["sites", 0, "adjacency", "data", "dtype"], "O"),
                 id="object-adjacency-data"),
    pytest.param(_set(["sites", 0, "adjacency", "indices", "dtype"], "<f8"),
                 id="float-indices"),
    pytest.param(_set(["documents", "url_offsets", "dtype"], "<i4"),
                 id="narrow-url-offsets"),
    pytest.param(_set(["documents", "url_offsets", "count"], 3),
                 id="url-offsets-not-one-per-document"),
    pytest.param(_set(["sitegraph"], []), id="sitegraph-is-a-list"),
    pytest.param(_drop(["sitegraph", "site_sizes"]), id="no-site-sizes"),
    pytest.param(_set(["sitegraph", "site_sizes"], [1, "two"]),
                 id="site-sizes-not-integers"),
    pytest.param(_set(["sitegraph", "site_sizes"], [1]),
                 id="site-sizes-wrong-length"),
    pytest.param(_set(["sites", 0, "adjacency", "shape"], ["a", 3]),
                 id="shape-not-integers"),
    pytest.param(_set(["sites", 0, "adjacency", "shape"], [3]),
                 id="shape-not-a-pair"),
    pytest.param(_set(["sites", 0, "adjacency", "shape"], [7, 7]),
                 id="shape-disagrees-with-doc-ids"),
    pytest.param(_set(["n_documents"], "many"), id="n-documents-not-integer"),
    pytest.param(_set(["n_documents"], True), id="n-documents-is-a-bool"),
    pytest.param(_set(["n_documents"], 7), id="counts-do-not-sum"),
    pytest.param(_alias_second_site, id="two-sites-one-id-range"),
    pytest.param(_set(["sites", 0, "doc_ids", "dtype"], "<f8"),
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
        csr = (manifest["sites"][0]["adjacency"] if family == "site"
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
    """A window of disk blocks packs its sites as ``block_diagonal`` packs
    their blocks, without a matrix object per site."""

    def test_packed_is_the_block_diagonal_of_its_blocks(self, disk):
        from repro.linalg import block_diagonal

        sites = disk.sites()
        window = disk.unit_blocks(sites)
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

    def test_a_packed_block_reads_back_after_its_pages_are_released(
            self, disk):
        sites = disk.sites()
        window = disk.unit_blocks(sites)
        first = window.packed([0, 1])[0]
        # The released pages fault back in from the file.
        for index in (0, 1):
            _same_arrays(window.block(index),
                         disk.local_block(sites[index])[0])
        _same_arrays(window.packed([0, 1])[0], first)

    @pytest.mark.parametrize("edit", ["unsorted", "duplicate"])
    def test_a_non_canonical_block_packs_canonicalised(self, disk, edit):
        from repro.linalg import block_diagonal

        with open(os.path.join(disk.path, MANIFEST_FILE),
                  encoding="utf-8") as handle:
            spec = json.load(handle)["sites"][0]["adjacency"]["indices"]
        block = disk.local_block(disk.sites()[0])[0]
        row = int(np.argmax(np.diff(block.indptr) >= 2))
        first = int(block.indptr[row])
        columns = block.indices[first:first + 2]
        assert columns.size == 2
        columns = columns[::-1] if edit == "unsorted" else columns[[0, 0]]
        _poke(os.path.join(disk.path, "blocks.bin"),
              spec["offset"] + np.dtype(spec["dtype"]).itemsize * first,
              columns.astype(spec["dtype"]).tobytes())
        graph = open_diskgraph(disk.path)
        sites = graph.sites()
        assert not graph.local_block(sites[0])[0].has_canonical_format
        # A fused batch of one site is canonicalised as several are.
        for picked in ([0, 1], [0]):
            matrix = graph.unit_blocks(sites).packed(picked)[0]
            assert matrix.has_canonical_format
            _same_arrays(matrix, block_diagonal(
                [graph.local_block(sites[index])[0] for index in picked]))
        # A dedicated site's block is handed out as stored.
        assert not graph.unit_blocks(sites).block(0).has_canonical_format
