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
