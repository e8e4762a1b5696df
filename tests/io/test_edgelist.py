"""Tests for repro.io.edgelist."""

import pytest

from repro.exceptions import ValidationError
from repro.io import (
    iter_url_edges,
    read_docgraph,
    read_url_edgelist,
    toy_web,
    write_docgraph,
    write_url_edgelist,
)


class TestIterUrlEdges:
    def test_parses_pairs(self):
        lines = ["http://a.org/ http://b.org/",
                 "http://b.org/\thttp://c.org/"]
        assert list(iter_url_edges(lines)) == [
            ("http://a.org/", "http://b.org/"),
            ("http://b.org/", "http://c.org/"),
        ]

    def test_skips_comments_and_blank_lines(self):
        lines = ["# a comment", "", "   ", "http://a.org/ http://b.org/"]
        assert len(list(iter_url_edges(lines))) == 1

    def test_rejects_malformed_line(self):
        with pytest.raises(ValidationError):
            list(iter_url_edges(["http://a.org/ http://b.org/ extra"]))


class TestUrlEdgelistRoundTrip:
    def test_write_then_read(self, tmp_path, toy_docgraph):
        path = tmp_path / "edges.txt"
        write_url_edgelist(toy_docgraph, path)
        loaded = read_url_edgelist(path)
        assert loaded.n_links == toy_docgraph.n_links
        assert set(loaded.urls()) == set(toy_docgraph.urls())

    def test_read_applies_custom_site_extractor(self, tmp_path, toy_docgraph):
        path = tmp_path / "edges.txt"
        write_url_edgelist(toy_docgraph, path)
        loaded = read_url_edgelist(path, site_extractor=lambda url: "one-site")
        assert loaded.n_sites == 1


    @pytest.mark.parametrize(
        "url", ["http://a:99999/", "http://a:x/", "http://[::1/"])
    def test_hostile_url_is_a_validation_error(self, tmp_path, url):
        path = tmp_path / "edges.txt"
        path.write_text(f"http://a.org/ http://b.org/\nhttp://a.org/ {url}\n")
        with pytest.raises(ValidationError, match="malformed URL"):
            read_url_edgelist(path)


class TestEncoding:
    """Both URL-edge-list readers: UTF-8 only, a leading BOM is skipped."""

    _LINES = "http://a.org/x http://b.org/\nhttp://b.org/ http://a.org/x\n"

    @staticmethod
    def _streamed(path):
        from repro.io import stream_url_edgelist

        return [edge for chunk in stream_url_edgelist(path) for edge in chunk]

    def test_read_skips_a_leading_bom(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(self._LINES, encoding="utf-8")
        marked.write_text("\ufeff" + self._LINES, encoding="utf-8")
        assert read_url_edgelist(marked).urls() == \
            read_url_edgelist(plain).urls() == ["http://a.org/x",
                                                "http://b.org/"]

    def test_stream_skips_a_leading_bom(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(self._LINES, encoding="utf-8")
        marked.write_text("\ufeff" + self._LINES, encoding="utf-8")
        assert self._streamed(marked) == self._streamed(plain) == [
            ("http://a.org/x", "http://b.org/"),
            ("http://b.org/", "http://a.org/x")]

    @pytest.mark.parametrize("reader", ["read", "stream"])
    def test_non_utf8_names_the_file_and_line(self, tmp_path, reader):
        path = tmp_path / "latin1.txt"
        path.write_bytes(self._LINES.encode() * 2
                         + b"http://a.org/caf\xe9 http://b.org/\n")
        read = read_url_edgelist if reader == "read" else self._streamed
        with pytest.raises(ValidationError, match=r"latin1\.txt: line 5: "
                           r"not UTF-8"):
            read(path)


class TestDocGraphRoundTrip:
    def test_lossless_round_trip(self, tmp_path, spam_docgraph):
        path = tmp_path / "graph.txt"
        write_docgraph(spam_docgraph, path)
        loaded = read_docgraph(path)
        assert loaded.n_documents == spam_docgraph.n_documents
        assert loaded.n_links == spam_docgraph.n_links
        assert loaded.site_sizes() == spam_docgraph.site_sizes()
        assert (loaded.adjacency() != spam_docgraph.adjacency()).nnz == 0

    def test_preserves_dynamic_flags_and_sites(self, tmp_path):
        graph = toy_web()
        graph.add_document("http://x.org/d.php", site="custom", is_dynamic=True)
        path = tmp_path / "graph.txt"
        write_docgraph(graph, path)
        loaded = read_docgraph(path)
        document = loaded.document_by_url("http://x.org/d.php")
        assert document.is_dynamic
        assert document.site == "custom"

    def test_rankings_identical_after_round_trip(self, tmp_path, toy_docgraph):
        import numpy as np

        from repro.api import Ranker

        path = tmp_path / "graph.txt"
        write_docgraph(toy_docgraph, path)
        loaded = read_docgraph(path)
        original = Ranker().fit(toy_docgraph).scores_by_doc_id()
        reloaded = Ranker().fit(loaded).scores_by_doc_id()
        assert np.allclose(original, reloaded)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValidationError):
            read_docgraph(path)

    def test_rejects_malformed_node_record(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("*NODES\nonly-two\tfields\n")
        with pytest.raises(ValidationError):
            read_docgraph(path)

    def test_rejects_edge_before_nodes(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\t1\n")
        with pytest.raises(ValidationError):
            read_docgraph(path)

    def test_rejects_edge_to_unknown_node(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("*NODES\n0\tsite\t0\thttp://a.org/\n*EDGES\n0\t7\n")
        with pytest.raises(ValidationError):
            read_docgraph(path)

    def test_rejects_non_numeric_node_fields(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("*NODES\nx\tsite\t0\thttp://a.org/\n")
        with pytest.raises(ValidationError):
            read_docgraph(path)

    def test_rejects_non_numeric_edge_fields(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("*NODES\n0\tsite\t0\thttp://a.org/\n*EDGES\n0\ty\n")
        with pytest.raises(ValidationError):
            read_docgraph(path)


class TestStreamUrlEdges:
    """The chunked, constant-memory streaming reader (out-of-core builds)."""

    @staticmethod
    def _lines(n):
        return [f"http://s{i % 5}.org/p{i} http://s{(i + 1) % 5}.org/p{i}"
                for i in range(n)]

    def test_chunks_cover_the_stream_in_order(self):
        from repro.io import iter_url_edges, stream_url_edges

        lines = self._lines(25)
        chunks = list(stream_url_edges(lines, chunk_edges=10))
        assert [len(chunk) for chunk in chunks] == [10, 10, 5]
        flattened = [edge for chunk in chunks for edge in chunk]
        assert flattened == list(iter_url_edges(lines))

    def test_consumes_input_lazily(self):
        """At most one chunk of parsed edges is ever outstanding."""
        from repro.io import stream_url_edges

        pulled = 0

        def counting_lines():
            nonlocal pulled
            for line in self._lines(1000):
                pulled += 1
                yield line

        stream = stream_url_edges(counting_lines(), chunk_edges=10)
        first = next(stream)
        assert len(first) == 10
        # The generator advanced only far enough to fill one chunk — the
        # remaining 990 lines were never touched, so an edge list larger
        # than RAM streams through in bounded memory.
        assert pulled == 10
        next(stream)
        assert pulled == 20

    def test_rejects_non_positive_chunk_size(self):
        from repro.io import stream_url_edges

        with pytest.raises(ValidationError):
            next(stream_url_edges(self._lines(3), chunk_edges=0))

    def test_malformed_line_keeps_line_numbering(self):
        from repro.io import stream_url_edges

        lines = ["# header", "http://a.org/ http://b.org/", "broken"]
        with pytest.raises(ValidationError, match="line 3"):
            list(stream_url_edges(lines))

    def test_file_wrapper_round_trips(self, tmp_path, toy_docgraph):
        from repro.io import read_url_edgelist, stream_url_edgelist

        path = tmp_path / "edges.txt"
        write_url_edgelist(toy_docgraph, path)
        streamed = [edge for chunk in
                    stream_url_edgelist(path, chunk_edges=4)
                    for edge in chunk]
        loaded = read_url_edgelist(path)
        assert len(streamed) == loaded.n_links
