"""Bulk edge resolution and column-wise writers against their per-item forms.

``ingest_oracles.py`` freezes the per-edge ``add_edges`` loop and the
writers / digest that read one :class:`~repro.web.docgraph.Document` per
record.  The shipped path — one registration per new spelling of a chunk,
one array pass over its endpoints, records straight from the registry
columns — must leave every registry field and every written byte equal to
them, whatever the chunk boundaries, the site extractor and the reader.

The property tests run a short, derandomised example budget by default;
``--hypothesis-profile=oracle-long`` (registered in ``tests/conftest.py``)
runs the long one.
"""

import os
import tempfile
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingest_oracles import (
    add_edges_per_edge,
    docgraph_digest_per_document,
    write_docgraph_per_document,
    write_url_edgelist_per_document,
)
from repro.exceptions import ValidationError
from repro.graphgen import generate_campus_web, generate_synthetic_web
from repro.graphgen.campus_web import CampusWebConfig
from repro.io import (
    DiskGraphBuilder,
    read_url_edgelist,
    stream_url_edgelist,
    write_docgraph,
    write_url_edgelist,
)
from repro.io.edgelist import docgraph_digest
from repro.web import DocGraph, IncrementalLayeredRanker
import repro.web.registry as registry_module
from repro.web.registry import DocumentRegistry
from repro.web.url import make_site_extractor

LONG_PROFILE = "oracle-long"
ORACLE_SETTINGS = (
    settings(deadline=None)
    if settings.get_current_profile_name() == LONG_PROFILE
    else settings(max_examples=25, deadline=None, derandomize=True))

_EXTRACTORS = {"host": None,
               "domain": make_site_extractor("domain"),
               "path-prefix": make_site_extractor("path-prefix")}
_HOSTS = ["a.example.org", "b.example.org", "www.c.net", "d.c.net"]
_PATHS = ["/", "/x", "/p/q.html", "/p/s.php", "/q?id=1", "/~u/%41/../b"]


def _spell(host, path, variant):
    """One spelling of a document; variants 1-3 are aliases of 0."""
    return [f"http://{host}{path}",
            f"HTTP://{host.upper()}{path}",
            f"http://{host}:80{path}#f{variant}",
            f"http://{host}{'' if path == '/' else path}",
            f"https://{host}{path}",
            f"http://{host}{path}?"][variant]


_spellings = st.builds(_spell, st.sampled_from(_HOSTS),
                       st.sampled_from(_PATHS), st.integers(0, 5))
_edges = st.lists(st.tuples(_spellings, _spellings), min_size=1,
                  max_size=60)


def assert_same_registry(got, want):
    """Every field of two registries equal, insertion order included."""
    assert list(got._ids.items()) == list(want._ids.items())
    assert got.urls == want.urls
    assert got.sites == want.sites
    assert got.site_index == want.site_index
    assert got.docs_by_site == want.docs_by_site
    assert got.doc_site == want.doc_site
    assert got.dynamic == want.dynamic
    assert got.n_parses == want.n_parses


def _oracle(edges, extractor):
    want = DocumentRegistry(site_extractor=extractor)
    sources, targets = add_edges_per_edge(want, edges)
    return want, list(sources), list(targets)


@given(edges=_edges, extractor=st.sampled_from(sorted(_EXTRACTORS)),
       cuts=st.lists(st.integers(0, 60), max_size=6),
       chunk=st.integers(1, 9))
@ORACLE_SETTINGS
def test_bulk_registry_equals_the_per_edge_loop(edges, extractor, cuts,
                                                chunk):
    extractor = _EXTRACTORS[extractor]
    want, want_sources, want_targets = _oracle(edges, extractor)
    got = DocumentRegistry(site_extractor=extractor)
    bounds = sorted({0, len(edges), *(c % (len(edges) + 1) for c in cuts)})
    with mock.patch.object(registry_module, "ADD_CHUNK_EDGES", chunk):
        columns = [got.add_edges(edges[a:b])
                   for a, b in zip(bounds, bounds[1:])]
    assert_same_registry(got, want)
    sources, targets = (np.concatenate(column).tolist()
                        for column in zip(*columns))
    assert (sources, targets) == (want_sources, want_targets)


@given(edges=_edges, extractor=st.sampled_from(sorted(_EXTRACTORS)),
       noise=st.lists(st.sampled_from(["", "   ", "# a comment", "#x y"]),
                      max_size=8),
       chunk=st.integers(1, 9))
@ORACLE_SETTINGS
def test_both_readers_equal_the_per_edge_loop(edges, extractor, noise,
                                              chunk):
    extractor = _EXTRACTORS[extractor]
    want, want_sources, want_targets = _oracle(edges, extractor)
    lines = [f"{s}{' ' if i % 2 else chr(9)}{t}"
             for i, (s, t) in enumerate(edges)]
    for i, extra in enumerate(noise):
        lines.insert((7 * i) % (len(lines) + 1), extra)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "edges.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        graph = read_url_edgelist(path, site_extractor=extractor)
        assert_same_registry(graph.registry, want)
        assert [column.tolist() for column in graph.edge_arrays()] == \
            [want_sources, want_targets]

        builder = DiskGraphBuilder(os.path.join(scratch, "g"),
                                   site_extractor=extractor)
        builder.consume(stream_url_edgelist(path, chunk_edges=chunk))
        assert_same_registry(builder._registry, want)
        assert builder.n_links == len(edges)
        builder.abort()


@pytest.mark.parametrize("chunk_edges", [7, 8192])
def test_bad_line_keeps_its_number_across_chunks(tmp_path, chunk_edges):
    lines = [f"http://s{i % 9}.org/p{i} http://s{i % 7}.org/q{i}"
             for i in range(20_000)]
    lines[100:100] = ["# comment", ""]
    lines[12_344] = "http://a.org/ only-one-field-too http://b.org/"
    path = tmp_path / "edges.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="^line 12345: expected 2 "
                       "fields, got 3$"):
        read_url_edgelist(path)
    with pytest.raises(ValidationError, match="^line 12345: "):
        for _ in stream_url_edgelist(path, chunk_edges=chunk_edges):
            pass


# --------------------------------------------------------------------- #
# writers and digest: column reads == one Document per record
# --------------------------------------------------------------------- #
def _synthetic():
    return generate_synthetic_web(n_sites=6, n_documents=200, seed=4)


def _campus():
    return generate_campus_web(CampusWebConfig(
        n_sites=6, n_documents=300, webdriver_farm_pages=40,
        javadoc_farm_pages=30, seed=2)).docgraph


def _spelled():
    graph = DocGraph.from_edges(
        (_spell(host, path, k % 4), _spell(_HOSTS[k % 2], "/x", k % 6))
        for k, (host, path) in enumerate(product(_HOSTS, _PATHS)))
    graph.add_document("http://isolated.example.org/x.cgi")
    graph.add_document("http://opaque.example.org/id", site="named site",
                       is_dynamic=True)
    return graph


def _updated():
    graph = _synthetic()
    live = IncrementalLayeredRanker(graph)
    live.add_link(graph.document(0).url, "http://fresh.example.org/new.php")
    return graph


@pytest.mark.parametrize("build", [_synthetic, _campus, _spelled, _updated])
def test_writers_and_digest_equal_the_per_document_forms(tmp_path, build):
    graph = build()
    for shipped, oracle in ((write_docgraph, write_docgraph_per_document),
                            (write_url_edgelist,
                             write_url_edgelist_per_document)):
        shipped(graph, tmp_path / "got")
        oracle(graph, tmp_path / "want")
        assert (tmp_path / "got").read_bytes() == \
            (tmp_path / "want").read_bytes()
    assert docgraph_digest(graph) == docgraph_digest_per_document(graph)
