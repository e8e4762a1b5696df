"""The parse-once, array-native ingest path against its scalar oracles.

``ingest_oracles.py`` keeps the pre-registry rules (three parses per
document, the SiteGraph loop); everything here holds the shipped path —
:func:`repro.web.url.canonicalize_url`,
:class:`repro.web.registry.DocumentRegistry`, the int64 edge columns of
:class:`repro.web.docgraph.DocGraph` — to them.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingest_oracles import aggregate_sitegraph_loop, url_triple
from repro.graphgen import generate_synthetic_web
from repro.io import DiskGraphBuilder, write_diskgraph
from repro.io.diskgraph import BLOCKS_FILE, MANIFEST_FILE
from repro.io.edgelist import docgraph_digest
from repro.web import (
    DocGraph,
    IncrementalLayeredRanker,
    aggregate_sitegraph,
    is_dynamic_url,
    normalize_url,
    site_of,
)
from repro.web import url as url_module
from repro.web.url import canonicalize_url

# --------------------------------------------------------------------- #
# (a) one parse == the old three, and normalisation is idempotent
# --------------------------------------------------------------------- #
_label = st.text("abcXYZ019-", min_size=1, max_size=6).filter(
    lambda s: s[0] != "-" and s[-1] != "-")
_urls = st.builds(
    lambda ws, scheme, labels, port, path, query, fragment, tail: (
        f"{ws}{scheme}//{'.'.join(labels)}{port}{path}{query}{fragment}{tail}"),
    st.sampled_from(["", " ", "\t", "\n "]),
    st.sampled_from(["http:", "HTTP:", "https:", "hTTpS:", ""]),
    st.lists(_label, min_size=1, max_size=3),
    st.sampled_from(["", ":", ":80", ":443", ":080", ":8080", ":81"]),
    st.sampled_from(["", "/", "/a/B.html", "/x.php", "/Dir/Y.ASPX", "/d/",
                     "/cgi-bin/s.cgi", "/a b"]),
    st.sampled_from(["", "?", "?q=1&r=2", "?LO=1#not-a-fragment"]),
    st.sampled_from(["", "#", "#frag"]),
    st.sampled_from(["", " ", "\r\n"]),
)


@given(_urls)
@settings(max_examples=300, deadline=None)
def test_one_parse_equals_the_old_triple(url):
    key, host, dynamic = canonicalize_url(url)
    assert (key, host, dynamic) == url_triple(url)
    assert (normalize_url(url), site_of(url), is_dynamic_url(url)) == \
        (key, host, dynamic)
    # The registry keeps raw-spelling aliases beside canonical keys in one
    # map, which is only sound if a canonical key canonicalises to itself.
    assert canonicalize_url(key) == (key, host, dynamic)


def test_ipv6_literal_normalises_idempotently():
    key = normalize_url("HTTP://[::1]:8080/x#f")
    assert key == "http://[::1]:8080/x"
    assert canonicalize_url(key) == (key, "::1", False)


# --------------------------------------------------------------------- #
# (b) at most one URL parse per distinct raw spelling
# --------------------------------------------------------------------- #
_SPELLINGS = ["http://a.b/x", "HTTP://A.b:80/x#f", "http://a.b/y?q=1",
              "http://c.d/", "http://c.d", "https://c.d/z.php"]
_EDGES = [(_SPELLINGS[i % 6], _SPELLINGS[(i * 5 + 1) % 6])
          for i in range(240)]


@pytest.fixture
def parse_calls(monkeypatch):
    calls = []
    real = url_module.parse_url

    def counting(url):
        calls.append(url)
        return real(url)

    monkeypatch.setattr(url_module, "parse_url", counting)
    return calls


def test_docgraph_parses_each_spelling_once(parse_calls):
    graph = DocGraph.from_edges(_EDGES)
    assert len(parse_calls) <= len(_SPELLINGS)
    assert graph.n_links == len(_EDGES) and graph.n_documents == 4


def test_disk_builder_parses_each_spelling_once(parse_calls, tmp_path):
    builder = DiskGraphBuilder(tmp_path / "g")
    builder.add_edges(_EDGES)
    builder.add_edges(_EDGES)
    assert len(parse_calls) <= len(_SPELLINGS)
    assert builder.n_links == 2 * len(_EDGES) and builder.n_documents == 4
    builder.abort()


# --------------------------------------------------------------------- #
# (c) several spellings of the same documents: one graph, one store
# --------------------------------------------------------------------- #
def _respell(url, k):
    if k % 3 == 0:
        return url
    scheme, rest = url.split("://", 1)
    host, _, path = rest.partition("/")
    if k % 3 == 1:
        return f"{scheme.upper()}://{host.upper()}:80/{path}#f{k}"
    return f"  {scheme}://{host}:080/{path}\t"


def _store_bytes(disk):
    with open(os.path.join(disk.path, BLOCKS_FILE), "rb") as handle:
        blocks = handle.read()
    with open(os.path.join(disk.path, MANIFEST_FILE), encoding="utf-8") as f:
        return blocks, json.load(f)


def test_spellings_collapse_to_identical_graph_and_store(tmp_path):
    web = generate_synthetic_web(n_sites=5, n_documents=150, seed=3)
    canonical = [(web.document(s).url, web.document(t).url)
                 for s, t in web.edges()]
    spelled = [(_respell(s, i), _respell(t, i + 1))
               for i, (s, t) in enumerate(canonical)]
    want, got = DocGraph.from_edges(canonical), DocGraph.from_edges(spelled)
    assert list(got.documents()) == list(want.documents())
    assert got.edges() == want.edges()
    assert docgraph_digest(got) == docgraph_digest(want)

    builder = DiskGraphBuilder(tmp_path / "streamed")
    builder.consume(spelled[i:i + 97] for i in range(0, len(spelled), 97))
    streamed = _store_bytes(builder.finalize())
    assert streamed == _store_bytes(write_diskgraph(got, tmp_path / "bulk"))
    assert streamed == _store_bytes(write_diskgraph(want, tmp_path / "ref"))


# --------------------------------------------------------------------- #
# (d) live updates leave the same graph as a rebuild from scratch
# --------------------------------------------------------------------- #
def test_incremental_updates_equal_a_rebuild():
    web = generate_synthetic_web(n_sites=4, n_documents=80, seed=11)
    graph = DocGraph.from_edges((web.document(s).url, web.document(t).url)
                                for s, t in web.edges())
    live = IncrementalLayeredRanker(graph)
    first, last = graph.document(0), graph.document(graph.n_documents - 1)
    live.add_link(first.url, last.url)
    live.add_document(f"http://{first.site}/brand-new.php")
    live.add_link(f"HTTP://{last.site.upper()}:80/another#x", first.url)
    live.add_link("http://fresh.example.org/", f"http://{last.site}/another")
    live.add_link(first.url, last.url)

    rebuilt = DocGraph()
    for document in graph.documents():
        rebuilt.add_document(document.url, site=document.site,
                             is_dynamic=document.is_dynamic)
    for source, target in graph.edges():
        rebuilt.add_link_by_id(source, target)
    assert graph.edges() == rebuilt.edges()
    assert (graph.adjacency() != rebuilt.adjacency()).nnz == 0
    assert docgraph_digest(graph) == docgraph_digest(rebuilt)
    sources, targets = graph.edge_arrays()
    assert list(zip(sources.tolist(), targets.tolist())) == graph.edges()
    assert [graph.sites()[i] for i in graph.site_indices().tolist()] == \
        [document.site for document in graph.documents()]


# --------------------------------------------------------------------- #
# (e) canonical input keeps the registry at one entry per document
# --------------------------------------------------------------------- #
def test_canonical_input_stores_no_aliases(tmp_path):
    canonical = [(normalize_url(s), normalize_url(t)) for s, t in _EDGES]
    graph = DocGraph.from_edges(canonical)
    assert len(graph.registry._ids) == graph.n_documents
    builder = DiskGraphBuilder(tmp_path / "g")
    builder.add_edges(canonical)
    assert len(builder._registry._ids) == builder.n_documents
    builder.abort()
    # ... and a differing spelling costs exactly one alias, however often
    # it recurs.
    respelled = DocGraph.from_edges(_EDGES)
    assert len(respelled.registry._ids) == len(_SPELLINGS)


# --------------------------------------------------------------------- #
# vectorised SiteGraph aggregation == the loop, bit for bit
# --------------------------------------------------------------------- #
def _same_csr_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


@pytest.mark.parametrize("include_self_links", [False, True])
def test_aggregate_sitegraph_equals_the_loop(include_self_links):
    web = generate_synthetic_web(n_sites=7, n_documents=300, seed=2)
    web.add_link(web.document(0).url, web.document(0).url)  # a self-link
    web.add_document("http://isolated.example.org/")       # an empty row
    got = aggregate_sitegraph(web, include_self_links=include_self_links)
    assert _same_csr_bits(got.adjacency, aggregate_sitegraph_loop(
        web, include_self_links=include_self_links))
    order = list(reversed(web.sites()))
    reordered = aggregate_sitegraph(
        web, include_self_links=include_self_links, site_order=order)
    assert reordered.sites == order
    assert _same_csr_bits(reordered.adjacency, aggregate_sitegraph_loop(
        web, include_self_links=include_self_links, site_order=order))
    assert reordered.site_sizes == list(reversed(got.site_sizes))
