"""Reference implementations the array-native ingest path is held to.

These are the scalar forms the package shipped before graph ingest went
parse-once / array-native: three independent URL parses per document, the
per-document / per-edge Python loop that aggregated the SiteGraph, the
per-edge loop that resolved URL pairs to ids, and the writers and digest
that read every record from a :class:`~repro.web.docgraph.Document`.
They live under ``tests/`` on purpose — the package keeps one
implementation, the tests keep the oracle.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import List, Tuple
from urllib.parse import urlsplit, urlunsplit

import numpy as np
import scipy.sparse as sp

_DEFAULT_PORTS = {"http": 80, "https": 443}
_SCRIPT_EXTENSIONS = (".php", ".asp", ".aspx", ".jsp", ".cgi")


def _parse(url: str) -> Tuple[str, str, object, str, str]:
    parts = urlsplit(url.strip())
    scheme = (parts.scheme or "http").lower()
    assert scheme in ("http", "https")
    host = (parts.hostname or "").lower()
    assert host
    port = parts.port
    if port is not None and port == _DEFAULT_PORTS.get(scheme):
        port = None
    return scheme, host, port, parts.path or "/", parts.query


def _normalize(url: str) -> str:
    scheme, host, port, path, query = _parse(url)
    # An IPv6 literal keeps its brackets (without them the key would not
    # parse again).
    host = f"[{host}]" if ":" in host else host
    netloc = host if port is None else f"{host}:{port}"
    return urlunsplit((scheme, netloc, path, query, ""))


def url_triple(url: str) -> Tuple[str, str, bool]:
    """``(normalize_url(u), site_of(key), is_dynamic_url(key))`` the old
    way: normalise, then parse the canonical key again for each answer."""
    key = _normalize(url)
    host = _parse(key)[1]
    _, _, _, path, query = _parse(key)
    dynamic = bool(query) or any(path.lower().endswith(ext)
                                 for ext in _SCRIPT_EXTENSIONS)
    return key, host, dynamic


def aggregate_sitegraph_loop(docgraph, *, include_self_links: bool = False,
                             site_order=None):
    """The SiteGraph adjacency by a loop over documents and edges."""
    sites = docgraph.sites() if site_order is None else list(site_order)
    index_of_site = {site: i for i, site in enumerate(sites)}
    site_of_doc = np.empty(docgraph.n_documents, dtype=np.int64)
    for document in docgraph.documents():
        site_of_doc[document.doc_id] = index_of_site[document.site]
    site_edges: List[Tuple[int, int]] = []
    for source, target in docgraph.edges():
        source_site = int(site_of_doc[source])
        target_site = int(site_of_doc[target])
        if source_site == target_site and not include_self_links:
            continue
        site_edges.append((source_site, target_site))
    pairs = np.array(site_edges, dtype=np.int64).reshape(-1, 2)
    matrix = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                           shape=(len(sites), len(sites)))
    matrix.sum_duplicates()
    return matrix.tocsr()


def add_edges_per_edge(registry, edges) -> Tuple[array, array]:
    """``DocumentRegistry.add_edges`` as one lookup (and, on a miss, one
    ``add``) per endpoint and one append per id, edge by edge."""
    get, add = registry._ids.get, registry.add
    sources, targets = array("q"), array("q")
    for source_url, target_url in edges:
        source = get(source_url)
        if source is None:
            source = add(source_url)
        target = get(target_url)
        if target is None:
            target = add(target_url)
        sources.append(source)
        targets.append(target)
    return sources, targets


def write_url_edgelist_per_document(docgraph, path) -> None:
    """``write_url_edgelist`` with one ``Document`` per endpoint."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# repro URL edge list\n")
        for source, target in docgraph.edges():
            handle.write(f"{docgraph.document(source).url}\t"
                         f"{docgraph.document(target).url}\n")


def write_docgraph_per_document(docgraph, path) -> None:
    """``write_docgraph`` with one ``Document`` per node record."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("*NODES\n")
        for document in docgraph.documents():
            handle.write(f"{document.doc_id}\t{document.site}\t"
                         f"{int(document.is_dynamic)}\t{document.url}\n")
        handle.write("*EDGES\n")
        for source, target in docgraph.edges():
            handle.write(f"{source}\t{target}\n")


def docgraph_digest_per_document(docgraph) -> str:
    """``docgraph_digest`` with one ``Document`` and one hash update per
    record."""
    digest = hashlib.sha256()
    for document in docgraph.documents():
        digest.update(f"{document.doc_id}\t{document.site}\t"
                      f"{int(document.is_dynamic)}\t{document.url}\n"
                      .encode("utf-8"))
    digest.update(b"*EDGES\n")
    for source, target in docgraph.edges():
        digest.update(f"{source}\t{target}\n".encode("utf-8"))
    return digest.hexdigest()[:16]
