"""Reference implementations the array-native ingest path is held to.

These are the scalar forms the package shipped before graph ingest went
parse-once / array-native: three independent URL parses per document, and
the per-document / per-edge Python loop that aggregated the SiteGraph.
They live under ``tests/`` on purpose — the package keeps one
implementation, the tests keep the oracle.
"""

from __future__ import annotations

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
