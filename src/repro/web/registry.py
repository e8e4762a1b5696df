"""The document registry: URL → dense first-seen id, site and dynamic flag.

One implementation of the document-identity rules, held by both
:class:`repro.web.docgraph.DocGraph` and the streaming
:class:`repro.io.diskgraph.DiskGraphBuilder` — which is what keeps a
streamed build block-for-block identical to the in-memory one.

A URL is parsed once per distinct *spelling*: lookups try the raw string
first, and a spelling that differs from its canonical form is remembered
as an alias of the same id.  Canonical input therefore adds no entries
beyond one per document; resident state is O(distinct URL spellings).
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..exceptions import ValidationError
from .url import canonicalize_url


class DocumentRegistry:
    """Append-only table of documents, column by column.

    *site_extractor* maps a canonical URL to its site; the default is the
    host (:func:`repro.web.url.site_of`), which the one parse of the URL
    already yields.  *normalize* canonicalises URLs on insertion (disable
    only for identifiers the caller guarantees canonical).

    Per-document columns in id order: ``urls`` (canonical), ``doc_site``
    (index into ``sites``) and ``dynamic`` flags.  ``sites`` lists site
    identifiers first-seen, ``site_index`` inverts it, ``docs_by_site``
    holds each site's ascending document ids.  ``n_parses`` counts URL
    parses — against two lookups per ingested edge, what the memo missed.
    """

    def __init__(self, *, site_extractor: Optional[Callable[[str], str]] = None,
                 normalize: bool = True) -> None:
        self._site_extractor = site_extractor
        self._normalize = normalize
        # Canonical URLs and the raw spellings that differ from them.
        self._ids: Dict[str, int] = {}
        self.urls: List[str] = []
        self.doc_site = array("q")
        self.dynamic = bytearray()
        self.sites: List[str] = []
        self.site_index: Dict[str, int] = {}
        self.docs_by_site: List[List[int]] = []
        self.n_parses = 0

    def __len__(self) -> int:
        return len(self.urls)

    def find(self, url: str) -> Optional[int]:
        """Id of an already-registered URL (any spelling), else ``None``."""
        doc_id = self._ids.get(url)
        if doc_id is None and self._normalize:
            doc_id = self._ids.get(canonicalize_url(url)[0])
        return doc_id

    def add(self, url: str, *, site: Optional[str] = None,
            is_dynamic: Optional[bool] = None) -> int:
        """Register a document (idempotent) and return its id.

        *site* and *is_dynamic* override what the URL says; they are
        ignored for a document that already exists.
        """
        doc_id = self._ids.get(url)
        if doc_id is not None:
            return doc_id
        key, host, dynamic = url, None, False
        needs_host = site is None and self._site_extractor is None
        if self._normalize:
            self.n_parses += 1
            key, host, dynamic = canonicalize_url(url)
            doc_id = self._ids.get(key)
        elif is_dynamic is None or needs_host:
            self.n_parses += 1
            try:
                _, host, dynamic = canonicalize_url(url)
            except ValidationError:
                # Opaque identifiers are fine as long as the caller (or a
                # custom extractor) names the site.
                if needs_host:
                    raise
        if doc_id is None:
            if site is None:
                site = host if self._site_extractor is None \
                    else self._site_extractor(key)
            if is_dynamic is None:
                is_dynamic = dynamic
            doc_id = self._append(key, site, bool(is_dynamic))
        if key != url:
            self._ids[url] = doc_id
        return doc_id

    def _append(self, key: str, site: str, is_dynamic: bool) -> int:
        site_index = self.site_index.get(site)
        if site_index is None:
            site_index = self.site_index[site] = len(self.sites)
            self.sites.append(site)
            self.docs_by_site.append([])
        doc_id = self._ids[key] = len(self.urls)
        self.urls.append(key)
        self.doc_site.append(site_index)
        self.dynamic.append(is_dynamic)
        self.docs_by_site[site_index].append(doc_id)
        return doc_id

    def add_edges(self, edges: Iterable[Tuple[str, str]]
                  ) -> Tuple[array, array]:
        """Resolve ``(source URL, target URL)`` pairs to two int64 id columns.

        Endpoints are registered on first sight.
        """
        get, add = self._ids.get, self.add
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
