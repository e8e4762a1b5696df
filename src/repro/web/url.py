"""URL handling: parsing, normalisation and web-site extraction.

The paper's application layer groups web documents by **web site**: "taking
one page d, we denote its corresponding site as s = site(d)".  In the EPFL
experiment sites correspond to host names (``www.epfl.ch``,
``research.epfl.ch``, ``lamp.epfl.ch`` …).  This module provides the
``site_of`` mapping together with light-weight URL normalisation so that the
DocGraph builder treats ``http://a/b`` and ``http://a/b/`` as the same
document, and exposes alternative grouping policies (by host, by registered
domain, by path prefix) since the paper notes the hierarchy may also come
from domains or geography.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Tuple
from urllib.parse import urlsplit, urlunsplit

from ..exceptions import ValidationError

GroupingPolicy = Literal["host", "domain", "path-prefix"]


@dataclass(frozen=True)
class ParsedURL:
    """A parsed and normalised URL.

    Attributes
    ----------
    scheme, host, port, path, query:
        The usual URL components after normalisation (lower-cased scheme and
        host, default ports removed, empty path replaced with ``/``).
    is_dynamic:
        Whether the URL carries a query string or a known server-side-script
        extension — the paper deliberately *includes* such dynamic pages in
        the crawl, and they are central to the spam discussion of Figure 3.
    """

    scheme: str
    host: str
    port: int | None
    path: str
    query: str

    @property
    def is_dynamic(self) -> bool:
        if self.query:
            return True
        return self.path.lower().endswith(
            (".php", ".asp", ".aspx", ".jsp", ".cgi"))

    def unparse(self) -> str:
        """Reassemble the normalised URL string."""
        # An IPv6 literal needs its brackets back, or the result re-parses
        # to no host and normalisation would not be idempotent.
        host = f"[{self.host}]" if ":" in self.host else self.host
        netloc = host if self.port is None else f"{host}:{self.port}"
        return urlunsplit((self.scheme, netloc, self.path, self.query, ""))


_DEFAULT_PORTS = {"http": 80, "https": 443}


def parse_url(url: str) -> ParsedURL:
    """Parse and normalise a URL string.

    Normalisation: lower-case scheme and host, strip fragments, drop default
    ports, collapse an empty path to ``/``.  Raises
    :class:`~repro.exceptions.ValidationError` for URLs without a host,
    with an unsupported scheme, or that ``urllib`` itself refuses
    (unbalanced IPv6 brackets, non-numeric or out-of-range ports).
    """
    if not isinstance(url, str) or not url.strip():
        raise ValidationError("url must be a non-empty string")
    try:
        parts = urlsplit(url.strip())
        port = parts.port
    except ValueError as error:
        raise ValidationError(f"malformed URL {url!r}: {error}") from None
    scheme = (parts.scheme or "http").lower()
    if scheme not in ("http", "https"):
        raise ValidationError(f"unsupported URL scheme {scheme!r} in {url!r}")
    host = (parts.hostname or "").lower()
    if not host:
        raise ValidationError(f"URL {url!r} has no host")
    if port is not None and port == _DEFAULT_PORTS.get(scheme):
        port = None
    path = parts.path or "/"
    return ParsedURL(scheme=scheme, host=host, port=port, path=path,
                     query=parts.query)


def canonicalize_url(url: str) -> Tuple[str, str, bool]:
    """``(canonical URL, host, is_dynamic)`` of *url* from a single parse.

    Everything document identity needs; graph ingest calls it once per
    distinct URL spelling (:class:`repro.web.registry.DocumentRegistry`).
    """
    parsed = parse_url(url)
    return parsed.unparse(), parsed.host, parsed.is_dynamic


def normalize_url(url: str) -> str:
    """Return the canonical string form of *url*."""
    return canonicalize_url(url)[0]


def site_of(url: str, *, policy: GroupingPolicy = "host",
            path_depth: int = 1) -> str:
    """Return the web-site identifier of a document URL.

    Parameters
    ----------
    policy:
        * ``"host"`` (default, the paper's EPFL setting): the site is the
          full host name, e.g. ``research.epfl.ch``.
        * ``"domain"``: the site is the registered domain (last two host
          labels), e.g. ``epfl.ch`` — the "grouped by Internet domain names"
          alternative the paper mentions.
        * ``"path-prefix"``: host plus the first *path_depth* path segments,
          for sites hosting many independent projects under one host
          (``lamp.epfl.ch/~linuxsoft``).
    path_depth:
        Number of leading path segments kept under the ``"path-prefix"``
        policy.
    """
    parsed = parse_url(url)
    if policy == "host":
        return parsed.host
    if policy == "domain":
        labels = parsed.host.split(".")
        if len(labels) <= 2:
            return parsed.host
        return ".".join(labels[-2:])
    if policy == "path-prefix":
        if path_depth < 0:
            raise ValidationError("path_depth must be non-negative")
        segments = [segment for segment in parsed.path.split("/") if segment]
        prefix = "/".join(segments[:path_depth])
        return f"{parsed.host}/{prefix}" if prefix else parsed.host
    raise ValidationError(f"unknown grouping policy {policy!r}")


def make_site_extractor(policy: GroupingPolicy = "host",
                        path_depth: int = 1) -> Callable[[str], str]:
    """Return a ``site_of``-style callable with the policy baked in.

    Convenience for passing into :class:`repro.web.docgraph.DocGraph`
    builders and the crawler simulation.
    """
    def extractor(url: str) -> str:
        return site_of(url, policy=policy, path_depth=path_depth)

    return extractor


def is_dynamic_url(url: str) -> bool:
    """Whether *url* looks like a dynamically generated (scripted) page."""
    return canonicalize_url(url)[2]
