"""Pluggable ranking schemes for the two layers of the LMM.

The paper stresses that its model "provides a foundation for a whole class
of ranking methods, e.g. by replacing the PageRank algorithm by any other
methods for the computation of DocRank and/or SiteRank at different layers"
(Section 1.2).  This module makes that generality concrete: a
:class:`LocalRankScheme` produces the per-site document weights and a
:class:`SiteRankScheme` the site weights, and
:func:`layered_docrank_with_schemes` composes any pair of them through the
usual Theorem-2 multiplication.

Provided local schemes: PageRank (the paper's choice), HITS authorities,
in-degree, and uniform.  Provided site schemes: PageRank on SiteLink counts
(the paper's SiteRank), weighted in-degree, site size, and uniform.  The
scheme-ablation benchmark compares them on the campus web.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List

import numpy as np

from .._validation import normalize_distribution
from ..exceptions import GraphStructureError
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..markov.irreducibility import DEFAULT_DAMPING
from ..pagerank.hits import hits
from ..pagerank.pagerank import pagerank
from ..web.docgraph import DocGraph
from ..web.pipeline import WebRankingResult
from ..web.sitegraph import SiteGraph, aggregate_sitegraph


class LocalRankScheme(ABC):
    """Strategy producing the local (within-site) document weights."""

    #: Human-readable scheme name (used in benchmark tables).
    name: str = "local"

    @abstractmethod
    def rank(self, docgraph: DocGraph, site: str) -> np.ndarray:
        """Return a probability distribution over the site's documents,
        aligned with ``docgraph.documents_of_site(site)``."""


class SiteRankScheme(ABC):
    """Strategy producing the site-layer weights."""

    #: Human-readable scheme name (used in benchmark tables).
    name: str = "site"

    @abstractmethod
    def rank(self, sitegraph: SiteGraph) -> np.ndarray:
        """Return a probability distribution over ``sitegraph.sites``."""


# --------------------------------------------------------------------- #
# Local (document-layer) schemes
# --------------------------------------------------------------------- #
class PageRankLocalScheme(LocalRankScheme):
    """The paper's choice: PageRank of the site's internal link graph."""

    name = "local-pagerank"

    def __init__(self, damping: float = DEFAULT_DAMPING,
                 tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> None:
        self._damping = damping
        self._tol = tol
        self._max_iter = max_iter

    def rank(self, docgraph: DocGraph, site: str) -> np.ndarray:
        local_adjacency, _doc_ids = docgraph.local_adjacency(site)
        result = pagerank(local_adjacency, damping=self._damping,
                          tol=self._tol, max_iter=self._max_iter)
        return result.scores


class HITSLocalScheme(LocalRankScheme):
    """HITS authority scores of the site's internal link graph.

    Illustrates the paper's "any other method" claim; HITS may assign zero
    weight to poorly connected documents, so a small smoothing mass is mixed
    in to keep the gatekeeper probabilities positive (Lemma 2's hypothesis).
    """

    name = "local-hits"

    def __init__(self, smoothing: float = 0.05) -> None:
        if not 0.0 < smoothing < 1.0:
            raise GraphStructureError("smoothing must be in (0, 1)")
        self._smoothing = smoothing

    def rank(self, docgraph: DocGraph, site: str) -> np.ndarray:
        local_adjacency, doc_ids = docgraph.local_adjacency(site)
        n = len(doc_ids)
        if n == 1:
            return np.array([1.0])
        result = hits(local_adjacency, max_iter=500, tol=1e-10,
                      raise_on_failure=False)
        authorities = result.authorities
        uniform = np.full(n, 1.0 / n)
        return normalize_distribution(
            (1 - self._smoothing) * authorities + self._smoothing * uniform,
            name="HITS local scheme")


class InDegreeLocalScheme(LocalRankScheme):
    """Documents weighted by (1 + intra-site in-degree)."""

    name = "local-indegree"

    def rank(self, docgraph: DocGraph, site: str) -> np.ndarray:
        local_adjacency, _doc_ids = docgraph.local_adjacency(site)
        in_degree = np.asarray(local_adjacency.sum(axis=0)).ravel()
        return normalize_distribution(in_degree + 1.0,
                                      name="in-degree local scheme")


class UniformLocalScheme(LocalRankScheme):
    """Every document of a site weighted equally (pure SiteRank ranking)."""

    name = "local-uniform"

    def rank(self, docgraph: DocGraph, site: str) -> np.ndarray:
        n = len(docgraph.documents_of_site(site))
        return np.full(n, 1.0 / n)


# --------------------------------------------------------------------- #
# Site-layer schemes
# --------------------------------------------------------------------- #
class PageRankSiteScheme(SiteRankScheme):
    """The paper's SiteRank: PageRank on SiteLink counts."""

    name = "site-pagerank"

    def __init__(self, damping: float = DEFAULT_DAMPING,
                 tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> None:
        self._damping = damping
        self._tol = tol
        self._max_iter = max_iter

    def rank(self, sitegraph: SiteGraph) -> np.ndarray:
        result = pagerank(sitegraph.adjacency, damping=self._damping,
                          tol=self._tol, max_iter=self._max_iter)
        return result.scores


class InDegreeSiteScheme(SiteRankScheme):
    """Sites weighted by (1 + incoming SiteLink count)."""

    name = "site-indegree"

    def rank(self, sitegraph: SiteGraph) -> np.ndarray:
        in_degree = np.asarray(sitegraph.adjacency.sum(axis=0)).ravel()
        return normalize_distribution(in_degree + 1.0,
                                      name="in-degree site scheme")


class SizeSiteScheme(SiteRankScheme):
    """Sites weighted by their document count.

    This is the degenerate scheme that re-creates flat PageRank's weakness:
    a huge link farm gets a huge weight simply for being huge.
    """

    name = "site-size"

    def rank(self, sitegraph: SiteGraph) -> np.ndarray:
        return normalize_distribution(
            np.asarray(sitegraph.site_sizes, dtype=float),
            name="size site scheme")


class UniformSiteScheme(SiteRankScheme):
    """Every site weighted equally."""

    name = "site-uniform"

    def rank(self, sitegraph: SiteGraph) -> np.ndarray:
        return np.full(sitegraph.n_sites, 1.0 / sitegraph.n_sites)


# --------------------------------------------------------------------- #
# Composition
# --------------------------------------------------------------------- #
def layered_docrank_with_schemes(docgraph: DocGraph,
                                 local_scheme: LocalRankScheme,
                                 site_scheme: SiteRankScheme,
                                 ) -> WebRankingResult:
    """Compose arbitrary local and site schemes via the Theorem-2 product.

    With :class:`PageRankLocalScheme` and :class:`PageRankSiteScheme` this
    reproduces :func:`repro.web.pipeline.layered_docrank` exactly (a test
    checks that), and any other combination instantiates the paper's "whole
    class of ranking methods".
    """
    if docgraph.n_documents == 0:
        raise GraphStructureError("cannot rank an empty DocGraph")
    sitegraph = aggregate_sitegraph(docgraph)
    site_weights = site_scheme.rank(sitegraph)
    if site_weights.size != sitegraph.n_sites:
        raise GraphStructureError(
            f"site scheme {site_scheme.name!r} returned "
            f"{site_weights.size} weights for {sitegraph.n_sites} sites")

    doc_ids: List[int] = []
    blocks: List[np.ndarray] = []
    for site_index, site in enumerate(sitegraph.sites):
        members = docgraph.documents_of_site(site)
        local = local_scheme.rank(docgraph, site)
        if local.size != len(members):
            raise GraphStructureError(
                f"local scheme {local_scheme.name!r} returned {local.size} "
                f"weights for site {site!r} with {len(members)} documents")
        doc_ids.extend(members)
        blocks.append(site_weights[site_index] * local)
    scores = normalize_distribution(np.concatenate(blocks),
                                    name="scheme-composed DocRank")
    all_urls = docgraph.registry.urls
    urls = [all_urls[doc_id] for doc_id in doc_ids]
    return WebRankingResult(
        doc_ids=doc_ids, urls=urls, scores=scores,
        method=f"layered[{local_scheme.name}+{site_scheme.name}]")


def default_scheme_catalog() -> Dict[str, tuple]:
    """A named catalogue of (local scheme, site scheme) pairs for ablations."""
    return {
        "paper (PageRank + SiteRank)": (PageRankLocalScheme(),
                                        PageRankSiteScheme()),
        "HITS locals + SiteRank": (HITSLocalScheme(), PageRankSiteScheme()),
        "in-degree locals + SiteRank": (InDegreeLocalScheme(),
                                        PageRankSiteScheme()),
        "PageRank locals + site in-degree": (PageRankLocalScheme(),
                                             InDegreeSiteScheme()),
        "PageRank locals + site size": (PageRankLocalScheme(),
                                        SizeSiteScheme()),
        "uniform locals + SiteRank": (UniformLocalScheme(),
                                      PageRankSiteScheme()),
    }
