"""SiteRank: ranking the web sites of a SiteGraph (Section 3.2, Step 4).

The SiteRank is the principal eigenvector of the primitive transition matrix
``M̂(G_S)`` derived from the SiteGraph — i.e. PageRank applied at site
granularity.  Its computation is "of a comparably low complexity" (the
SiteGraph has orders of magnitude fewer nodes than the DocGraph) and can be
performed centrally or shared among peers.  It runs the same matrix-free
sparse power iteration as a local DocRank, at every size: a SiteGraph has
a handful of SiteLinks per site, so no n × n matrix is ever built for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..exceptions import ValidationError
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..markov.irreducibility import DEFAULT_DAMPING
from ..pagerank.pagerank import pagerank
from .sitegraph import SiteGraph


@dataclass
class SiteRankResult:
    """SiteRank scores over the sites of a SiteGraph.

    Attributes
    ----------
    sites:
        Site identifiers, aligned with *scores*.
    scores:
        The SiteRank probability distribution ``π_S``.
    iterations:
        Power iterations used.
    damping:
        Damping factor of the underlying PageRank run.
    """

    sites: List[str]
    scores: np.ndarray
    iterations: int
    damping: float = DEFAULT_DAMPING
    _index: Dict[str, int] = field(init=False, repr=False,
                                   default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.sites) != self.scores.size:
            raise ValidationError("sites and scores must align")
        self._index = {site: i for i, site in enumerate(self.sites)}

    def score_of(self, site: str) -> float:
        """SiteRank value ``π_S(s)`` of one site."""
        try:
            return float(self.scores[self._index[site]])
        except KeyError:
            raise ValidationError(f"unknown site {site!r}") from None

    def as_dict(self) -> Dict[str, float]:
        """Mapping from site identifier to SiteRank value."""
        return {site: float(score)
                for site, score in zip(self.sites, self.scores)}

    def top_k(self, k: int) -> List[str]:
        """The ``k`` highest-ranked sites, best first."""
        order = np.lexsort((np.arange(self.scores.size), -self.scores))
        return [self.sites[int(i)] for i in order[:k]]


def siterank(sitegraph: SiteGraph, damping: float = DEFAULT_DAMPING, *,
             preference: Optional[np.ndarray] = None,
             tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER,
             start: Optional[np.ndarray] = None) -> SiteRankResult:
    """Compute the SiteRank of a SiteGraph.

    Parameters
    ----------
    sitegraph:
        The aggregated site-level graph; edge weights are SiteLink counts.
    damping:
        Damping factor of the underlying PageRank computation (``M̂(G_S)``
        is primitive for any damping < 1, as Theorem 2 requires).
    preference:
        Optional personalisation distribution over sites — this is exactly
        where site-layer personalisation (Section 3.2) plugs in.
    start:
        Optional warm-start distribution in site order (e.g. a previously
        converged SiteRank); uniform when omitted.
    """
    result = pagerank(sitegraph.adjacency, damping=damping,
                      preference=preference, tol=tol, max_iter=max_iter,
                      method="sparse", start=start, record_residuals=False)
    return SiteRankResult(sites=list(sitegraph.sites), scores=result.scores,
                          iterations=result.iterations, damping=damping)
