"""Built-in ranking methods, registered as plugins.

Importing this module (which :mod:`repro.api` does eagerly) populates the
registry with the four methods the package ships:

* ``"layered"`` — the paper's 5-step Layered Method, scheduled through the
  execution engine; the facade's default and the only method that supports
  warm starts and parallel backends (its work decomposes per site);
* ``"flat"`` (alias ``"pagerank"``) — classical PageRank over the whole
  DocGraph, the paper's Figure 3 baseline;
* ``"blockrank"`` — Kamvar et al.'s BlockRank with sites as blocks, the
  closest prior work the paper contrasts against;
* ``"hits"`` — Kleinberg's HITS, ranking by authority scores.

Every method maps a ``(docgraph, config)`` pair to a
:class:`~repro.web.pipeline.WebRankingResult`; single-vector methods
(flat / blockrank / hits) have no decomposable work, so they ignore the
engine keywords and run on the calling thread.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..pagerank.blockrank import blockrank
from ..pagerank.hits import hits
from ..web.docgraph import DocGraph
from ..web.pipeline import (
    WebRankingResult,
    _flat_pagerank_ranking,
    _layered_docrank,
)
from .config import RankingConfig
from .registry import register_method


@register_method("layered")
def layered_method(docgraph: DocGraph, config: RankingConfig, *,
                   executor=None, n_jobs=None, warm=None,
                   site_preference: Optional[np.ndarray] = None,
                   document_preferences: Optional[Dict[str, np.ndarray]] = None,
                   ) -> WebRankingResult:
    """The 5-step Layered Method (the facade's default)."""
    return _layered_docrank(
        docgraph, config.damping,
        site_damping=config.site_damping,
        site_preference=site_preference,
        document_preferences=document_preferences,
        include_site_self_links=config.include_site_self_links,
        tol=config.tol, max_iter=config.max_iter,
        executor=executor, n_jobs=n_jobs, warm=warm,
        personalization=config.personalization)


@register_method("flat", aliases=("pagerank",), uses_engine=False)
def flat_method(docgraph: DocGraph, config: RankingConfig, *,
                executor=None, n_jobs=None, warm=None,
                preference: Optional[np.ndarray] = None) -> WebRankingResult:
    """Classical PageRank over the whole DocGraph (Figure 3 baseline)."""
    return _flat_pagerank_ranking(docgraph, config.damping,
                                  preference=preference, tol=config.tol,
                                  max_iter=config.max_iter)


@register_method("blockrank", uses_engine=False)
def blockrank_method(docgraph: DocGraph, config: RankingConfig, *,
                     executor=None, n_jobs=None, warm=None,
                     refine: bool = True) -> WebRankingResult:
    """BlockRank with web sites as blocks (the paper's closest prior work).

    *refine* runs step 5 (global refinement from the approximate vector);
    disable it to get the pure aggregate-of-local-ranks approximation the
    E12 ablation compares against the layered method.
    """
    result = blockrank(docgraph.adjacency(), docgraph.site_indices().tolist(),
                       damping=config.damping, tol=config.tol,
                       max_iter=config.max_iter, refine=refine)
    doc_ids = list(range(docgraph.n_documents))
    urls = docgraph.urls()
    return WebRankingResult(doc_ids=doc_ids, urls=urls,
                            scores=result.global_scores, method="blockrank",
                            iterations=result.refinement_iterations)


@register_method("hits", uses_engine=False)
def hits_method(docgraph: DocGraph, config: RankingConfig, *,
                executor=None, n_jobs=None, warm=None) -> WebRankingResult:
    """HITS over the whole DocGraph, ranking by authority scores.

    HITS has its own convergence behaviour (the mutual-reinforcement
    iteration may oscillate on degenerate graphs), so non-convergence
    within the configured ``max_iter`` budget degrades to the last
    iterate instead of raising.
    """
    result = hits(docgraph.adjacency(), tol=config.tol,
                  max_iter=config.max_iter,
                  raise_on_failure=False)
    doc_ids = list(range(docgraph.n_documents))
    urls = docgraph.urls()
    return WebRankingResult(doc_ids=doc_ids, urls=urls,
                            scores=result.authorities, method="hits",
                            iterations=result.iterations)
