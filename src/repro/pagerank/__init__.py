"""Link-analysis ranking baselines: PageRank, HITS, BlockRank, accelerations."""

from .blockrank import BlockRankResult, blockrank
from .extrapolation import AcceleratedPageRankResult, accelerated_pagerank
from .hits import HITSResult, hits
from .pagerank import PageRankResult, pagerank, pagerank_from_stochastic
from .personalized import (
    blend_preferences,
    personalized_pagerank,
    preference_from_nodes,
    preference_from_weights,
)

__all__ = [
    "BlockRankResult",
    "blockrank",
    "AcceleratedPageRankResult",
    "accelerated_pagerank",
    "HITSResult",
    "hits",
    "PageRankResult",
    "pagerank",
    "pagerank_from_stochastic",
    "blend_preferences",
    "personalized_pagerank",
    "preference_from_nodes",
    "preference_from_weights",
]
