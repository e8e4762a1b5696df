"""Small IR substrate: vector-space retrieval and query+link combination."""

from .combined import (
    CombinationRule,
    SearchHit,
    combine_arrays,
    combine_candidates,
    combined_search,
    validate_combination,
)
from .corpus import TOPIC_VOCABULARIES, synthesize_corpus
from .vector_space import DEFAULT_STOPWORDS, VectorSpaceIndex, tokenize

__all__ = [
    "CombinationRule",
    "SearchHit",
    "combine_arrays",
    "combine_candidates",
    "combined_search",
    "validate_combination",
    "TOPIC_VOCABULARIES",
    "synthesize_corpus",
    "DEFAULT_STOPWORDS",
    "VectorSpaceIndex",
    "tokenize",
]
