"""Combining query-based and link-based rankings.

"Work of combining query-based ranking and link-based ranking will also be
carried out" — the paper's future work.  We provide the two standard
combination rules so the examples can show an end-to-end search over a
synthetic campus web:

* **linear** — ``score = λ · query_score + (1 − λ) · link_score`` after
  min-max normalising both components over the candidate set;
* **rank-fusion** (reciprocal rank fusion) — combine the two *orderings*
  rather than the scores, which is robust to their very different scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Sequence, Tuple

import numpy as np

from ..exceptions import ValidationError
from .vector_space import VectorSpaceIndex

CombinationRule = Literal["linear", "rrf"]


@dataclass
class SearchHit:
    """One result of a combined search.

    Attributes
    ----------
    doc_id:
        The document id.
    combined_score:
        The final score used for ordering.
    query_score:
        The raw vector-space similarity.
    link_score:
        The raw link-based (DocRank) score.
    """

    doc_id: int
    combined_score: float
    query_score: float
    link_score: float


def validate_combination(weight: float, k: int) -> None:
    """Validate combination parameters before any retrieval work is done.

    Shared by :func:`combined_search`, :func:`combine_arrays` and the
    serving layer (which must reject bad parameters before its cache
    lookup), so the accepted ranges live in exactly one place.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValidationError("weight must be in [0, 1]")
    if k <= 0:
        raise ValidationError("k must be positive")


def _minmax_normalize(values: np.ndarray) -> np.ndarray:
    low, high = float(values.min()), float(values.max())
    if high <= low:
        return np.zeros_like(values)
    return (values - low) / (high - low)


def combined_search(index: VectorSpaceIndex, query: str,
                    link_scores_by_doc: Dict[int, float] | np.ndarray, *,
                    rule: CombinationRule = "linear",
                    weight: float = 0.5,
                    k: int = 10,
                    rrf_constant: float = 60.0) -> List[SearchHit]:
    """Search with a query and re-rank candidates with link-based scores.

    Parameters
    ----------
    index:
        The vector-space index over the corpus.
    query:
        Free-text query.
    link_scores_by_doc:
        Link-based ranking scores indexed by document id (a dict or an array
        positionally indexed by id) — typically
        :meth:`repro.web.pipeline.WebRankingResult.scores_by_doc_id`.
    rule:
        ``"linear"`` or ``"rrf"``.
    weight:
        λ of the linear rule: 1.0 = pure text ranking, 0.0 = pure link
        ranking.
    k:
        Number of hits returned.
    rrf_constant:
        The usual damping constant of reciprocal rank fusion.
    """
    validate_combination(weight, k)
    doc_ids, query_scores = index.search_arrays(query)
    return combine_arrays(doc_ids, query_scores,
                          _link_scores_of(link_scores_by_doc, doc_ids),
                          rule=rule, weight=weight, k=k,
                          rrf_constant=rrf_constant)


def combine_candidates(candidates: Sequence[Tuple[int, float]],
                       link_scores_by_doc: Dict[int, float] | np.ndarray, *,
                       rule: CombinationRule = "linear",
                       weight: float = 0.5,
                       k: int = 10,
                       rrf_constant: float = 60.0) -> List[SearchHit]:
    """Combine an already-retrieved candidate set with link-based scores.

    *candidates* is a ``(doc_id, query_score)`` sequence as returned by
    :meth:`repro.ir.vector_space.VectorSpaceIndex.search`; callers that
    already hold arrays use :func:`combine_arrays` directly.
    """
    doc_ids = np.asarray([doc_id for doc_id, _score in candidates],
                         dtype=np.int64)
    query_scores = np.asarray([score for _doc, score in candidates],
                              dtype=float)
    return combine_arrays(doc_ids, query_scores,
                          _link_scores_of(link_scores_by_doc, doc_ids),
                          rule=rule, weight=weight, k=k,
                          rrf_constant=rrf_constant)


def _link_scores_of(link_scores_by_doc: Dict[int, float] | np.ndarray,
                    doc_ids: np.ndarray) -> np.ndarray:
    """Link score of every candidate; ids without one score 0."""
    if isinstance(link_scores_by_doc, dict):
        return np.asarray([link_scores_by_doc.get(doc_id, 0.0)
                           for doc_id in doc_ids.tolist()], dtype=float)
    scores = np.asarray(link_scores_by_doc, dtype=float)
    known = (doc_ids >= 0) & (doc_ids < scores.size)
    link_scores = np.zeros(doc_ids.size)
    link_scores[known] = scores[doc_ids[known]]
    return link_scores


def combine_arrays(doc_ids: np.ndarray, query_scores: np.ndarray,
                   link_scores: np.ndarray, *,
                   rule: CombinationRule = "linear",
                   weight: float = 0.5,
                   k: int = 10,
                   rrf_constant: float = 60.0) -> List[SearchHit]:
    """The combination core: three aligned candidate arrays in, top-k out.

    The result does not depend on the order the candidates arrive in:
    every tie is broken by ascending document id.
    """
    validate_combination(weight, k)
    n_candidates = doc_ids.size
    if not n_candidates:
        return []
    if rule == "linear":
        combined = (weight * _minmax_normalize(query_scores)
                    + (1.0 - weight) * _minmax_normalize(link_scores))
    elif rule == "rrf":
        ranks = np.arange(1, n_candidates + 1)
        query_rank = np.empty(n_candidates)
        link_rank = np.empty(n_candidates)
        query_rank[np.lexsort((doc_ids, -query_scores))] = ranks
        link_rank[np.lexsort((doc_ids, -link_scores))] = ranks
        combined = (1.0 / (rrf_constant + query_rank)
                    + 1.0 / (rrf_constant + link_rank))
    else:
        raise ValidationError(f"unknown combination rule {rule!r}")

    if n_candidates > k:
        # Exact top-k: everything at or above the k-th largest score, so
        # the final sort sees k candidates plus their ties, not all of them.
        threshold = np.partition(combined, n_candidates - k)[n_candidates - k]
        pool = np.flatnonzero(combined >= threshold)
    else:
        pool = np.arange(n_candidates)
    winners = pool[np.lexsort((doc_ids[pool], -combined[pool]))[:k]]
    return [SearchHit(doc_id=doc_id, combined_score=combined_score,
                      query_score=query_score, link_score=link_score)
            for doc_id, combined_score, query_score, link_score
            in zip(doc_ids[winners].tolist(), combined[winners].tolist(),
                   query_scores[winners].tolist(),
                   link_scores[winners].tolist())]
