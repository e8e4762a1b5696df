"""Reference implementations the array-native retrieval path is tested against.

These are the scalar definitions :mod:`repro.ir.vector_space` and
:mod:`repro.ir.combined` implemented before they went array-native: a
pure-Python scan that scores every document from per-document term
dicts, and a combination that builds every candidate's scores from
Python lists and fully sorts them.  Kept here, outside ``src/``, as the
oracle of ``test_retrieval_properties.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.ir import DEFAULT_STOPWORDS, SearchHit, tokenize, \
    validate_combination


@dataclass
class ScanIndex:
    """Per-document term-frequency dicts, scored one document at a time."""

    doc_ids: List[int]
    term_frequencies: List[Dict[str, float]]
    document_frequencies: Dict[str, int] = field(default_factory=dict)
    norms: List[float] = field(default_factory=list)

    @classmethod
    def from_corpus(cls, corpus: Dict[int, str], *,
                    stopwords=DEFAULT_STOPWORDS) -> "ScanIndex":
        """Index a ``{doc_id: text}`` corpus."""
        if not corpus:
            raise ValidationError("corpus must not be empty")
        doc_ids = sorted(corpus)
        term_frequencies: List[Dict[str, float]] = []
        document_frequencies: Dict[str, int] = {}
        for doc_id in doc_ids:
            counts: Dict[str, float] = {}
            for token in tokenize(corpus[doc_id], stopwords=stopwords):
                counts[token] = counts.get(token, 0.0) + 1.0
            term_frequencies.append(counts)
            for term in counts:
                document_frequencies[term] = document_frequencies.get(term, 0) + 1
        index = cls(doc_ids=doc_ids, term_frequencies=term_frequencies,
                    document_frequencies=document_frequencies)
        index._compute_norms()
        return index

    # ------------------------------------------------------------------ #
    @property
    def n_documents(self) -> int:
        """Number of indexed documents."""
        return len(self.doc_ids)

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency of a term."""
        df = self.document_frequencies.get(term, 0)
        return math.log((1.0 + self.n_documents) / (1.0 + df)) + 1.0

    def _tfidf_weight(self, doc_index: int, term: str) -> float:
        tf = self.term_frequencies[doc_index].get(term, 0.0)
        if tf == 0.0:
            return 0.0
        return (1.0 + math.log(tf)) * self.idf(term)

    def _compute_norms(self) -> None:
        self.norms = []
        for doc_index in range(self.n_documents):
            total = sum(self._tfidf_weight(doc_index, term) ** 2
                        for term in self.term_frequencies[doc_index])
            self.norms.append(math.sqrt(total))

    # ------------------------------------------------------------------ #
    def score(self, query: str, doc_id: int, *,
              stopwords=DEFAULT_STOPWORDS) -> float:
        """Cosine similarity between *query* and one document."""
        try:
            doc_index = self.doc_ids.index(doc_id)
        except ValueError:
            raise ValidationError(f"unknown document id {doc_id}") from None
        return self._score_index(tokenize(query, stopwords=stopwords),
                                 doc_index)

    def _score_index(self, query_tokens: Sequence[str], doc_index: int) -> float:
        if not query_tokens:
            return 0.0
        query_counts: Dict[str, float] = {}
        for token in query_tokens:
            query_counts[token] = query_counts.get(token, 0.0) + 1.0
        query_weights = {term: (1.0 + math.log(count)) * self.idf(term)
                         for term, count in query_counts.items()}
        query_norm = math.sqrt(sum(weight ** 2
                                   for weight in query_weights.values()))
        if query_norm == 0.0 or self.norms[doc_index] == 0.0:
            return 0.0
        dot = sum(weight * self._tfidf_weight(doc_index, term)
                  for term, weight in query_weights.items())
        return dot / (query_norm * self.norms[doc_index])

    def search(self, query: str, *, k: Optional[int] = None,
               stopwords=DEFAULT_STOPWORDS) -> List[tuple[int, float]]:
        """Rank all documents against *query*; return ``(doc_id, score)`` pairs.

        Documents with zero similarity are omitted.  When *k* is given only
        the best *k* results are returned.
        """
        tokens = tokenize(query, stopwords=stopwords)
        results = []
        for doc_index, doc_id in enumerate(self.doc_ids):
            similarity = self._score_index(tokens, doc_index)
            if similarity > 0.0:
                results.append((doc_id, similarity))
        results.sort(key=lambda pair: (-pair[1], pair[0]))
        if k is not None:
            if k < 0:
                raise ValidationError("k must be non-negative")
            results = results[:k]
        return results


def _minmax_normalize(values: np.ndarray) -> np.ndarray:
    low, high = float(values.min()), float(values.max())
    if high <= low:
        return np.zeros_like(values)
    return (values - low) / (high - low)


def combine_reference(candidates: Sequence[Tuple[int, float]],
                      link_scores_by_doc: Dict[int, float] | np.ndarray, *,
                      rule: str = "linear", weight: float = 0.5, k: int = 10,
                      rrf_constant: float = 60.0) -> List[SearchHit]:
    """Full-sort combination of ``(doc_id, query_score)`` pairs."""
    validate_combination(weight, k)
    if not candidates:
        return []

    def link_score_of(doc_id: int) -> float:
        if isinstance(link_scores_by_doc, dict):
            return float(link_scores_by_doc.get(doc_id, 0.0))
        scores = np.asarray(link_scores_by_doc, dtype=float)
        return float(scores[doc_id]) if 0 <= doc_id < scores.size else 0.0

    doc_ids = [doc_id for doc_id, _score in candidates]
    query_scores = np.asarray([score for _doc, score in candidates],
                              dtype=float)
    link_scores = np.asarray([link_score_of(doc_id) for doc_id in doc_ids],
                             dtype=float)

    if rule == "linear":
        combined = (weight * _minmax_normalize(query_scores)
                    + (1.0 - weight) * _minmax_normalize(link_scores))
    elif rule == "rrf":
        # Ranks tie-break by ascending doc id (not candidate position), so
        # the fusion is deterministic and invariant to candidate order.
        ids = np.asarray(doc_ids)
        query_order = np.lexsort((ids, -query_scores))
        link_order = np.lexsort((ids, -link_scores))
        query_rank = np.empty(len(doc_ids))
        link_rank = np.empty(len(doc_ids))
        query_rank[query_order] = np.arange(1, len(doc_ids) + 1)
        link_rank[link_order] = np.arange(1, len(doc_ids) + 1)
        combined = (1.0 / (rrf_constant + query_rank)
                    + 1.0 / (rrf_constant + link_rank))
    else:
        raise ValidationError(f"unknown combination rule {rule!r}")

    order = np.lexsort((np.asarray(doc_ids), -combined))
    hits = []
    for position in order[:k]:
        position = int(position)
        hits.append(SearchHit(doc_id=doc_ids[position],
                              combined_score=float(combined[position]),
                              query_score=float(query_scores[position]),
                              link_score=float(link_scores[position])))
    return hits
