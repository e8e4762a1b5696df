"""A small vector-space retrieval model (TF-IDF + cosine similarity).

Section 3 of the paper frames the LMM ranking as the *link-structure* half
of a search engine: "search engines take into consideration both query-based
ranking (for example, distances between queries and documents based on the
Vector Space Model) and link-structure-based ranking".  Combining the two is
listed as future work.  This substrate provides the query-based half so the
combination can be exercised by the examples and by the combined-ranking
module (:mod:`repro.ir.combined`); it is deliberately classic TF-IDF, no
stemming or stop lists beyond a minimal default.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ValidationError

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")

#: Minimal English stop-word list; enough to keep the toy corpora sensible.
DEFAULT_STOPWORDS = frozenset({
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has",
    "he", "in", "is", "it", "its", "of", "on", "or", "that", "the", "to",
    "was", "were", "will", "with",
})


def tokenize(text: str, *, stopwords=DEFAULT_STOPWORDS) -> List[str]:
    """Lower-case, split on non-alphanumerics and drop stop words."""
    if text is None:
        raise ValidationError("text must not be None")
    tokens = _TOKEN_PATTERN.findall(text.lower())
    return [token for token in tokens if token not in stopwords]


def _idf(n_documents: int, document_frequency: int) -> float:
    """Smoothed inverse document frequency."""
    return math.log((1.0 + n_documents) / (1.0 + document_frequency)) + 1.0


def _per_distinct(values: np.ndarray, function) -> np.ndarray:
    """``function`` (a scalar ``math`` expression) mapped over an integer
    array, evaluated once per distinct value.

    ``np.log`` may differ from ``math.log`` in the last bit; going through
    the scalar keeps every weight on the definition the tests' oracle uses.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    table = np.asarray([function(value) for value in distinct.tolist()],
                       dtype=float)
    return table[inverse]


class VectorSpaceIndex:
    """A TF-IDF postings index over a corpus of documents keyed by id.

    Documents are *rows* (ascending document id).  The index is term-major
    CSR: the postings of term ``t`` are ``rows[indptr[t]:indptr[t + 1]]``
    (ascending) with the matching tf-idf ``weights``, so a query touches
    only the postings of its own terms.

    Build with :meth:`from_corpus`; query with :meth:`search` (pairs),
    :meth:`search_arrays` (arrays), :meth:`match` (unsorted, row-level) or
    :meth:`score` for a single document.
    """

    def __init__(self, doc_ids: np.ndarray, vocabulary: Dict[str, int],
                 indptr: np.ndarray, rows: np.ndarray, weights: np.ndarray,
                 idf: np.ndarray, norms: np.ndarray) -> None:
        #: Document id of every row, ascending (int64).
        self.doc_id_array = doc_ids
        self._vocabulary = vocabulary
        self._indptr = indptr
        self._rows = rows
        self._weights = weights
        self._idf = idf
        self._norms = norms

    @classmethod
    def from_corpus(cls, corpus: Dict[int, str], *,
                    stopwords=DEFAULT_STOPWORDS) -> "VectorSpaceIndex":
        """Index a ``{doc_id: text}`` corpus."""
        if not corpus:
            raise ValidationError("corpus must not be empty")
        doc_ids = sorted(corpus)
        n_documents = len(doc_ids)
        vocabulary: Dict[str, int] = {}
        token_terms: List[int] = []
        lengths: List[int] = []
        for doc_id in doc_ids:
            tokens = tokenize(corpus[doc_id], stopwords=stopwords)
            token_terms.extend([vocabulary.setdefault(token, len(vocabulary))
                                for token in tokens])
            lengths.append(len(tokens))
        # One sort of (term, row) keys yields the postings in CSR order
        # together with their term frequencies.
        keys = (np.asarray(token_terms, dtype=np.int64) * n_documents
                + np.repeat(np.arange(n_documents, dtype=np.int64), lengths))
        postings, term_frequencies = np.unique(keys, return_counts=True)
        terms = postings // n_documents
        rows = (postings % n_documents).astype(np.int32)
        document_frequencies = np.bincount(terms, minlength=len(vocabulary))
        indptr = np.concatenate(([0], np.cumsum(document_frequencies)))
        idf = _per_distinct(document_frequencies,
                            lambda df: _idf(n_documents, df))
        weights = _per_distinct(term_frequencies,
                                lambda tf: 1.0 + math.log(tf)) * idf[terms]
        norms = np.sqrt(np.bincount(rows, weights=weights * weights,
                                    minlength=n_documents))
        return cls(np.asarray(doc_ids, dtype=np.int64), vocabulary, indptr,
                   rows, weights, idf, norms)

    # ------------------------------------------------------------------ #
    @property
    def n_documents(self) -> int:
        """Number of indexed documents."""
        return int(self.doc_id_array.size)

    @property
    def doc_ids(self) -> List[int]:
        """The indexed document ids, ascending."""
        return self.doc_id_array.tolist()

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency of a term."""
        term_id = self._vocabulary.get(term)
        if term_id is None:
            return _idf(self.n_documents, 0)
        return float(self._idf[term_id])

    # ------------------------------------------------------------------ #
    def match(self, query: str, *, stopwords=DEFAULT_STOPWORDS
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows with non-zero cosine similarity to *query*, and the scores.

        Returns ``(rows, scores)`` in ascending row (= document id) order;
        this is the one scoring kernel every other query method wraps.
        """
        query_counts: Dict[str, int] = {}
        for token in tokenize(query, stopwords=stopwords):
            query_counts[token] = query_counts.get(token, 0) + 1
        # Unknown terms still weigh into the query norm.
        query_weights = [(term, (1.0 + math.log(count)) * self.idf(term))
                         for term, count in query_counts.items()]
        query_norm = math.sqrt(sum(weight ** 2
                                   for _term, weight in query_weights))
        dots = np.zeros(self.n_documents)
        # Accumulate in query-term order, as the scalar definition does.
        for term, weight in query_weights:
            term_id = self._vocabulary.get(term)
            if term_id is not None:
                postings = slice(self._indptr[term_id],
                                 self._indptr[term_id + 1])
                dots[self._rows[postings]] += weight * self._weights[postings]
        # Every weight is at least 1, so a row has a non-zero dot product
        # exactly when it holds one of the query's terms.
        rows = np.flatnonzero(dots)
        return rows, dots[rows] / (query_norm * self._norms[rows])

    def search_arrays(self, query: str, *, k: Optional[int] = None,
                      stopwords=DEFAULT_STOPWORDS
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Rank all documents against *query*; return ``(doc_ids, scores)``.

        Both arrays are sorted by ``(-score, doc_id)``.  Documents with
        zero similarity are omitted.  When *k* is given only the best *k*
        results are returned.
        """
        if k is not None and k < 0:
            raise ValidationError("k must be non-negative")
        rows, scores = self.match(query, stopwords=stopwords)
        # Rows ascend with document id, so a stable sort breaks score ties
        # by ascending id.
        order = np.argsort(-scores, kind="stable")[:k]
        return self.doc_id_array[rows[order]], scores[order]

    def search(self, query: str, *, k: Optional[int] = None,
               stopwords=DEFAULT_STOPWORDS) -> List[tuple[int, float]]:
        """:meth:`search_arrays` as a list of ``(doc_id, score)`` pairs."""
        doc_ids, scores = self.search_arrays(query, k=k, stopwords=stopwords)
        return list(zip(doc_ids.tolist(), scores.tolist()))

    def score(self, query: str, doc_id: int, *,
              stopwords=DEFAULT_STOPWORDS) -> float:
        """Cosine similarity between *query* and one document."""
        row = int(np.searchsorted(self.doc_id_array, doc_id))
        if row == self.n_documents or self.doc_id_array[row] != doc_id:
            raise ValidationError(f"unknown document id {doc_id}")
        rows, scores = self.match(query, stopwords=stopwords)
        position = int(np.searchsorted(rows, row))
        if position < rows.size and rows[position] == row:
            return float(scores[position])
        return 0.0
