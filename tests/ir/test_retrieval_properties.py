"""Property tests: the array-native retrieval path against its scalar oracle.

:mod:`repro.ir.vector_space` scores a query over CSR postings and
:mod:`repro.ir.combined` picks the top-k by partition; ``scan_oracle.py``
(beside this file) keeps the per-document scan and the full-sort
combination they replaced.  Two invariants:

* **Retrieval**: same candidate set, scores within 1e-12 (document norms
  are summed in postings order instead of token order, so the last digits
  may differ), and the same ranking up to items whose oracle scores tie
  within that bound (:func:`repro.metrics.rankings_equivalent`).
* **Combination**: the arithmetic is elementwise-identical, so the top-k
  hits are *equal* — including exact ties, which both sides break by
  ascending document id — whatever order the candidates arrive in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.ir import VectorSpaceIndex, combine_arrays, combine_candidates
from repro.metrics import rankings_equivalent
from scan_oracle import ScanIndex, combine_reference

SCORE_ATOL = 1e-12

#: Indexed vocabulary, stop words (dropped by the tokenizer) and words no
#: document contains.
WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
STOPWORDS = ["the", "of", "and"]
UNKNOWN = ["omega", "psi"]

documents = st.lists(st.sampled_from(WORDS + STOPWORDS), max_size=12) \
    .map(" ".join)
#: Non-contiguous ids; empty and stop-word-only texts included.
corpora = st.dictionaries(st.integers(0, 5000), documents,
                          min_size=1, max_size=25)
queries = st.lists(st.sampled_from(WORDS + STOPWORDS + UNKNOWN),
                   max_size=8).map(" ".join)


@given(corpus=corpora, query=queries)
@settings(max_examples=200, deadline=None)
def test_index_matches_the_scan(corpus, query):
    index = VectorSpaceIndex.from_corpus(corpus)
    oracle = ScanIndex.from_corpus(corpus)
    assert index.n_documents == oracle.n_documents
    assert index.doc_ids == oracle.doc_ids
    for word in WORDS + UNKNOWN:
        assert index.idf(word) == oracle.idf(word)

    expected = oracle.search(query)
    expected_score = dict(expected)
    found = index.search(query)
    assert sorted(doc for doc, _ in found) == sorted(expected_score)
    for doc_id, score in found:
        assert score == pytest.approx(expected_score[doc_id], rel=0,
                                      abs=SCORE_ATOL)
    for doc_id in corpus:
        assert index.score(query, doc_id) == pytest.approx(
            oracle.score(query, doc_id), rel=0, abs=SCORE_ATOL)

    # k edge cases: nothing, one, exactly all, more than all.
    for k in (None, 0, 1, len(expected), len(expected) + 3):
        ranked = [doc for doc, _ in index.search(query, k=k)]
        assert rankings_equivalent(
            ranked, [doc for doc, _ in oracle.search(query, k=k)],
            expected_score, atol=SCORE_ATOL)

    doc_ids, scores = index.search_arrays(query)
    assert list(zip(doc_ids.tolist(), scores.tolist())) == found
    # Sorted by (-score, doc_id).
    assert found == sorted(found, key=lambda pair: (-pair[1], pair[0]))


@given(corpus=corpora, query=queries)
@settings(max_examples=50, deadline=None)
def test_match_is_the_unsorted_search(corpus, query):
    index = VectorSpaceIndex.from_corpus(corpus)
    rows, scores = index.match(query)
    assert np.all(np.diff(rows) > 0)
    assert sorted(zip(index.doc_id_array[rows].tolist(), scores.tolist())) \
        == sorted(index.search(query))


def test_unknown_document_and_negative_k_are_rejected():
    index = VectorSpaceIndex.from_corpus({3: "alpha beta", 9: "the of"})
    for unknown in (-1, 4, 10):
        with pytest.raises(ValidationError):
            index.score("alpha", unknown)
    with pytest.raises(ValidationError):
        index.search_arrays("alpha", k=-1)
    # A stop-word-only document is indexed but never retrieved.
    assert index.score("alpha", 9) == 0.0
    assert index.search("the of") == []


def test_stopword_only_corpus_retrieves_nothing():
    index = VectorSpaceIndex.from_corpus({1: "the of", 2: ""})
    assert index.n_documents == 2
    assert index.search("the alpha") == []
    assert index.score("alpha", 2) == 0.0


# Scores drawn from a handful of values, so exact ties are the rule.
tied_scores = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
candidate_sets = st.dictionaries(st.integers(0, 60),
                                 st.tuples(tied_scores, tied_scores),
                                 min_size=1, max_size=30)


@given(candidates=candidate_sets,
       rule=st.sampled_from(["linear", "rrf"]),
       weight=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
       k=st.integers(1, 35), seed=st.integers(0, 2 ** 16))
@settings(max_examples=300, deadline=None)
def test_combine_matches_the_full_sort(candidates, rule, weight, k, seed):
    doc_ids = np.asarray(sorted(candidates), dtype=np.int64)
    query_scores = np.asarray([candidates[doc][0] for doc in doc_ids.tolist()])
    link_scores = np.asarray([candidates[doc][1] for doc in doc_ids.tolist()])
    pairs = list(zip(doc_ids.tolist(), query_scores.tolist()))
    link_by_doc = dict(zip(doc_ids.tolist(), link_scores.tolist()))
    options = dict(rule=rule, weight=weight, k=k)

    expected = combine_reference(pairs, link_by_doc, **options)
    assert combine_arrays(doc_ids, query_scores, link_scores,
                          **options) == expected
    assert combine_candidates(pairs, link_by_doc, **options) == expected
    # Link scores as an array indexed by document id; ids beyond it score 0.
    dense = np.zeros(40)
    known = doc_ids[doc_ids < dense.size]
    dense[known] = [link_by_doc[doc] for doc in known.tolist()]
    assert combine_candidates(pairs, dense, **options) \
        == combine_reference(pairs, dense, **options)
    # Candidate order carries no information.
    shuffle = np.random.default_rng(seed).permutation(doc_ids.size)
    assert combine_arrays(doc_ids[shuffle], query_scores[shuffle],
                          link_scores[shuffle], **options) == expected
