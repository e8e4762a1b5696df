"""Ranking lookups: ``top_k`` / ``top_k_urls`` / ``score_of`` / ``scores_by_doc_id``.

``top_k`` takes a non-negative integer ``k`` (not a bool) and selects the
k best with a partition plus a sort of the tie pool, in the order of a
full ``np.lexsort((positions, -scores))``; ``score_of`` takes an integer
id, so ``True`` or ``3.0`` no longer answer for documents 1 and 3 through
dict key equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Ranker, RankingConfig
from repro.exceptions import ValidationError
from repro.graphgen import generate_synthetic_web
from repro.web.docrank import LocalDocRank, best_positions
from repro.web.pipeline import WebRankingResult

BAD_K = [-1, -50, 2.5, 3.0, True, False, "3", None, np.float64(2.0)]
BAD_IDS = [True, False, 3.0, np.float64(1.0), "3", None, 1.5]


@pytest.fixture(scope="module")
def fitted():
    web = generate_synthetic_web(n_sites=5, n_documents=50, seed=7)
    return Ranker().fit(web)


def full_sort(scores: np.ndarray, k: int) -> list:
    """The reference order: every position sorted, then cut."""
    return np.lexsort((np.arange(scores.size), -scores))[:k].tolist()


class TestArguments:
    @pytest.mark.parametrize("k", BAD_K)
    def test_top_k_rejects_what_is_not_a_count(self, fitted, k):
        for lookup in (fitted.top_k, fitted.top_k_urls,
                       fitted.ranking.top_k, fitted.ranking.top_k_urls):
            with pytest.raises(ValidationError):
                lookup(k)

    def test_top_k_accepts_numpy_integers_and_oversized_k(self, fitted):
        ranking = fitted.ranking
        assert ranking.top_k(np.int64(3)) == ranking.top_k(3)
        assert len(ranking.top_k(10 ** 6)) == ranking.n_documents
        assert ranking.top_k(0) == [] and ranking.top_k_urls(0) == []

    @pytest.mark.parametrize("doc_id", BAD_IDS)
    def test_score_of_rejects_non_integer_ids(self, fitted, doc_id):
        ranking = fitted.ranking
        local = next(iter(ranking.local_docranks.values()))
        for lookup in (fitted.score_of, ranking.score_of, local.score_of):
            with pytest.raises(ValidationError):
                lookup(doc_id)

    def test_score_of_accepts_numpy_integers(self, fitted):
        ranking = fitted.ranking
        doc = ranking.doc_ids[5]
        assert ranking.score_of(np.int64(doc)) == ranking.score_of(doc)
        local = ranking.local_docranks[ranking.siterank.sites[0]]
        first = local.doc_ids[0]
        assert local.score_of(np.int32(first)) == local.score_of(first)


class TestSelection:
    def test_matches_the_full_sort_on_a_fit(self, fitted):
        ranking = fitted.ranking
        for k in (0, 1, 7, ranking.n_documents - 1, ranking.n_documents,
                  ranking.n_documents + 3):
            order = full_sort(ranking.scores, k)
            assert ranking.top_k(k) == [ranking.doc_ids[i] for i in order]
            assert ranking.top_k_urls(k) == [ranking.urls[i] for i in order]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 1.0, 3.0]),
                    min_size=1, max_size=30),
           st.integers(0, 35))
    def test_ties_and_signed_zeros_keep_the_full_sort_order(self, values, k):
        scores = np.array(values)
        assert best_positions(scores, k).tolist() == full_sort(scores, k)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 25), st.integers(0, 30), st.integers(0, 2 ** 16))
    def test_segments_select_like_the_full_sort(self, n, k, seed):
        rng = np.random.default_rng(seed)
        # Few distinct values, so ties straddle the cut.
        columns = rng.integers(0, 4, size=(n, 2)) / 4.0
        doc_ids = rng.permutation(n).tolist()
        ranking = WebRankingResult(
            doc_ids=doc_ids, urls=[f"u{d}" for d in doc_ids],
            scores=columns[:, 0].copy(), method="layered",
            segments=("a", "b"), segment_columns=columns)
        for segment, column in ((None, 0), ("a", 0), ("b", 1)):
            order = full_sort(columns[:, column], k)
            assert ranking.top_k(k, segment=segment) == \
                [doc_ids[i] for i in order]
            assert ranking.top_k_urls(k, segment=segment) == \
                [f"u{doc_ids[i]}" for i in order]

    def test_local_top_k_is_unchanged(self):
        local = LocalDocRank(site="s", doc_ids=[5, 6, 7, 8],
                             scores=np.array([0.25, 0.5, 0.0, 0.25]),
                             iterations=1)
        assert local.top_k(-1) == [] and local.top_k(0) == []
        assert local.top_k(2) == [6, 5]
        assert local.top_k(9) == [6, 5, 8, 7]


class TestScoresByDocId:
    def test_scatter_equals_the_per_document_loop(self, fitted):
        ranking = fitted.ranking
        expected = np.zeros(max(ranking.doc_ids) + 1)
        for position, doc_id in enumerate(ranking.doc_ids):
            expected[doc_id] = ranking.scores[position]
        assert np.array_equal(ranking.scores_by_doc_id(), expected)

    def test_a_flat_ranking_is_already_in_id_order(self):
        web = generate_synthetic_web(n_sites=3, n_documents=30, seed=2)
        flat = Ranker(RankingConfig(method="flat")).fit(web).ranking
        assert np.array_equal(flat.scores_by_doc_id(), flat.scores)

    def test_gaps_read_zero(self):
        ranking = WebRankingResult(doc_ids=[4, 1], urls=["a", "b"],
                                   scores=np.array([0.75, 0.25]),
                                   method="layered")
        assert ranking.scores_by_doc_id().tolist() == [0.0, 0.25, 0.0, 0.0,
                                                       0.75]
