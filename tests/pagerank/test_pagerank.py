"""Tests for repro.pagerank.pagerank."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.linalg.stochastic import random_stochastic_matrix
from repro.pagerank import pagerank, pagerank_from_stochastic

#: A classic 4-page example: page 3 is dangling; pages 0 and 1 exchange
#: links; page 2 links to 0.
FOUR_PAGES = np.array([
    [0, 1, 1, 1],
    [1, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 0, 0, 0],
], dtype=float)


class TestPageRankBasics:
    def test_scores_form_distribution(self):
        result = pagerank(FOUR_PAGES)
        assert result.scores.sum() == pytest.approx(1.0)
        assert result.scores.min() > 0.0

    def test_deterministic_given_inputs(self):
        a = pagerank(FOUR_PAGES).scores
        b = pagerank(FOUR_PAGES).scores
        assert np.array_equal(a, b)

    def test_page_with_more_inlinks_ranks_higher(self):
        # Page 0 has in-links from 1 and 2 (and dangling mass); page 2 only
        # from 0.
        result = pagerank(FOUR_PAGES)
        assert result.score_of(0) > result.score_of(2)

    def test_symmetric_pages_get_equal_scores(self):
        ring = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        result = pagerank(ring)
        assert np.allclose(result.scores, 1.0 / 3.0, atol=1e-8)

    def test_matches_networkx_reference(self):
        import networkx as nx

        graph = nx.DiGraph()
        edges = [(0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (2, 0)]
        graph.add_edges_from(edges)
        graph.add_node(3)
        reference = nx.pagerank(graph, alpha=0.85, tol=1e-12, max_iter=500)
        ours = pagerank(FOUR_PAGES, damping=0.85, tol=1e-12)
        for node, value in reference.items():
            assert ours.score_of(node) == pytest.approx(value, abs=1e-6)

    def test_damping_zero_gives_uniform(self):
        result = pagerank(FOUR_PAGES, damping=0.0)
        assert np.allclose(result.scores, 0.25, atol=1e-9)

    def test_higher_damping_amplifies_link_structure(self):
        mild = pagerank(FOUR_PAGES, damping=0.5)
        strong = pagerank(FOUR_PAGES, damping=0.95)
        spread_mild = mild.scores.max() - mild.scores.min()
        spread_strong = strong.scores.max() - strong.scores.min()
        assert spread_strong > spread_mild

    def test_dense_and_sparse_methods_agree(self):
        dense = pagerank(FOUR_PAGES, method="dense", tol=1e-13)
        sparse = pagerank(sp.csr_matrix(FOUR_PAGES), method="sparse",
                          tol=1e-13)
        assert np.allclose(dense.scores, sparse.scores, atol=1e-8)

    def test_auto_method_selects_sparse_for_large_graphs(self):
        rng = np.random.default_rng(0)
        n = 2500
        rows = rng.integers(0, n, size=4 * n)
        cols = rng.integers(0, n, size=4 * n)
        adjacency = sp.coo_matrix((np.ones(4 * n), (rows, cols)),
                                  shape=(n, n)).tocsr()
        result = pagerank(adjacency, tol=1e-8)
        assert result.scores.size == n
        assert result.scores.sum() == pytest.approx(1.0)

    def test_single_page_graph(self):
        result = pagerank(np.array([[0.0]]))
        assert result.scores[0] == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            pagerank(np.ones((2, 3)))

    def test_rejects_bad_damping(self):
        with pytest.raises(ValidationError):
            pagerank(FOUR_PAGES, damping=-0.1)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValidationError):
            pagerank(FOUR_PAGES, method="quantum")

    def test_rejects_bad_preference_length(self):
        with pytest.raises(ValidationError):
            pagerank(FOUR_PAGES, preference=np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_non_finite_link_weight_is_rejected(self, bad, method):
        # Before: ``inf`` made page 0 dangling and a ranking came back;
        # NaN ran the whole budget and ended in a ConvergenceError.
        adjacency = FOUR_PAGES.copy()
        adjacency[0, 1] = bad
        with pytest.raises(ValidationError, match="non-negative and finite"):
            pagerank(sp.csr_matrix(adjacency), method=method)


class TestPageRankResultHelpers:
    def test_ranking_is_descending(self):
        result = pagerank(FOUR_PAGES)
        order = result.ranking()
        scores = result.scores[order]
        assert np.all(np.diff(scores) <= 1e-15)

    def test_top_k(self):
        result = pagerank(FOUR_PAGES)
        top2 = result.top_k(2)
        assert len(top2) == 2
        assert top2[0] == int(np.argmax(result.scores))

    def test_top_k_larger_than_n(self):
        result = pagerank(FOUR_PAGES)
        assert len(result.top_k(10)) == 4

    def test_ties_broken_by_index(self):
        ring = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        result = pagerank(ring)
        assert result.top_k(3) == [0, 1, 2]

    def test_iterations_and_residuals_recorded(self):
        result = pagerank(FOUR_PAGES)
        assert result.iterations == len(result.residuals)
        assert result.converged


class TestPageRankFromStochastic:
    def test_does_not_renormalise_rows(self, paper_lmm):
        """The paper's U2 matrix is already stochastic; its PageRank must be
        the printed pi2G vector, which only happens when no extra dangling
        normalisation is applied."""
        result = pagerank_from_stochastic(paper_lmm.phases[1].transition, 0.85)
        assert np.allclose(np.round(result.scores, 4),
                           [0.1191, 0.2691, 0.6117])

    def test_rejects_non_stochastic_matrix(self):
        with pytest.raises(ValidationError):
            pagerank_from_stochastic(FOUR_PAGES, 0.85)


class TestPageRankProperties:
    @given(seed=st.integers(0, 5000), n=st.integers(2, 15),
           damping=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_distribution_and_positivity(self, seed, n, damping):
        rng = np.random.default_rng(seed)
        adjacency = (rng.random((n, n)) < 0.3).astype(float)
        result = pagerank(adjacency, damping=damping, tol=1e-10)
        assert result.scores.sum() == pytest.approx(1.0, abs=1e-8)
        # Teleportation guarantees strictly positive scores for damping < 1.
        assert result.scores.min() > 0.0

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_stochastic_input_equivalence(self, seed):
        """pagerank(...) on an already-stochastic matrix equals
        pagerank_from_stochastic(...) because renormalising a stochastic
        matrix is a no-op."""
        matrix = random_stochastic_matrix(6, rng=np.random.default_rng(seed))
        a = pagerank(matrix, tol=1e-12).scores
        b = pagerank_from_stochastic(matrix, tol=1e-12).scores
        assert np.allclose(a, b, atol=1e-9)
