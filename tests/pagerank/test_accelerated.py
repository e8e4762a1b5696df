"""Tests for the extrapolated PageRank variants (Aitken, quadratic)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.pagerank import accelerated_pagerank, pagerank

WEB = np.array([
    [0, 1, 1, 0, 0],
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 0],
    [0, 0, 1, 0, 1],
    [1, 0, 0, 0, 0],
], dtype=float)


class TestExtrapolatedPageRank:
    def test_aitken_matches_plain_pagerank(self):
        accelerated = accelerated_pagerank(WEB, scheme="aitken", tol=1e-12)
        plain = pagerank(WEB, tol=1e-12)
        assert np.allclose(accelerated.scores, plain.scores, atol=1e-6)

    def test_quadratic_matches_plain_pagerank(self):
        accelerated = accelerated_pagerank(WEB, scheme="quadratic", tol=1e-12)
        plain = pagerank(WEB, tol=1e-12)
        assert np.allclose(accelerated.scores, plain.scores, atol=1e-6)

    def test_scores_form_distribution(self):
        result = accelerated_pagerank(WEB)
        assert result.scores.sum() == pytest.approx(1.0)
        assert result.scores.min() > 0.0

    def test_extrapolations_counted(self):
        result = accelerated_pagerank(WEB, extrapolate_every=5, tol=1e-14)
        assert result.extrapolations_applied >= 1

    def test_does_not_need_more_iterations_than_plain(self):
        accelerated = accelerated_pagerank(WEB, damping=0.95,
                                           extrapolate_every=5, tol=1e-12)
        plain = pagerank(WEB, damping=0.95, method="sparse", tol=1e-12)
        assert accelerated.iterations <= plain.iterations + 5

    def test_top_k_helper(self):
        result = accelerated_pagerank(WEB)
        assert len(result.top_k(3)) == 3

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValidationError):
            accelerated_pagerank(WEB, scheme="cubic")

    def test_rejects_bad_extrapolation_interval(self):
        with pytest.raises(ValidationError):
            accelerated_pagerank(WEB, extrapolate_every=1)

    def test_personalised_preference_respected(self):
        preference = np.array([0.6, 0.1, 0.1, 0.1, 0.1])
        result = accelerated_pagerank(WEB, preference=preference, tol=1e-12)
        plain = pagerank(WEB, preference=preference, tol=1e-12)
        assert np.allclose(result.scores, plain.scores, atol=1e-6)
