"""Tests for repro.pagerank.personalized."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.pagerank import (
    blend_preferences,
    pagerank,
    personalized_pagerank,
    preference_from_nodes,
    preference_from_weights,
)

CHAIN = np.array([
    [0, 1, 0, 0],
    [1, 0, 1, 0],
    [0, 1, 0, 1],
    [0, 0, 1, 0],
], dtype=float)


class TestPreferenceConstruction:
    def test_single_favoured_node(self):
        vector = preference_from_nodes(4, [2])
        assert vector[2] == pytest.approx(1.0)
        assert vector.sum() == pytest.approx(1.0)

    def test_multiple_favoured_nodes_share_mass(self):
        vector = preference_from_nodes(4, [0, 3])
        assert vector[0] == pytest.approx(0.5)
        assert vector[3] == pytest.approx(0.5)

    def test_background_mass(self):
        vector = preference_from_nodes(4, [0], weight=1.0, background=1.0)
        assert vector.sum() == pytest.approx(1.0)
        assert vector[0] > vector[1] > 0.0

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValidationError):
            preference_from_nodes(3, [5])

    def test_rejects_empty_without_background(self):
        with pytest.raises(ValidationError):
            preference_from_nodes(3, [])

    def test_weights_mapping(self):
        vector = preference_from_weights(3, {0: 3.0, 2: 1.0})
        assert vector[0] == pytest.approx(0.75)
        assert vector[2] == pytest.approx(0.25)

    def test_weights_rejects_negative(self):
        with pytest.raises(ValidationError):
            preference_from_weights(3, {0: -1.0})

    def test_blend_preferences_convexity(self):
        a = preference_from_nodes(3, [0])
        b = preference_from_nodes(3, [2])
        blended = blend_preferences([a, b], [0.25, 0.75])
        assert blended[0] == pytest.approx(0.25)
        assert blended[2] == pytest.approx(0.75)

    def test_blend_default_equal_weights(self):
        a = preference_from_nodes(2, [0])
        b = preference_from_nodes(2, [1])
        assert np.allclose(blend_preferences([a, b]), [0.5, 0.5])

    def test_blend_rejects_mismatched_coefficients(self):
        a = preference_from_nodes(2, [0])
        with pytest.raises(ValidationError):
            blend_preferences([a], [0.5, 0.5])

    def test_blend_rejects_empty(self):
        with pytest.raises(ValidationError):
            blend_preferences([])


class TestPersonalizedPageRank:
    def test_preference_shifts_mass_towards_favoured_node(self):
        uniform = pagerank(CHAIN)
        favoured = personalized_pagerank(CHAIN, preference_from_nodes(4, [3]))
        assert favoured.score_of(3) > uniform.score_of(3)

    def test_extreme_personalisation_concentrates_near_favoured_node(self):
        favoured = personalized_pagerank(CHAIN, preference_from_nodes(4, [0]),
                                         damping=0.2)
        assert int(np.argmax(favoured.scores)) in (0, 1)

    def test_still_a_distribution(self):
        result = personalized_pagerank(CHAIN, preference_from_nodes(4, [1]))
        assert result.scores.sum() == pytest.approx(1.0)

    def test_uniform_preference_equals_plain_pagerank(self):
        uniform_pref = np.full(4, 0.25)
        a = personalized_pagerank(CHAIN, uniform_pref, tol=1e-13).scores
        b = pagerank(CHAIN, tol=1e-13).scores
        assert np.allclose(a, b, atol=1e-9)

    def test_dangling_mass_follows_preference(self):
        dangling = np.array([[0, 1], [0, 0]], dtype=float)
        preference = np.array([1.0, 0.0])
        for method in ("sparse", "dense"):
            result = pagerank(dangling, 0.85, preference, method=method,
                              dangling="preference")
            assert result.score_of(0) > result.score_of(1)
            # The default policy spreads it uniformly, whatever the method.
            result = personalized_pagerank(dangling, preference,
                                           damping=0.85, method=method)
            assert result.score_of(0) < result.score_of(1)
