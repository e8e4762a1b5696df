"""Personalised layered rankings (Sections 1.3, 2.1 and 3.2 of the paper).

The LMM admits personalisation *at both layers*:

* at the **document layer**, each phase's local ranking can be computed with
  a personalised preference vector instead of the uniform one — this changes
  the gatekeeper vector ``π^I_G`` of that phase only;
* at the **site layer**, the phase weights can be computed with a
  personalised preference over phases (Approach 3 flavour) or the phase
  matrix itself can encode the user's site preferences.

:class:`PersonalizationProfile` carries the user's preferences;
:func:`personalized_layered_ranking` runs the Layered Method with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional

import numpy as np

from .._validation import normalize_distribution
from ..exceptions import ValidationError
from ..linalg.power_iteration import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    stationary_distribution,
)
from ..markov.irreducibility import DEFAULT_DAMPING, maximal_irreducibility
from ..pagerank.pagerank import pagerank_from_stochastic
from .gatekeeper import GatekeeperVectors
from .layered_method import LayeredRankingResult, _compose
from .lmm import LayeredMarkovModel


@dataclass
class PersonalizationProfile:
    """A user's ranking preferences for a layered model.

    Attributes
    ----------
    phase_preferences:
        Mapping from phase name to a non-negative preference weight.  Phases
        not mentioned receive the *background* weight.  Empty mapping means
        "no site-layer personalisation".
    sub_state_preferences:
        Mapping from phase name to a per-sub-state weight vector (length
        ``n_I``).  Phases not mentioned use the phase's own initial
        distribution.  Empty mapping means "no document-layer
        personalisation".
    background:
        Weight given to unmentioned phases in the site-layer preference.
    """

    phase_preferences: Dict[Hashable, float] = field(default_factory=dict)
    sub_state_preferences: Dict[Hashable, np.ndarray] = field(
        default_factory=dict)
    background: float = 0.0

    def phase_preference_vector(self, model: LayeredMarkovModel) -> Optional[np.ndarray]:
        """Build the site-layer preference distribution (or ``None`` if unused)."""
        if not self.phase_preferences:
            return None
        vector = np.full(model.n_phases, float(self.background))
        for name, weight in self.phase_preferences.items():
            if weight < 0:
                raise ValidationError("phase preferences must be non-negative")
            vector[model.phase_index(name)] += float(weight)
        return normalize_distribution(vector, name="phase preference")

    def sub_state_preference_vector(self, model: LayeredMarkovModel,
                                    phase_index: int) -> Optional[np.ndarray]:
        """Preference vector for one phase's documents (or ``None`` if unused)."""
        phase = model.phases[phase_index]
        if phase.name not in self.sub_state_preferences:
            return None
        vector = np.asarray(self.sub_state_preferences[phase.name],
                            dtype=float)
        if vector.size != phase.n_sub_states:
            raise ValidationError(
                f"preference for phase {phase.name!r} has length "
                f"{vector.size}, expected {phase.n_sub_states}")
        if vector.min() < 0:
            raise ValidationError("sub-state preferences must be non-negative")
        return normalize_distribution(
            vector, name=f"sub-state preference of phase {phase.name!r}")


def personalized_gatekeeper_vectors(model: LayeredMarkovModel,
                                    profile: PersonalizationProfile,
                                    alpha: float = DEFAULT_DAMPING, *,
                                    tol: float = DEFAULT_TOL,
                                    max_iter: int = DEFAULT_MAX_ITER,
                                    ) -> GatekeeperVectors:
    """Document-layer personalisation: per-phase rankings with preference vectors.

    Each phase named in the profile is ranked with its personalised
    preference; other phases keep their default (initial-distribution)
    preference — exactly the "different personalized vectors in the function
    body of M̂(G_d^s)" of the paper's Step 3.
    """
    vectors = []
    iterations = []
    for phase_index, phase in enumerate(model.phases):
        preference = profile.sub_state_preference_vector(model, phase_index)
        if preference is None:
            preference = phase.initial
        result = pagerank_from_stochastic(phase.transition, alpha, preference,
                                          tol=tol, max_iter=max_iter)
        vectors.append(result.scores)
        iterations.append(result.iterations)
    return GatekeeperVectors(vectors=vectors, method="maximal", alpha=alpha,
                             iterations=iterations)


def personalized_phase_weights(model: LayeredMarkovModel,
                               profile: PersonalizationProfile,
                               damping: float = DEFAULT_DAMPING, *,
                               tol: float = DEFAULT_TOL,
                               max_iter: int = DEFAULT_MAX_ITER,
                               ) -> tuple[np.ndarray, int]:
    """Site-layer personalisation: phase weights with a preference over phases.

    When the profile provides phase preferences the weights are the
    personalised PageRank of ``Y`` (the preference enters through the
    maximal-irreducibility teleportation term); otherwise the plain
    stationary distribution of ``Y`` is used, matching Approach 4.
    Returns the weight vector and the iterations used.
    """
    preference = profile.phase_preference_vector(model)
    if preference is None:
        result = stationary_distribution(model.phase_transition,
                                         start=model.phase_initial,
                                         tol=tol, max_iter=max_iter)
        return result.vector, result.iterations
    adjusted = maximal_irreducibility(model.phase_transition, damping,
                                      preference)
    result = stationary_distribution(adjusted, tol=tol, max_iter=max_iter)
    return result.vector, result.iterations


def personalized_layered_ranking(model: LayeredMarkovModel,
                                 profile: PersonalizationProfile,
                                 alpha: float = DEFAULT_DAMPING, *,
                                 damping: Optional[float] = None,
                                 tol: float = DEFAULT_TOL,
                                 max_iter: int = DEFAULT_MAX_ITER,
                                 ) -> LayeredRankingResult:
    """Run the Layered Method with personalisation at either or both layers.

    Parameters
    ----------
    alpha:
        Adjustable factor for the local (document-layer) rankings.
    damping:
        Damping factor for the site-layer personalised PageRank (defaults to
        *alpha*); only used when the profile personalises the site layer.
    """
    if damping is None:
        damping = alpha
    gatekeepers = personalized_gatekeeper_vectors(model, profile, alpha,
                                                  tol=tol, max_iter=max_iter)
    weights, phase_iterations = personalized_phase_weights(
        model, profile, damping, tol=tol, max_iter=max_iter)
    return _compose(model, weights, gatekeepers, "personalized-layered",
                    phase_iterations)
