"""The paper's primary contribution: the Layered Markov Model and its rankings.

Public surface:

* :class:`LayeredMarkovModel`, :class:`Phase` — the model (Definition 1);
* :func:`example_lmm` — the paper's 12-state worked example;
* :func:`approach_1` … :func:`approach_4` / :func:`layered_ranking` — the
  four ranking approaches of Section 2.3;
* :func:`verify_partition_theorem` — numerical checks for Lemma 1/2 and
  Theorem 1/2;
* :class:`PersonalizationProfile`, :func:`personalized_layered_ranking` —
  personalisation at either layer;
* :mod:`repro.core.multilayer` — the >2-layer generalisation.
"""

from .gatekeeper import (
    GatekeeperVectors,
    augment_with_gatekeeper,
    gatekeeper_vector,
    gatekeeper_vectors,
)
from .global_matrix import (
    GlobalRankingResult,
    approach_1,
    approach_2,
    build_global_matrix,
)
from .layered_method import (
    LayeredRankingResult,
    all_approaches,
    approach_3,
    approach_4,
    layered_ranking,
)
from .lmm import GlobalState, LayeredMarkovModel, Phase, example_lmm, random_lmm
from .multilayer import (
    HierarchicalLeaf,
    HierarchicalNode,
    HierarchicalRankingResult,
    build_three_layer_model,
    hierarchical_ranking,
    lmm_to_hierarchical,
)
from .partition_theorem import (
    PartitionTheoremReport,
    check_lemma_1,
    check_lemma_2,
    check_theorem_1,
    verify_partition_theorem,
)
from .schemes import (
    HITSLocalScheme,
    InDegreeLocalScheme,
    InDegreeSiteScheme,
    LocalRankScheme,
    PageRankLocalScheme,
    PageRankSiteScheme,
    SiteRankScheme,
    SizeSiteScheme,
    UniformLocalScheme,
    UniformSiteScheme,
    default_scheme_catalog,
    layered_docrank_with_schemes,
)
from .personalization import (
    PersonalizationProfile,
    personalized_gatekeeper_vectors,
    personalized_layered_ranking,
    personalized_phase_weights,
)

__all__ = [
    "GatekeeperVectors",
    "augment_with_gatekeeper",
    "gatekeeper_vector",
    "gatekeeper_vectors",
    "GlobalRankingResult",
    "approach_1",
    "approach_2",
    "build_global_matrix",
    "LayeredRankingResult",
    "all_approaches",
    "approach_3",
    "approach_4",
    "layered_ranking",
    "GlobalState",
    "LayeredMarkovModel",
    "Phase",
    "example_lmm",
    "random_lmm",
    "HierarchicalLeaf",
    "HierarchicalNode",
    "HierarchicalRankingResult",
    "build_three_layer_model",
    "hierarchical_ranking",
    "lmm_to_hierarchical",
    "PartitionTheoremReport",
    "check_lemma_1",
    "check_lemma_2",
    "check_theorem_1",
    "verify_partition_theorem",
    "HITSLocalScheme",
    "InDegreeLocalScheme",
    "InDegreeSiteScheme",
    "LocalRankScheme",
    "PageRankLocalScheme",
    "PageRankSiteScheme",
    "SiteRankScheme",
    "SizeSiteScheme",
    "UniformLocalScheme",
    "UniformSiteScheme",
    "default_scheme_catalog",
    "layered_docrank_with_schemes",
    "PersonalizationProfile",
    "personalized_gatekeeper_vectors",
    "personalized_layered_ranking",
    "personalized_phase_weights",
]
