"""Property tests: the batched solver path equals the per-site path.

The fused block-diagonal solver (:mod:`repro.linalg.block_solver`) and the
one-solver-per-site reference (``per_site_oracle``, the schedule the
distributed peers run) perform the same per-block update
through different floating-point orderings, so either result lies within
``tol·f/(1-f)`` of the true stationary vector.  Running both at a solver
tolerance of ``1e-13`` therefore bounds their disagreement well below the
``1e-12`` contract these tests (and benchmark E15) assert — with rankings
identical up to permutations of *exactly tied* documents, which carry no
ranking information (see :func:`repro.metrics.rankings_equivalent`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphgen import generate_synthetic_web
from repro.metrics import rankings_equivalent
from repro.web import DocGraph, all_local_docranks
from repro.web.incremental import IncrementalLayeredRanker
from repro.web.pipeline import _layered_docrank

from per_site_oracle import per_site_layered_docrank, per_site_local_docranks

#: Solver tolerance of the equality runs (see module docstring).
EQ_TOL = 1e-13

#: Score-agreement contract between the two paths.
ATOL = 1e-12


def assert_batched_equals_per_site(graph, **kwargs):
    per_site = per_site_local_docranks(graph, tol=EQ_TOL, **kwargs)
    batched = all_local_docranks(graph, tol=EQ_TOL, **kwargs)
    assert set(per_site) == set(batched)
    for site, reference in per_site.items():
        fused = batched[site]
        assert fused.doc_ids == reference.doc_ids
        assert np.allclose(fused.scores, reference.scores,
                           atol=ATOL, rtol=0.0)
        score_of = dict(zip(reference.doc_ids, reference.scores))
        k = min(10, reference.n_documents)
        assert rankings_equivalent(reference.top_k(k), fused.top_k(k),
                                   score_of, atol=ATOL)


#: Synthetic-web shapes: skewed and flat site-size distributions,
#: single-document sites (docs_per_site=1), hub-less / link-less sites
#: (intra_out_degree=0 produces dangling pages and whole dangling sites).
web_shapes = st.fixed_dictionaries({
    "n_sites": st.integers(2, 18),
    "docs_per_site": st.integers(1, 10),
    "intra_out_degree": st.integers(0, 4),
    "inter_site_links": st.integers(0, 50),
    "homepage_hub": st.booleans(),
    "site_size_exponent": st.sampled_from([1.2, 1.6, 2.4]),
    "seed": st.integers(0, 10_000),
})


class TestBatchedEquivalenceProperties:
    @given(shape=web_shapes)
    @settings(max_examples=25, deadline=None)
    def test_scores_and_rankings_match(self, shape):
        shape = dict(shape)
        docs_per_site = shape.pop("docs_per_site")
        graph = generate_synthetic_web(
            n_documents=shape["n_sites"] * docs_per_site, **shape)
        assert_batched_equals_per_site(graph)

    @given(seed=st.integers(0, 10_000), damping=st.sampled_from([0.5, 0.85,
                                                                 0.99]))
    @settings(max_examples=10, deadline=None)
    def test_non_default_damping(self, seed, damping):
        graph = generate_synthetic_web(n_sites=6, n_documents=60, seed=seed)
        assert_batched_equals_per_site(graph, damping=damping)


class TestBatchedEquivalenceEdgeCases:
    def test_all_single_document_sites(self):
        graph = generate_synthetic_web(n_sites=12, n_documents=12, seed=3)
        assert_batched_equals_per_site(graph)

    def test_dangling_sites_without_any_links(self):
        graph = DocGraph()
        for site in range(6):
            for page in range(3):
                graph.add_document(f"http://s{site}.org/p{page}.html")
        # One linked site so the SiteGraph is non-trivial.
        graph.add_link("http://s0.org/p0.html", "http://s1.org/p0.html")
        assert_batched_equals_per_site(graph)

    def test_pipeline_scores_match(self, small_synthetic_web):
        reference = per_site_layered_docrank(small_synthetic_web, tol=EQ_TOL)
        fused = _layered_docrank(small_synthetic_web, tol=EQ_TOL)
        assert np.allclose(reference.scores_by_doc_id(),
                           fused.scores_by_doc_id(), atol=ATOL, rtol=0.0)
        score_of = {doc_id: reference.score_of(doc_id)
                    for doc_id in reference.doc_ids}
        assert rankings_equivalent(reference.top_k(25), fused.top_k(25),
                                   score_of, atol=ATOL)

    def test_incremental_refresh_matches_per_site_ranker(self):
        graph = generate_synthetic_web(n_sites=8, n_documents=120, seed=9)
        with IncrementalLayeredRanker(graph, tol=EQ_TOL) as fused:
            fused.add_link("http://site000.example.org/",
                           "http://site001.example.org/")
            fused.refresh(graph.sites()[:4], intersite_changed=False)
            reference = per_site_layered_docrank(graph, tol=EQ_TOL)
            assert np.allclose(fused.ranking().scores_by_doc_id(),
                               reference.scores_by_doc_id(),
                               atol=ATOL, rtol=0.0)

    def test_per_site_preferences_flow_through_the_batch(self, toy_docgraph):
        doc_ids = toy_docgraph.documents_of_site("c.example.org")
        preference = np.zeros(len(doc_ids))
        preference[1] = 1.0
        assert_batched_equals_per_site(
            toy_docgraph, preferences={"c.example.org": preference})


class TestTopKPartition:
    """LocalDocRank.top_k's partition fast path equals the full lexsort."""

    def _reference_top_k(self, rank, k):
        order = np.lexsort((np.arange(rank.scores.size), -rank.scores))
        return [rank.doc_ids[int(i)] for i in order[:k]]

    @given(n=st.integers(1, 40), k=st.integers(0, 45),
           n_levels=st.integers(1, 5), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_lexsort_with_heavy_ties(self, n, k, n_levels, seed):
        from repro.web.docrank import LocalDocRank

        rng = np.random.default_rng(seed)
        # Few distinct score levels force ties across the partition cut.
        levels = rng.random(n_levels)
        scores = rng.choice(levels, size=n)
        scores = scores / scores.sum()
        doc_ids = list(rng.permutation(10 * n)[:n].astype(int))
        rank = LocalDocRank(site="s", doc_ids=doc_ids, scores=scores,
                            iterations=1)
        assert rank.top_k(k) == self._reference_top_k(rank, k)

    def test_exact_boundary_ties_break_by_position(self):
        from repro.web.docrank import LocalDocRank

        scores = np.array([0.4, 0.2, 0.2, 0.2])
        rank = LocalDocRank(site="s", doc_ids=[7, 5, 3, 1], scores=scores,
                            iterations=1)
        # Tied docs keep local-position order, exactly like the lexsort.
        assert rank.top_k(2) == [7, 5]
        assert rank.top_k(3) == [7, 5, 3]
