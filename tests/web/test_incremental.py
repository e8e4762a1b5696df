"""Tests for repro.web.incremental (incremental layered ranking updates)."""

import numpy as np
import pytest

from repro.engine import ThreadedExecutor
from repro.exceptions import GraphStructureError, ValidationError
from repro.io import toy_web
from repro.web import DocGraph, aggregate_sitegraph, local_docrank, siterank

# White-box tests of this module use the implementation spellings, not the
# deprecated 1.x shims (the suite runs with DeprecationWarning-as-error).
from repro.web.incremental import IncrementalLayeredRanker
from repro.web.pipeline import _layered_docrank as layered_docrank


def assert_matches_full_recompute(ranker, graph):
    """The incremental ranking must equal ranking the graph from scratch."""
    full = layered_docrank(graph)
    incremental = ranker.ranking()
    assert np.allclose(incremental.scores_by_doc_id(),
                       full.scores_by_doc_id(), atol=1e-9)


class TestConstruction:
    def test_initial_ranking_matches_pipeline(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        assert_matches_full_recompute(ranker, graph)

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphStructureError):
            IncrementalLayeredRanker(DocGraph())

    def test_cached_accessors(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        assert ranker.siterank.scores.sum() == pytest.approx(1.0)
        assert ranker.local("a.example.org").n_documents == 5
        with pytest.raises(GraphStructureError):
            ranker.local("missing.org")


class TestIntraSiteUpdates:
    def test_intra_site_link_recomputes_only_that_site(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        report = ranker.add_link("http://a.example.org/about.html",
                                 "http://a.example.org/news.html")
        assert report.recomputed_sites == ["a.example.org"]
        assert not report.siterank_recomputed
        assert report.documents_recomputed == 5
        assert report.recompute_fraction == pytest.approx(0.5)
        assert_matches_full_recompute(ranker, graph)

    def test_intra_site_update_leaves_other_locals_untouched(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        before = ranker.local("c.example.org").scores.copy()
        ranker.add_link("http://a.example.org/about.html",
                        "http://a.example.org/contact.html")
        assert np.array_equal(before, ranker.local("c.example.org").scores)

    def test_new_document_in_existing_site(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        report = ranker.add_document("http://a.example.org/fresh.html")
        assert report.recomputed_sites == ["a.example.org"]
        assert not report.siterank_recomputed
        assert_matches_full_recompute(ranker, graph)


class TestInterSiteUpdates:
    def test_inter_site_link_recomputes_siterank_only(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        report = ranker.add_link("http://c.example.org/one.html",
                                 "http://b.example.org/")
        assert report.siterank_recomputed
        assert report.recomputed_sites == []          # no local subgraph changed
        assert report.documents_recomputed == 0
        assert_matches_full_recompute(ranker, graph)

    def test_inter_site_link_to_new_document(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        report = ranker.add_link("http://a.example.org/",
                                 "http://b.example.org/brand-new.html")
        assert "b.example.org" in report.recomputed_sites
        assert report.siterank_recomputed
        assert_matches_full_recompute(ranker, graph)

    def test_link_to_entirely_new_site(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        report = ranker.add_link("http://a.example.org/",
                                 "http://d.example.org/")
        assert "d.example.org" in report.recomputed_sites
        assert report.siterank_recomputed
        assert_matches_full_recompute(ranker, graph)

    def test_new_isolated_site_document(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        report = ranker.add_document("http://e.example.org/")
        assert report.recomputed_sites == ["e.example.org"]
        assert report.siterank_recomputed
        assert_matches_full_recompute(ranker, graph)


class TestRefreshAndSavings:
    def test_refresh_unknown_site_rejected(self):
        ranker = IncrementalLayeredRanker(toy_web())
        with pytest.raises(GraphStructureError):
            ranker.refresh(["nowhere.org"], intersite_changed=False)

    def test_refresh_rejects_a_bare_site_name(self):
        ranker = IncrementalLayeredRanker(toy_web())
        with pytest.raises(ValidationError, match="collection of site names"):
            ranker.refresh("a.example.org", intersite_changed=False)
        report = ranker.refresh(["a.example.org"], intersite_changed=False)
        assert report.recomputed_sites == ["a.example.org"]

    def test_external_mutation_plus_refresh(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        graph.add_link("http://c.example.org/two.html",
                       "http://c.example.org/one.html")
        ranker.refresh(["c.example.org"], intersite_changed=False)
        assert_matches_full_recompute(ranker, graph)

    def test_incremental_work_is_much_smaller_than_full_rebuild(self, small_campus):
        """On the campus web a single-site change recomputes a small
        fraction of the corpus — the practical pay-off of the
        decomposition."""
        graph = small_campus.docgraph
        ranker = IncrementalLayeredRanker(graph)
        site = "dept001.campus.edu"
        home = f"http://{site}/"
        report = ranker.add_link(home, f"http://{site}/page00001.html")
        assert report.recomputed_sites == [site]
        assert report.recompute_fraction < 0.2
        full = ranker.full_rebuild()
        assert full.documents_recomputed == graph.n_documents
        assert report.local_iterations < full.local_iterations

    def test_sequence_of_mixed_updates_stays_consistent(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        ranker.add_link("http://a.example.org/", "http://c.example.org/one.html")
        ranker.add_document("http://b.example.org/extra.html")
        ranker.add_link("http://b.example.org/extra.html",
                        "http://b.example.org/")
        ranker.add_link("http://c.example.org/", "http://c.example.org/two.html")
        assert_matches_full_recompute(ranker, graph)


class TestWarmStart:
    """Refreshes resume power iteration from the cached stationary vectors."""

    def test_local_refresh_beats_cold_start_iterations(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        report = ranker.add_link("http://a.example.org/about.html",
                                 "http://a.example.org/news.html")
        # A cold solver on the *same* mutated subgraph needs many more
        # iterations than the warm-started refresh did.
        cold = local_docrank(graph, "a.example.org")
        assert 0 < report.local_iterations < cold.iterations
        assert_matches_full_recompute(ranker, graph)

    def test_siterank_refresh_beats_cold_start_iterations(self, small_campus):
        # One extra inter-site link barely moves the SiteRank of a web with
        # hundreds of SiteLinks, so the warm start pays off.  (On a 3-site
        # toy graph the same change is a *large* relative perturbation and
        # warm starting legitimately cannot help.)
        graph = small_campus.docgraph
        ranker = IncrementalLayeredRanker(graph)
        report = ranker.add_link("http://dept001.campus.edu/page00002.html",
                                 "http://dept002.campus.edu/")
        cold = siterank(aggregate_sitegraph(graph))
        assert 0 < report.siterank_iterations < cold.iterations
        assert_matches_full_recompute(ranker, graph)

    def test_whole_graph_warm_refresh_beats_cold_rebuild(self, small_campus):
        graph = small_campus.docgraph
        ranker = IncrementalLayeredRanker(graph)
        cold = ranker.full_rebuild()
        warm = ranker.refresh(graph.sites(), intersite_changed=True)
        assert warm.local_iterations < cold.local_iterations
        assert warm.siterank_iterations < cold.siterank_iterations

    def test_full_rebuild_stays_cold(self):
        """full_rebuild is the honest from-scratch baseline: repeating it
        must cost the same iterations, never inherit cached vectors."""
        ranker = IncrementalLayeredRanker(toy_web())
        first = ranker.full_rebuild()
        second = ranker.full_rebuild()
        assert second.local_iterations == first.local_iterations
        assert second.siterank_iterations == first.siterank_iterations

    def test_warm_start_survives_document_growth(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        # Adding a page changes the site's dimension; the cached mass is
        # re-aligned by document id and the result must still be correct.
        ranker.add_document("http://a.example.org/fresh.html")
        ranker.add_link("http://a.example.org/fresh.html",
                        "http://a.example.org/news.html")
        assert_matches_full_recompute(ranker, graph)


class TestEngineIntegration:
    def test_parallel_ranker_matches_serial(self):
        serial = IncrementalLayeredRanker(toy_web())
        with ThreadedExecutor(2) as executor:
            parallel = IncrementalLayeredRanker(toy_web(), executor=executor)
            assert np.array_equal(serial.ranking().scores_by_doc_id(),
                                  parallel.ranking().scores_by_doc_id())
            serial.add_link("http://a.example.org/",
                            "http://c.example.org/one.html")
            parallel.add_link("http://a.example.org/",
                              "http://c.example.org/one.html")
            assert np.array_equal(serial.ranking().scores_by_doc_id(),
                                  parallel.ranking().scores_by_doc_id())

    def test_n_jobs_ranker_matches_serial(self):
        serial = IncrementalLayeredRanker(toy_web())
        with IncrementalLayeredRanker(toy_web(), n_jobs=2) as parallel:
            assert np.array_equal(serial.ranking().scores_by_doc_id(),
                                  parallel.ranking().scores_by_doc_id())

    def test_multi_site_refresh_is_one_batch(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        report = ranker.refresh(["a.example.org", "c.example.org"],
                                intersite_changed=True)
        assert report.recomputed_sites == ["a.example.org", "c.example.org"]
        assert report.siterank_recomputed
        assert_matches_full_recompute(ranker, graph)


class TestUpdateNotifications:
    def test_subscriber_sees_every_update_report(self):
        ranker = IncrementalLayeredRanker(toy_web())
        reports = []
        ranker.subscribe(reports.append)
        expected = ranker.add_link("http://a.example.org/",
                                   "http://a.example.org/two.html")
        assert reports == [expected]
        ranker.full_rebuild()
        assert len(reports) == 2
        assert reports[1].siterank_recomputed

    def test_listener_runs_after_state_is_consistent(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph)
        seen = []

        @ranker.subscribe
        def listener(report):
            # The cached factors must already reflect the update.
            seen.append(ranker.ranking().scores_by_doc_id())

        ranker.add_link("http://a.example.org/", "http://a.example.org/two.html")
        full = layered_docrank(graph)
        assert np.allclose(seen[0], full.scores_by_doc_id(), atol=1e-9)

    def test_unsubscribe_stops_notifications(self):
        ranker = IncrementalLayeredRanker(toy_web())
        reports = []
        ranker.subscribe(reports.append)
        ranker.unsubscribe(reports.append)
        ranker.add_document("http://a.example.org/fresh.html")
        assert reports == []

    def test_unsubscribe_unknown_listener_is_noop(self):
        ranker = IncrementalLayeredRanker(toy_web())
        ranker.unsubscribe(lambda report: None)

    def test_multiple_listeners_all_notified(self):
        ranker = IncrementalLayeredRanker(toy_web())
        first, second = [], []
        ranker.subscribe(first.append)
        ranker.subscribe(second.append)
        ranker.add_document("http://b.example.org/fresh.html")
        assert len(first) == len(second) == 1


#: Two segments over the toy web: site weights, document weights inside two
#: different sites, and a background share.
TOY_SEGMENTS = {
    "research": {"sites": {"a.example.org": 3.0},
                 "documents": {"http://a.example.org/research.html": 5.0},
                 "background": 0.1},
    "ring": {"sites": {"c.example.org": 1.0},
             "documents": {"http://c.example.org/one.html": 2.0,
                           "http://b.example.org/links.html": 1.0}},
}


def assert_segments_match_full_recompute(ranker, graph, personalization):
    full = layered_docrank(graph, personalization=personalization)
    incremental = ranker.ranking()
    assert incremental.segments == full.segments
    assert incremental.doc_ids == full.doc_ids
    assert np.allclose(incremental.segment_columns, full.segment_columns,
                       atol=1e-9)
    return full


class TestPersonalizedSegments:
    """IncrementalLayeredRanker(personalization=...): the K-column caches
    are repaired by the same refreshes as the base factors."""

    def mutate(self, ranker):
        ranker.add_link("http://a.example.org/about.html",
                        "http://a.example.org/news.html")      # intra-site
        ranker.add_link("http://c.example.org/one.html",
                        "http://b.example.org/")               # inter-site
        ranker.add_document("http://c.example.org/fresh.html")  # new document
        ranker.add_link("http://a.example.org/",
                        "http://d.example.org/")               # new site

    def test_initial_segment_columns_match_pipeline(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph, personalization=TOY_SEGMENTS)
        assert ranker.segments == ("research", "ring")
        assert_segments_match_full_recompute(ranker, graph, TOY_SEGMENTS)

    def test_mixed_updates_keep_segment_columns_consistent(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph, personalization=TOY_SEGMENTS)
        self.mutate(ranker)
        assert_segments_match_full_recompute(ranker, graph, TOY_SEGMENTS)
        assert_matches_full_recompute(ranker, graph)

    def test_warm_segment_refresh_beats_cold_rebuild(self, small_campus):
        graph = small_campus.docgraph
        site = "dept001.campus.edu"
        ranker = IncrementalLayeredRanker(graph, personalization={
            "dept": {"sites": {site: 4.0},
                     "documents": {f"http://{site}/": 3.0}},
            "flat": {"background": 1.0},
        })
        cold = ranker._rebuild_segments()
        warm = ranker.refresh(graph.sites(), intersite_changed=True)
        assert 0 < warm.segment_iterations < cold
        assert ranker.full_rebuild().segment_iterations == cold

    def test_segment_shard_columns_align_with_local_doc_ids(self):
        graph = toy_web()
        ranker = IncrementalLayeredRanker(graph, personalization=TOY_SEGMENTS)
        self.mutate(ranker)
        full = layered_docrank(graph, personalization=TOY_SEGMENTS)
        row_of = {doc_id: row for row, doc_id in enumerate(full.doc_ids)}
        for site in graph.sites():
            shard = ranker.segment_shard_columns(site)
            doc_ids = ranker.local(site).doc_ids
            assert list(doc_ids) == graph.documents_of_site(site)
            assert shard.shape == (len(doc_ids), 2)
            assert np.allclose(
                shard, full.segment_columns[[row_of[d] for d in doc_ids]],
                atol=1e-9)
        with pytest.raises(GraphStructureError):
            ranker.segment_shard_columns("missing.org")

    def test_segments_off_by_default(self):
        ranker = IncrementalLayeredRanker(toy_web())
        assert ranker.segments == ()
        assert ranker.segment_shard_columns("a.example.org") is None
        assert ranker.ranking().segment_columns is None
