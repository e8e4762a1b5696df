"""Tests for repro.distributed.peer."""

import numpy as np
import pytest

from repro.distributed import Peer, local_work_seconds, summarize_sitelinks
from repro.engine import site_tasks_for
from repro.exceptions import SimulationError
from repro.web import local_docrank


@pytest.fixture
def peer(toy_docgraph):
    return Peer(name="peer-0", docgraph=toy_docgraph,
                sites=["a.example.org", "c.example.org"])


def summarize(peer):
    return summarize_sitelinks(peer.docgraph, peer.sites, sender=peer.name,
                               recipient="coordinator")


def engine_rank(peer, site):
    """Run *site*'s engine task and install the result on *peer*."""
    (task,) = site_tasks_for(peer.docgraph, sites=[site])
    result = task.run()
    return result, peer.adopt_local_rank(site, result, task.nnz)


class TestSiteLinkSummary:
    def test_only_own_sites_reported(self, peer, toy_docgraph):
        summary = summarize(peer)
        sources = {source for source, _target, _count in summary.counts}
        assert sources <= {"a.example.org", "c.example.org"}

    def test_counts_match_docgraph(self, peer):
        summary = summarize(peer)
        counts = {(s, t): c for s, t, c in summary.counts}
        assert counts[("a.example.org", "b.example.org")] == 1
        assert counts[("c.example.org", "a.example.org")] == 1

    def test_intra_site_links_excluded(self, peer):
        summary = summarize(peer)
        assert all(source != target for source, target, _ in summary.counts)

    def test_addressing(self, peer):
        summary = summarize(peer)
        assert summary.sender == "peer-0"
        assert summary.recipient == "coordinator"


class TestLocalRankComputation:
    def test_matches_direct_local_docrank(self, peer, toy_docgraph):
        result, seconds = engine_rank(peer, "a.example.org")
        direct = local_docrank(toy_docgraph, "a.example.org")
        assert np.array_equal(result.scores, direct.scores)
        assert seconds > 0.0

    def test_result_cached_on_peer(self, peer):
        engine_rank(peer, "a.example.org")
        assert "a.example.org" in peer.local_results

    def test_refuses_foreign_site(self, peer):
        with pytest.raises(SimulationError):
            engine_rank(peer, "b.example.org")

    def test_local_rank_message_round_trip(self, peer):
        result, _ = engine_rank(peer, "c.example.org")
        message = peer.local_rank_message("c.example.org", "coordinator")
        assert message.site == "c.example.org"
        assert list(message.doc_ids) == result.doc_ids
        assert np.allclose(message.scores_array(), result.scores)

    def test_message_requires_prior_computation(self, peer):
        with pytest.raises(SimulationError):
            peer.local_rank_message("a.example.org", "coordinator")


class TestWeightedShard:
    def test_shard_weights_by_siterank(self, peer):
        engine_rank(peer, "a.example.org")
        engine_rank(peer, "c.example.org")
        site_scores = {"a.example.org": 0.6, "c.example.org": 0.4,
                       "b.example.org": 0.0}
        shard = peer.weighted_shard(site_scores, "coordinator")
        scores = dict(zip(shard.doc_ids, shard.scores))
        local_a = peer.local_results["a.example.org"]
        for doc_id, local_score in zip(local_a.doc_ids, local_a.scores):
            assert scores[doc_id] == pytest.approx(0.6 * local_score)

    def test_shard_requires_all_local_results(self, peer):
        engine_rank(peer, "a.example.org")
        with pytest.raises(SimulationError):
            peer.weighted_shard({"a.example.org": 1.0, "c.example.org": 0.0},
                                "coordinator")

    def test_shard_requires_site_scores(self, peer):
        engine_rank(peer, "a.example.org")
        engine_rank(peer, "c.example.org")
        with pytest.raises(SimulationError):
            peer.weighted_shard({"a.example.org": 1.0}, "coordinator")


class TestCostModel:
    def test_work_scales_with_all_factors(self):
        base = local_work_seconds(100, 500, 30)
        assert local_work_seconds(100, 500, 60) == pytest.approx(2 * base)
        assert local_work_seconds(100, 1100, 30) > base
        assert local_work_seconds(300, 500, 30) > base

    def test_zero_iterations_cost_nothing(self):
        assert local_work_seconds(100, 500, 0) == 0.0
