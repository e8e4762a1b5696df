"""Tests for repro.distributed.peer."""

import numpy as np
import pytest

from repro.api import Ranker, RankingConfig
from repro.distributed import (
    AssignSitesMessage,
    ComputeLocalRankRequest,
    Peer,
    SiteRankAnnouncement,
    local_work_seconds,
)
from repro.engine.plan import solve_windows
from repro.exceptions import SimulationError
from repro.web import local_docrank

SITES = ("a.example.org", "c.example.org")


def assign(peer, sites=SITES):
    """Assign *sites* to *peer*; returns its SiteLink summary."""
    return peer.on_assignment(AssignSitesMessage(
        sender="coordinator", recipient=peer.name, sites=tuple(sites)))


def request(peer, site):
    return peer.on_request(ComputeLocalRankRequest(
        sender="coordinator", recipient=peer.name, site=site))


def solve(peer, sites=SITES):
    """Request every site of *peer*, run its step, return the results."""
    steps = [request(peer, site) for site in sites]
    assert steps[:-1] == [None] * (len(sites) - 1)
    return peer.on_solved(solve_windows([steps[-1]]).local)


@pytest.fixture
def peer(toy_docgraph):
    return Peer("peer-0", toy_docgraph)


@pytest.fixture
def summary(peer):
    return assign(peer)


class TestSiteLinkSummary:
    def test_only_own_sites_reported(self, summary):
        sources = {source for source, _target, _count in summary.counts}
        assert sources <= {"a.example.org", "c.example.org"}

    def test_counts_match_docgraph(self, summary):
        counts = {(s, t): c for s, t, c in summary.counts}
        assert counts[("a.example.org", "b.example.org")] == 1
        assert counts[("c.example.org", "a.example.org")] == 1

    def test_intra_site_links_excluded(self, summary):
        assert all(source != target for source, target, _ in summary.counts)

    def test_addressing(self, summary):
        assert summary.sender == "peer-0"
        assert summary.recipient == "coordinator"

    def test_unknown_site_refused(self, peer):
        with pytest.raises(SimulationError):
            assign(peer, ["nowhere.example.org"])


class TestLocalRankComputation:
    def test_matches_direct_local_docrank(self, peer, summary, toy_docgraph):
        """Bitwise the fit's DocRank (a site of its whole-web kind), and
        the direct power method's to rounding."""
        results = solve(peer)
        (result,) = [r for r in results if r.site == "a.example.org"]
        fit = Ranker(RankingConfig()).fit(toy_docgraph).ranking
        assert np.array_equal(result.scores_array(),
                              fit.local_docranks["a.example.org"].scores)
        direct = local_docrank(toy_docgraph, "a.example.org")
        assert np.allclose(result.scores_array(), direct.scores,
                           rtol=0.0, atol=1e-12)
        assert peer.work_seconds(result) > 0.0

    def test_result_cached_on_peer(self, peer, summary):
        solve(peer)
        assert "a.example.org" in peer.local_results

    def test_step_waits_for_the_whole_assignment(self, peer, summary):
        assert request(peer, "a.example.org") is None
        assert request(peer, "c.example.org") is not None

    def test_refuses_foreign_site(self, peer, summary):
        with pytest.raises(SimulationError):
            request(peer, "b.example.org")

    def test_local_rank_message_round_trip(self, peer, summary):
        results = solve(peer)
        (message,) = [r for r in results if r.site == "c.example.org"]
        result = peer.local_results["c.example.org"]
        assert message.site == "c.example.org"
        assert list(message.doc_ids) == result.doc_ids
        assert np.allclose(message.scores_array(), result.scores)
        assert message.sender == "peer-0"
        assert message.recipient == "coordinator"

    def test_message_requires_prior_computation(self, peer, summary,
                                                toy_docgraph):
        other = Peer("peer-1", toy_docgraph)
        assign(other)
        ranks = solve_windows([[request(other, site) for site in SITES][-1]])
        with pytest.raises(SimulationError):
            peer.on_solved(ranks.local)


def announce(site_scores):
    return SiteRankAnnouncement(sender="coordinator", recipient="peer-0",
                                sites=tuple(site_scores),
                                scores=tuple(site_scores.values()))


class TestWeightedShard:
    def test_shard_weights_by_siterank(self, peer, summary):
        solve(peer)
        site_scores = {"a.example.org": 0.6, "c.example.org": 0.4,
                       "b.example.org": 0.0}
        shard = peer.on_announcement(announce(site_scores))
        scores = dict(zip(shard.doc_ids, shard.scores))
        local_a = peer.local_results["a.example.org"]
        for doc_id, local_score in zip(local_a.doc_ids, local_a.scores):
            assert scores[doc_id] == pytest.approx(0.6 * local_score)
        assert shard.recipient == "coordinator"

    def test_shard_requires_all_local_results(self, peer, summary):
        request(peer, "a.example.org")
        with pytest.raises(SimulationError):
            peer.on_announcement(announce({"a.example.org": 1.0,
                                           "c.example.org": 0.0}))

    def test_shard_requires_site_scores(self, peer, summary):
        solve(peer)
        with pytest.raises(SimulationError):
            peer.on_announcement(announce({"a.example.org": 1.0}))


class TestCostModel:
    def test_work_scales_with_all_factors(self):
        base = local_work_seconds(100, 500, 30)
        assert local_work_seconds(100, 500, 60) == pytest.approx(2 * base)
        assert local_work_seconds(100, 1100, 30) > base
        assert local_work_seconds(300, 500, 30) > base

    def test_zero_iterations_cost_nothing(self):
        assert local_work_seconds(100, 500, 0) == 0.0
