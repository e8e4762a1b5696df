"""Tests for repro.distributed.coordinator (the full protocol simulation)."""

import numpy as np
import pytest

from repro.api import Ranker, RankingConfig
from repro.distributed import (
    DistributedRankingCoordinator,
    NetworkParameters,
)
from repro.exceptions import SimulationError
from repro.web import DocGraph
from repro.web.pipeline import _layered_docrank as layered_docrank


def distributed_layered_docrank(graph, **options):
    """Warn-free spelling of the deprecated one-call convenience wrapper."""
    return DistributedRankingCoordinator(graph, **options).run()


class TestProtocolCorrectness:
    def test_flat_architecture_equals_centralized(self, small_synthetic_web):
        centralized = layered_docrank(small_synthetic_web)
        report = distributed_layered_docrank(small_synthetic_web, n_peers=4,
                                             architecture="flat")
        assert np.allclose(report.ranking.scores_by_doc_id(),
                           centralized.scores_by_doc_id(), atol=1e-9)

    def test_superpeer_architecture_equals_centralized(self, small_synthetic_web):
        centralized = layered_docrank(small_synthetic_web)
        report = distributed_layered_docrank(small_synthetic_web, n_peers=4,
                                             architecture="super-peer")
        assert np.allclose(report.ranking.scores_by_doc_id(),
                           centralized.scores_by_doc_id(), atol=1e-9)

    def test_result_independent_of_peer_count(self, small_synthetic_web):
        one = distributed_layered_docrank(small_synthetic_web, n_peers=1)
        many = distributed_layered_docrank(small_synthetic_web, n_peers=7)
        assert np.allclose(one.ranking.scores_by_doc_id(),
                           many.ranking.scores_by_doc_id(), atol=1e-10)

    def test_result_independent_of_partition_policy(self, small_synthetic_web):
        balanced = distributed_layered_docrank(small_synthetic_web, n_peers=3,
                                               partition_policy="balanced")
        round_robin = distributed_layered_docrank(small_synthetic_web,
                                                  n_peers=3,
                                                  partition_policy="round-robin")
        assert np.allclose(balanced.ranking.scores_by_doc_id(),
                           round_robin.ranking.scores_by_doc_id(), atol=1e-10)

    def test_one_peer_per_site_deployment(self, toy_docgraph):
        report = distributed_layered_docrank(toy_docgraph, n_peers=99,
                                             partition_policy="one-per-site")
        centralized = layered_docrank(toy_docgraph)
        assert report.n_peers == toy_docgraph.n_sites
        assert np.allclose(report.ranking.scores_by_doc_id(),
                           centralized.scores_by_doc_id(), atol=1e-9)

    def test_siterank_matches_centralized(self, toy_docgraph):
        report = distributed_layered_docrank(toy_docgraph, n_peers=2)
        centralized = layered_docrank(toy_docgraph)
        for site in toy_docgraph.sites():
            assert report.siterank.score_of(site) == pytest.approx(
                centralized.siterank.score_of(site), abs=1e-10)


class TestTrafficAccounting:
    def test_message_counts_positive_and_broken_down(self, toy_docgraph):
        report = distributed_layered_docrank(toy_docgraph, n_peers=2)
        assert report.message_count > 0
        assert report.total_bytes > 0
        assert sum(report.messages_by_type.values()) == report.message_count
        assert sum(report.bytes_by_type.values()) == report.total_bytes

    def test_flat_ships_raw_vectors_superpeer_ships_shards(self, toy_docgraph):
        flat = distributed_layered_docrank(toy_docgraph, n_peers=2,
                                           architecture="flat")
        superpeer = distributed_layered_docrank(toy_docgraph, n_peers=2,
                                                architecture="super-peer")
        assert "LocalRankResult" in flat.messages_by_type
        assert "AggregatedRankShard" not in flat.messages_by_type
        assert "AggregatedRankShard" in superpeer.messages_by_type
        assert "SiteRankAnnouncement" in superpeer.messages_by_type

    def test_superpeer_sends_fewer_result_messages(self, small_synthetic_web):
        """Flat sends one result message per *site*; super-peer sends one
        shard per *peer* — with fewer peers than sites that is fewer
        messages."""
        flat = distributed_layered_docrank(small_synthetic_web, n_peers=2,
                                           architecture="flat")
        superpeer = distributed_layered_docrank(small_synthetic_web, n_peers=2,
                                                architecture="super-peer")
        assert superpeer.messages_by_type["AggregatedRankShard"] < \
            flat.messages_by_type["LocalRankResult"]

    def test_makespan_reflects_parallelism(self, small_synthetic_web):
        """With more peers the same local work spreads out, so the simulated
        makespan must not grow (and normally shrinks)."""
        slow_network = NetworkParameters(latency_seconds=0.0,
                                         bandwidth_bytes_per_second=1e12)
        single = distributed_layered_docrank(small_synthetic_web, n_peers=1,
                                             network=slow_network)
        many = distributed_layered_docrank(small_synthetic_web, n_peers=8,
                                           network=slow_network)
        assert many.makespan_seconds <= single.makespan_seconds + 1e-9
        assert many.parallel_speedup >= single.parallel_speedup

    def test_serial_compute_time_independent_of_peer_count(self, toy_docgraph):
        one = distributed_layered_docrank(toy_docgraph, n_peers=1)
        three = distributed_layered_docrank(toy_docgraph, n_peers=3)
        assert one.serial_compute_seconds == pytest.approx(
            three.serial_compute_seconds, rel=1e-6)

    def test_per_peer_compute_seconds_reported(self, toy_docgraph):
        report = distributed_layered_docrank(toy_docgraph, n_peers=2)
        assert len(report.per_peer_compute_seconds) == report.n_peers
        assert all(seconds >= 0 for seconds
                   in report.per_peer_compute_seconds.values())


class TestEngineScheduling:
    """The coordinator executes the shared RankingPlan through the engine."""

    @pytest.mark.parametrize("architecture", ["flat", "super-peer"])
    def test_peers_rank_bitwise_as_the_fit(self, small_synthetic_web,
                                           architecture):
        """The peers run the fit's own step 3: how a peer's sites are
        batched changes no score."""
        fit = Ranker(RankingConfig()).fit(small_synthetic_web)
        coordinator = DistributedRankingCoordinator(
            small_synthetic_web, n_peers=3, architecture=architecture)
        report = coordinator.run()
        assert np.array_equal(report.ranking.scores, fit.scores)
        assert report.ranking.doc_ids == fit.doc_ids
        assert sorted(site for peer in coordinator.peers.values()
                      for site in peer.local_results) == \
            sorted(small_synthetic_web.sites())

    def test_report_carries_measured_wall_clock(self, toy_docgraph):
        report = distributed_layered_docrank(toy_docgraph, n_peers=2)
        assert report.measured_wall_seconds > 0.0
        assert report.executor_name == "serial"

    def test_timings_use_canonical_phase_keys(self, toy_docgraph):
        report = distributed_layered_docrank(toy_docgraph, n_peers=2)
        timings = report.timings
        # the measured engine batch shares the pipeline's phase name;
        # the modeled simulation times keep their own sim.* keys
        assert timings["plan.execute"] == report.measured_wall_seconds
        assert timings["sim.makespan"] == report.makespan_seconds
        assert timings["sim.serial_compute"] == report.serial_compute_seconds
        assert timings["sim.coordinator"] == report.coordinator_seconds

    def test_parallel_execution_matches_serial(self, small_synthetic_web):
        serial = distributed_layered_docrank(small_synthetic_web, n_peers=4)
        parallel = distributed_layered_docrank(small_synthetic_web, n_peers=4,
                                               n_jobs=2)
        assert parallel.executor_name == "process"
        assert np.array_equal(parallel.ranking.scores, serial.ranking.scores)
        # The simulated cost model is independent of the real backend.
        assert parallel.makespan_seconds == serial.makespan_seconds
        assert parallel.serial_compute_seconds == serial.serial_compute_seconds

    def test_adopted_results_feed_the_protocol_messages(self, toy_docgraph):
        coordinator = DistributedRankingCoordinator(toy_docgraph, n_peers=2)
        report = coordinator.run()
        for peer in coordinator.peers.values():
            for site in peer.sites:
                assert site in peer.local_results
        assert report.ranking.scores.sum() == pytest.approx(1.0)


class TestValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(SimulationError):
            DistributedRankingCoordinator(DocGraph())

    def test_unknown_architecture_rejected(self, toy_docgraph):
        with pytest.raises(SimulationError):
            DistributedRankingCoordinator(toy_docgraph,
                                          architecture="blockchain")
