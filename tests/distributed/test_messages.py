"""Tests for repro.distributed.messages."""

import numpy as np

from repro.distributed import (
    ComputeLocalRankRequest,
    LocalRankResult,
    MessageLog,
    SiteRankAnnouncement,
)
from repro.distributed.codec import encode_message


class TestMessageSizes:
    def test_header_always_included(self):
        message = ComputeLocalRankRequest(sender="c", recipient="p", site="")
        assert message.size_bytes == len(encode_message(message))

    def test_size_bytes_is_the_encoded_frame_size(self):
        message = LocalRankResult(sender="p", recipient="c", site="s",
                                  doc_ids=(1, 2, 3), scores=(0.2, 0.3, 0.5),
                                  iterations=4)
        assert message.size_bytes == len(encode_message(message))

    def test_local_rank_result_size_scales_with_payload(self):
        small = LocalRankResult(sender="p", recipient="c", site="s",
                                doc_ids=(1,), scores=(0.5,), iterations=3)
        large = LocalRankResult(sender="p", recipient="c", site="s",
                                doc_ids=tuple(range(100)),
                                scores=tuple([0.01] * 100), iterations=3)
        assert large.size_bytes > small.size_bytes
        # doc_ids travel as 8-byte integers and scores as 8-byte doubles;
        # only the buffer-count digits in the envelope vary besides them.
        assert large.size_bytes - small.size_bytes >= 99 * (8 + 8)

    def test_scores_array_helper(self):
        message = LocalRankResult(sender="p", recipient="c", site="s",
                                  doc_ids=(0, 1), scores=(0.25, 0.75),
                                  iterations=1)
        assert np.allclose(message.scores_array(), [0.25, 0.75])


class TestMessageLog:
    def test_counts_and_bytes(self):
        log = MessageLog()
        log.record(ComputeLocalRankRequest(sender="c", recipient="p",
                                           site="a.org"))
        log.record(LocalRankResult(sender="p", recipient="c", site="a.org",
                                   doc_ids=(0,), scores=(1.0,), iterations=2))
        assert log.count == 2
        assert log.total_bytes == sum(m.size_bytes for m in log.messages)

    def test_explicit_wire_bytes_override(self):
        log = MessageLog()
        message = ComputeLocalRankRequest(sender="c", recipient="p",
                                          site="a.org")
        log.record(message, wire_bytes=12345)
        assert log.total_bytes == 12345
        assert log.bytes_by_type() == {"ComputeLocalRankRequest": 12345}

    def test_breakdown_by_type(self):
        log = MessageLog()
        for _ in range(3):
            log.record(ComputeLocalRankRequest(sender="c", recipient="p",
                                               site="x"))
        log.record(SiteRankAnnouncement(sender="c", recipient="p"))
        counts = log.count_by_type()
        assert counts["ComputeLocalRankRequest"] == 3
        assert counts["SiteRankAnnouncement"] == 1
        bytes_by_type = log.bytes_by_type()
        assert set(bytes_by_type) == set(counts)
        assert all(value > 0 for value in bytes_by_type.values())

    def test_empty_log(self):
        log = MessageLog()
        assert log.count == 0
        assert log.total_bytes == 0
        assert log.count_by_type() == {}
