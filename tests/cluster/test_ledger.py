"""Tests for the durable job ledger (crash-resumable coordinator rounds)."""

import json
import os

import numpy as np
import pytest

from repro.cluster.ledger import (
    LEDGER_VERSION,
    STATE_DONE,
    STATE_PENDING,
    JobLedger,
    score_digest,
)
from repro.exceptions import ProtocolError

SITES = ["a.example", "b.example", "c.example"]
PARAMS = {"damping": 0.85, "tol": 1e-10, "max_iter": 1000}
DIGEST = "feedc0ffee123456"


def open_ledger(path, **overrides):
    return JobLedger.open(path,
                          graph_digest=overrides.get("graph_digest", DIGEST),
                          params=overrides.get("params", PARAMS),
                          sites=overrides.get("sites", SITES))


class TestFreshLedger:
    def test_fresh_open_creates_the_file(self, tmp_path):
        path = tmp_path / "round.json"
        ledger = open_ledger(path)
        assert os.path.exists(path)
        assert ledger.pending_sites() == SITES
        assert ledger.done_sites() == []
        assert ledger.resumed_sites == []

    def test_in_memory_mode_touches_no_files(self, tmp_path):
        ledger = open_ledger(None)
        ledger.record_result("a.example", "peer-0000", [1, 2], (0.5, 0.5), 7)
        ledger.mark_complete()
        assert ledger.path is None
        assert list(tmp_path.iterdir()) == []

    def test_assignment_tracks_the_owner(self, tmp_path):
        ledger = open_ledger(tmp_path / "round.json")
        ledger.record_assignment(["a.example"], "peer-0001")
        assert ledger.owner_of("a.example") == "peer-0001"
        assert "a.example" in ledger.pending_sites()

    def test_unknown_site_rejected(self, tmp_path):
        ledger = open_ledger(tmp_path / "round.json")
        with pytest.raises(ProtocolError):
            ledger.record_assignment(["nope.example"], "peer-0000")


class TestResume:
    def test_resume_recovers_done_sites_bitwise(self, tmp_path):
        path = tmp_path / "round.json"
        first = open_ledger(path)
        scores = (0.25, 0.75)
        first.record_result("b.example", "peer-0000", [10, 11], scores, 42)

        resumed = open_ledger(path)
        assert resumed.resumed_sites == ["b.example"]
        assert resumed.pending_sites() == ["a.example", "c.example"]
        assert resumed.iterations_of("b.example") == 42
        doc_ids, vector = resumed.warm.local_vector("b.example")
        assert doc_ids == (10, 11)
        assert np.array_equal(vector, np.asarray(scores))

    def test_completed_round_starts_fresh(self, tmp_path):
        path = tmp_path / "round.json"
        first = open_ledger(path)
        first.record_result("a.example", "peer-0000", [1], (1.0,), 5)
        first.mark_complete()
        resumed = open_ledger(path)
        assert resumed.resumed_sites == []
        assert resumed.pending_sites() == SITES

    def test_parameter_mismatch_starts_fresh(self, tmp_path):
        path = tmp_path / "round.json"
        first = open_ledger(path)
        first.record_result("a.example", "peer-0000", [1], (1.0,), 5)
        resumed = open_ledger(path, params={**PARAMS, "damping": 0.9})
        assert resumed.resumed_sites == []

    def test_graph_digest_mismatch_starts_fresh(self, tmp_path):
        path = tmp_path / "round.json"
        first = open_ledger(path)
        first.record_result("a.example", "peer-0000", [1], (1.0,), 5)
        resumed = open_ledger(path, graph_digest="0000000000000000")
        assert resumed.resumed_sites == []

    def test_site_set_mismatch_starts_fresh(self, tmp_path):
        path = tmp_path / "round.json"
        first = open_ledger(path)
        first.record_result("a.example", "peer-0000", [1], (1.0,), 5)
        resumed = open_ledger(path, sites=SITES + ["d.example"])
        assert resumed.resumed_sites == []
        assert len(resumed.pending_sites()) == 4

    def test_torn_result_line_leaves_its_site_pending(self, tmp_path):
        path = tmp_path / "round.json"
        first = open_ledger(path)
        first.record_result("a.example", "peer-0000", [1], (1.0,), 5)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:  # crash mid-append
            handle.truncate(size - 7)
        resumed = open_ledger(path)
        assert resumed.resumed_sites == []
        assert "a.example" in resumed.pending_sites()
        # The torn tail is cut off, so the next append starts a clean line.
        resumed.record_result("a.example", "peer-0001", [1], (1.0,), 5)
        assert open_ledger(path).resumed_sites == ["a.example"]

    def test_version_1_ledger_starts_fresh(self, tmp_path):
        path = tmp_path / "round.json"
        path.write_text(json.dumps({
            "version": 1, "graph_digest": DIGEST, "params": PARAMS,
            "completed": False,
            "jobs": {site: {"state": STATE_DONE, "peer": "peer-0000",
                            "iterations": 3, "digest": "0"}
                     for site in SITES}}, indent=2), encoding="utf-8")
        ledger = open_ledger(path)
        assert ledger.resumed_sites == []
        assert ledger.pending_sites() == SITES
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header["version"] == LEDGER_VERSION

    def test_corrupt_ledger_raises(self, tmp_path):
        path = tmp_path / "round.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProtocolError):
            open_ledger(path)

    def test_corrupt_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "round.json"
        ledger = open_ledger(path)
        ledger.record_result("a.example", "peer-0000", [1], (1.0,), 5)
        ledger.record_result("b.example", "peer-0000", [2], (1.0,), 5)
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:-3]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ProtocolError, match="line 2"):
            open_ledger(path)


class TestOnDiskShape:
    def test_ledger_file_is_versioned_json(self, tmp_path):
        path = tmp_path / "round.json"
        ledger = open_ledger(path)
        ledger.record_result("c.example", "peer-0002", [7], (1.0,), 3)
        header, result = [json.loads(line) for line in
                          path.read_text(encoding="utf-8").splitlines()]
        assert header["version"] == LEDGER_VERSION
        assert header["graph_digest"] == DIGEST
        assert header["params"] == PARAMS
        assert header["sites"] == SITES
        assert result == {"result": "c.example", "peer": "peer-0002",
                          "iterations": 3, "doc_ids": [7], "scores": [1.0]}
        assert ledger.jobs["c.example"]["state"] == STATE_DONE
        assert ledger.jobs["a.example"]["state"] == STATE_PENDING
        assert ledger.jobs["c.example"]["digest"] == score_digest((1.0,))

    def test_a_round_appends_one_line_per_message(self, tmp_path):
        path = tmp_path / "round.json"
        ledger = open_ledger(path)
        header = path.read_bytes()
        ledger.record_assignment(SITES, "peer-0000")
        for site in SITES:
            ledger.record_result(site, "peer-0000", [1], (1.0,), 3)
        ledger.mark_complete()
        data = path.read_bytes()
        assert data.startswith(header)
        assert data.count(b"\n") == 1 + 1 + len(SITES) + 1

    def test_score_digest_is_content_addressed(self):
        assert score_digest((0.5, 0.5)) == score_digest([0.5, 0.5])
        assert score_digest((0.5, 0.5)) != score_digest((0.5, 0.25))
