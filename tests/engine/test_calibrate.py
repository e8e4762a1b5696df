"""Tests for repro.engine.calibrate (measured performance cut-offs)."""

import json

import pytest

from repro.engine import calibrate as cal
from repro.engine.calibrate import (
    CalibrationProfile,
    activate_profile,
    batched_flop_thresholds,
    crossover_point,
    deactivate_profile,
    flop_thresholds,
)
from repro.exceptions import ValidationError


@pytest.fixture(autouse=True)
def _clean_profile():
    deactivate_profile()
    yield
    deactivate_profile()


def make_profile(**overrides):
    values = dict(serial_flops_threshold=1e6,
                  process_flops_threshold=1e8,
                  batched_serial_flops_threshold=1e7,
                  batched_process_flops_threshold=1e9)
    values.update(overrides)
    return CalibrationProfile(**values)


def _profile_text(**overrides):
    """A profile file's JSON with some fields overwritten (unvalidated)."""
    return json.dumps(dict(make_profile().to_dict(), **overrides))


class TestCrossoverPoint:
    def rows(self, candidate_wins_from):
        return [{"x": 10.0 ** i, "base": 1.0,
                 "cand": 0.5 if i >= candidate_wins_from else 2.0}
                for i in range(5)]

    def test_geometric_mean_of_bracketing_points(self):
        point = crossover_point(self.rows(2), "x", "base", "cand",
                                default=7.0)
        assert point == pytest.approx((10.0 ** 1.5))

    def test_candidate_never_wins_scales_past_range(self):
        point = crossover_point(self.rows(99), "x", "base", "cand",
                                default=7.0)
        assert point == pytest.approx(4.0 * 10.0 ** 4)

    def test_candidate_always_wins_returns_smallest_x(self):
        point = crossover_point(self.rows(0), "x", "base", "cand",
                                default=7.0)
        assert point == 1.0

    def test_noisy_early_win_is_ignored(self):
        rows = self.rows(3)
        rows[0]["cand"] = 0.1  # a fluke win far below the true crossover
        point = crossover_point(rows, "x", "base", "cand", default=7.0)
        assert point == pytest.approx(10.0 ** 2.5)

    def test_empty_rows_fall_back_to_default(self):
        assert crossover_point([], "x", "base", "cand", default=7.0) == 7.0


class TestProfile:
    def test_defaults_without_active_profile(self):
        from repro.engine.adaptive import (
            BATCHED_PROCESS_FLOPS_THRESHOLD,
            BATCHED_SERIAL_FLOPS_THRESHOLD,
            PROCESS_FLOPS_THRESHOLD,
            SERIAL_FLOPS_THRESHOLD,
        )

        assert flop_thresholds() == (SERIAL_FLOPS_THRESHOLD,
                                     PROCESS_FLOPS_THRESHOLD)
        assert batched_flop_thresholds() == (BATCHED_SERIAL_FLOPS_THRESHOLD,
                                             BATCHED_PROCESS_FLOPS_THRESHOLD)

    def test_activation_changes_every_consumer(self):
        from repro.engine.adaptive import SERIAL_FLOPS_THRESHOLD

        activate_profile(make_profile())
        assert flop_thresholds() == (1e6, 1e8)
        assert batched_flop_thresholds() == (1e7, 1e9)
        deactivate_profile()
        assert flop_thresholds()[0] == SERIAL_FLOPS_THRESHOLD

    def test_parent_format_profile_still_loads(self, tmp_path, monkeypatch):
        # Every profile `repro calibrate` wrote before the dense kernel
        # left the engine carries its cut-off; REPRO_CALIBRATION pointing
        # at such a file must keep working, and the key is never rewritten.
        legacy = dict(make_profile().to_dict(), dense_cutoff=1234,
                      details={"dense_vs_sparse": [{"n": 128}],
                               "backends": []})
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy))
        monkeypatch.setenv(cal.PROFILE_ENV_VAR, str(path))
        monkeypatch.setattr(cal, "_ACTIVE", None)
        monkeypatch.setattr(cal, "_ENV_CHECKED", False)
        assert flop_thresholds() == (1e6, 1e8)
        loaded = CalibrationProfile.load(path)
        assert "dense_cutoff" not in loaded.to_dict()
        assert not hasattr(loaded, "dense_cutoff")
        with pytest.raises(ValidationError):  # only that one key is excused
            CalibrationProfile.from_dict(dict(legacy, dense_cutof=1))

    def test_select_backend_uses_active_thresholds(self):
        from repro.engine import select_backend

        class FakeTask:
            nnz = 1_000
            n_documents = 100
            damping, tol, max_iter = 0.85, 1e-10, 1000

        batch = [FakeTask(), FakeTask()]
        assert select_backend(batch) == "serial"
        activate_profile(make_profile(serial_flops_threshold=1.0,
                                      process_flops_threshold=1e18))
        assert select_backend(batch) == "threaded"

    def test_roundtrip_through_json(self, tmp_path):
        profile = make_profile(machine="test-machine", cpu_count=4,
                               details={"backends": [{"n_documents": 1}]})
        path = tmp_path / "profile.json"
        profile.save(path)
        loaded = CalibrationProfile.load(path)
        assert loaded == profile
        assert json.loads(path.read_text())["serial_flops_threshold"] == 1e6

    def test_env_var_activates_profile(self, tmp_path, monkeypatch):
        path = tmp_path / "profile.json"
        make_profile(serial_flops_threshold=77.0).save(path)
        monkeypatch.setenv(cal.PROFILE_ENV_VAR, str(path))
        monkeypatch.setattr(cal, "_ACTIVE", None)
        monkeypatch.setattr(cal, "_ENV_CHECKED", False)
        assert flop_thresholds()[0] == 77.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_profile(batched_process_flops_threshold=-1.0)
        with pytest.raises(ValidationError):
            make_profile(serial_flops_threshold=0.0)
        with pytest.raises(ValidationError):
            make_profile(serial_flops_threshold=1e9)  # above process
        with pytest.raises(ValidationError):
            CalibrationProfile.from_dict({"unknown_key": 1})
        with pytest.raises(ValidationError):
            CalibrationProfile.from_dict([1, 2])

    @pytest.mark.parametrize("text, field", [
        ('{"serial_flops_threshold": 1e6,', "not valid JSON"),
        (_profile_text(serial_flops_threshold="1e6"),
         "serial_flops_threshold"),
        (_profile_text(process_flops_threshold=None),
         "process_flops_threshold"),
        (_profile_text(batched_serial_flops_threshold=float("nan")),
         "batched_serial_flops_threshold"),
        (_profile_text(batched_process_flops_threshold=float("inf")),
         "batched_process_flops_threshold"),
        (_profile_text(serial_flops_threshold=True),
         "serial_flops_threshold"),
    ], ids=["torn-json", "string", "null", "nan", "inf", "bool"])
    def test_malformed_profile_file_is_a_validation_error(
            self, tmp_path, text, field):
        # What REPRO_CALIBRATION may point at: a NaN cut-off used to load
        # and send every batch of two or more tasks to a pool.
        path = tmp_path / "profile.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=field):
            CalibrationProfile.load(path)


class TestMeasurement:
    def test_quick_calibration_produces_valid_profile(self, tmp_path):
        profile = cal.calibrate(quick=True, n_jobs=2)
        assert profile.cpu_count >= 1
        assert profile.machine
        assert set(profile.details) == {"backends"}
        # The batched thresholds are derived from pool timings of the
        # *fused* payload, so every backend row must carry both variants.
        for row in profile.details["backends"]:
            for column in ("serial_seconds", "batched_serial_seconds",
                           "threaded_seconds", "batched_threaded_seconds",
                           "process_seconds", "batched_process_seconds"):
                assert row[column] > 0
        path = tmp_path / "p.json"
        profile.save(path)
        assert CalibrationProfile.load(path) == profile

    def test_bad_worker_count_fails_before_measuring(self, monkeypatch):
        def boom(*args, **kwargs):  # the sweep must never start
            raise AssertionError("measured before validating n_jobs")

        monkeypatch.setattr("repro.graphgen.generate_synthetic_web", boom)
        with pytest.raises(ValidationError):
            cal.calibrate(quick=True, n_jobs=0)
        with pytest.raises(ValidationError):
            cal.measure_backend_thresholds(web_sizes=(200,), n_jobs=-2)
