"""Tests for the declarative RankingConfig (validation + serialisation)."""

import dataclasses

import pytest

from repro.api import RankingConfig
from repro.exceptions import ValidationError
from repro.io import TOML_READ_AVAILABLE

requires_toml = pytest.mark.skipif(
    not TOML_READ_AVAILABLE,
    reason="TOML reading needs tomllib (Python >= 3.11) or tomli")


class TestValidation:
    def test_defaults_are_valid(self):
        config = RankingConfig()
        assert config.method == "layered"
        assert config.executor == "serial"
        assert config.effective_site_damping == config.damping

    @pytest.mark.parametrize("changes", [
        {"method": ""},
        {"damping": 0.0},
        {"damping": 1.0},
        {"damping": -0.2},
        {"site_damping": 1.5},
        {"tol": 0.0},
        {"tol": 2.0},
        {"max_iter": 0},
        {"max_iter": 1.5},
        {"include_site_self_links": "yes"},
        {"executor": "gpu"},
        {"n_jobs": 0},
        {"n_jobs": -3},
        {"n_jobs": "many"},
        {"n_jobs": 2},  # a worker count on the (default) serial backend
        {"executor": "threaded", "n_jobs": "auto"},  # contradictory pair
        {"warm_start": "yes"},
        {"cache_size": 0},
        {"rule": "max"},
        {"weight": 1.5},
        {"weight": -0.1},
        {"n_peers": 0},
        {"architecture": "star"},
        {"partition_policy": "random"},
    ])
    def test_invalid_field_values_are_rejected(self, changes):
        with pytest.raises(ValidationError):
            RankingConfig(**changes)

    def test_n_jobs_auto_accepted(self):
        config = RankingConfig(n_jobs="auto")
        assert config.wants_auto_backend

    def test_n_jobs_accepted_with_pooled_backends(self):
        for executor in ("threaded", "process", "auto"):
            assert RankingConfig(executor=executor, n_jobs=2).n_jobs == 2
        assert RankingConfig(executor="serial", n_jobs=1).n_jobs == 1
        assert RankingConfig(executor="auto", n_jobs="auto").wants_auto_backend

    def test_executor_auto_accepted(self):
        assert RankingConfig(executor="auto").wants_auto_backend
        assert not RankingConfig(executor="process").wants_auto_backend

    def test_replace_revalidates(self):
        config = RankingConfig()
        with pytest.raises(ValidationError):
            config.replace(damping=7.0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RankingConfig().damping = 0.5

    def test_require_method_unknown(self):
        config = RankingConfig(method="no-such-method")
        with pytest.raises(ValidationError, match="available methods"):
            config.require_method()

    def test_require_method_known(self):
        assert callable(RankingConfig(method="layered").require_method())


class TestDictRoundTrip:
    def test_to_dict_from_dict(self):
        config = RankingConfig(method="blockrank", damping=0.9,
                               executor="threaded", n_jobs=3,
                               warm_start=True, rule="rrf", weight=0.25)
        assert RankingConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="dampling"):
            RankingConfig.from_dict({"dampling": 0.9})

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ValidationError):
            RankingConfig.from_dict([("damping", 0.9)])

    def test_from_dict_validates_values(self):
        with pytest.raises(ValidationError):
            RankingConfig.from_dict({"damping": 2.0})


class TestFileRoundTrip:
    @pytest.mark.parametrize("suffix", [
        ".json", pytest.param(".toml", marks=requires_toml)])
    def test_save_load_round_trip(self, tmp_path, suffix):
        config = RankingConfig(method="hits", damping=0.7, tol=1e-8,
                               executor="auto", cache_size=64,
                               architecture="super-peer")
        path = tmp_path / f"ranking{suffix}"
        config.save(path)
        assert RankingConfig.load(path) == config

    @requires_toml
    def test_none_fields_survive_toml(self, tmp_path):
        # TOML has no null: None fields are omitted and default back in.
        config = RankingConfig(site_damping=None, n_jobs=None)
        path = tmp_path / "ranking.toml"
        config.save(path)
        loaded = RankingConfig.load(path)
        assert loaded.site_damping is None
        assert loaded.n_jobs is None

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="config format"):
            RankingConfig().save(tmp_path / "ranking.yaml")
        with pytest.raises(ValidationError, match="config format"):
            RankingConfig.load(tmp_path / "ranking.yaml")

    @requires_toml
    def test_malformed_toml_rejected(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("method = [unclosed\n")
        with pytest.raises(ValidationError, match="malformed TOML"):
            RankingConfig.load(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="malformed JSON"):
            RankingConfig.load(path)

    def test_non_table_config_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValidationError, match="table"):
            RankingConfig.load(path)

    def test_to_toml_omits_none(self):
        text = RankingConfig().to_toml()
        assert "site_damping" not in text
        assert 'method = "layered"' in text

    def test_files_with_the_retired_batch_sites_key_load(self, tmp_path):
        # What RankingConfig().save() wrote while ``batch_sites`` existed.
        files = {".json": (
            '{\n  "architecture": "flat",\n  "batch_sites": true,\n'
            '  "cache_size": 1024,\n  "damping": 0.85,\n'
            '  "executor": "serial",\n  "include_site_self_links": false,\n'
            '  "max_iter": 1000,\n  "method": "layered",\n  "n_peers": 8,\n'
            '  "partition_policy": "balanced",\n  "rule": "linear",\n'
            '  "tol": 1e-10,\n  "warm_start": false,\n  "weight": 0.5\n}\n')}
        if TOML_READ_AVAILABLE:
            files[".toml"] = (
                'method = "layered"\ndamping = 0.85\ntol = 1e-10\n'
                'max_iter = 1000\ninclude_site_self_links = false\n'
                'batch_sites = true\nexecutor = "serial"\n'
                'warm_start = false\ncache_size = 1024\nrule = "linear"\n'
                'weight = 0.5\nn_peers = 8\narchitecture = "flat"\n'
                'partition_policy = "balanced"\n')
        for suffix, text in files.items():
            path = tmp_path / f"parent{suffix}"
            path.write_text(text)
            assert RankingConfig.load(path) == RankingConfig()
        assert "batch_sites" not in RankingConfig().to_dict()
        assert "batch_sites" not in RankingConfig().to_toml()
        with pytest.raises(ValidationError) as raised:
            RankingConfig.from_dict({"batch_sites": False})
        message = str(raised.value)
        assert "batch_sites=false" in message and "removed" in message
        assert len(message.splitlines()) == 1
