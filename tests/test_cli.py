"""Tests for the command-line interface (repro.cli / python -m repro)."""

import subprocess
import sys

import pytest

import repro
from repro.cli import EXIT_ERROR, build_parser, main
from repro.io import TOML_READ_AVAILABLE

requires_toml = pytest.mark.skipif(
    not TOML_READ_AVAILABLE,
    reason="TOML reading needs tomllib (Python >= 3.11) or tomli")


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rank_defaults(self):
        args = build_parser().parse_args(["rank"])
        assert args.method == "layered"
        assert args.top == 15

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8000
        assert args.duration is None
        assert args.rule == "linear"

    def test_query_requires_a_query(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])

    @pytest.mark.parametrize("argv", [["rank"], ["compare"], ["serve"],
                                      ["query", "q"]])
    def test_jobs_defaults_to_serial(self, argv):
        assert build_parser().parse_args(argv).jobs == 1


class TestErrorExitCodes:
    def test_rank_missing_input_path(self, capsys):
        assert main(["rank", "--input", "/no/such/file.txt"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_compare_missing_input_path(self, capsys):
        assert main(["compare", "--input", "/no/such/file.txt"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_query_missing_input_path(self, capsys):
        assert main(["query", "--input", "/no/such/file.txt",
                     "research"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_generate_unwritable_output_path(self, capsys):
        assert main(["generate", "hierarchical", "/no/such/dir/out.graph",
                     "--sites", "3", "--documents", "30"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_rank_malformed_docgraph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("this is not a docgraph\n")
        assert main(["rank", "--input", str(bad),
                     "--format", "docgraph"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_rank_docgraph_with_non_numeric_fields(self, tmp_path, capsys):
        bad = tmp_path / "bad-id.graph"
        bad.write_text("*NODES\nx\tsiteA\t0\thttp://a.example.org/1\n")
        assert main(["rank", "--input", str(bad),
                     "--format", "docgraph"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--on-disk", "--output", "store"]])
    @pytest.mark.parametrize(
        "url", ["http://a:99999/", "http://a:x/", "http://[::1/"])
    def test_rank_edgelist_with_hostile_url(self, tmp_path, capsys, url,
                                            extra):
        # urllib raises a bare ValueError on these; it must reach the user
        # as the one-line exit-code-2 error, never as a traceback.
        bad = tmp_path / "edges.txt"
        bad.write_text(f"http://a.org/ http://b.org/\n{url} http://a.org/\n")
        extra = [str(tmp_path / arg) if arg == "store" else arg
                 for arg in extra]
        assert main(["rank", "--input", str(bad)] + extra) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestExampleCommand:
    def test_prints_all_four_approaches(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        for name in ("approach-1", "approach-2", "approach-3", "approach-4"):
            assert name in out
        # The Figure 2 ordering appears verbatim.
        assert "[5, 7, 6, 10, 8, 3, 1, 2, 12, 4, 11, 9]" in out


class TestRankCommand:
    def test_rank_generated_hierarchical_web(self, capsys):
        exit_code = main(["rank", "--generate", "hierarchical", "--sites", "6",
                          "--documents", "200", "--top", "5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "top-5 by layered" in out
        assert out.count("http://") >= 5

    def test_rank_with_jobs_matches_serial_output(self, capsys):
        argv = ["rank", "--generate", "hierarchical", "--sites", "6",
                "--documents", "200", "--top", "5"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_rank_both_methods(self, capsys):
        exit_code = main(["rank", "--generate", "hierarchical", "--sites", "5",
                          "--documents", "150", "--method", "both",
                          "--top", "3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "top-3 by layered" in out
        assert "top-3 by pagerank" in out

    def test_rank_edgelist_input(self, tmp_path, toy_docgraph, capsys):
        from repro.io import write_url_edgelist

        path = tmp_path / "edges.txt"
        write_url_edgelist(toy_docgraph, path)
        exit_code = main(["rank", "--input", str(path), "--top", "3"])
        assert exit_code == 0
        assert "a.example.org" in capsys.readouterr().out


class TestGenerateAndCompare:
    def test_generate_then_rank_docgraph(self, tmp_path, capsys):
        output = tmp_path / "web.graph"
        assert main(["generate", "hierarchical", str(output), "--sites", "5",
                     "--documents", "150"]) == 0
        assert output.exists()
        capsys.readouterr()
        assert main(["rank", "--input", str(output), "--format", "docgraph",
                     "--top", "3"]) == 0
        assert "http://" in capsys.readouterr().out

    def test_compare_campus_reports_contamination(self, capsys):
        exit_code = main(["compare", "--generate", "campus", "--sites", "10",
                          "--documents", "600", "--top", "10"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Kendall tau" in out
        assert "farm pages in PageRank top-10" in out
        assert "farm pages in layered top-10" in out

    def test_compare_hierarchical(self, capsys):
        assert main(["compare", "--generate", "hierarchical", "--sites", "6",
                     "--documents", "200"]) == 0
        out = capsys.readouterr().out
        assert "top-15 overlap" in out


class TestQueryCommand:
    def test_query_generated_web(self, capsys):
        exit_code = main(["query", "--generate", "hierarchical", "--sites",
                          "6", "--documents", "150", "--top", "3",
                          "research database"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "top-3 for 'research database'" in out
        assert "combined=" in out
        assert "cache:" in out

    def test_query_batch_answers_every_query(self, capsys):
        exit_code = main(["query", "--generate", "hierarchical", "--sites",
                          "5", "--documents", "120", "--top", "2",
                          "research database", "teaching course"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "top-2 for 'research database'" in out
        assert "top-2 for 'teaching course'" in out

    def test_query_rrf_rule(self, capsys):
        exit_code = main(["query", "--generate", "hierarchical", "--sites",
                          "5", "--documents", "120", "--rule", "rrf",
                          "--top", "2", "research"])
        assert exit_code == 0
        assert "(rrf combination)" in capsys.readouterr().out

    @requires_toml
    def test_query_labels_the_configs_rule(self, tmp_path, capsys):
        path = tmp_path / "ranking.toml"
        path.write_text('rule = "rrf"\n')
        exit_code = main(["query", "--generate", "hierarchical", "--sites",
                          "5", "--documents", "120", "--config", str(path),
                          "--top", "2", "research"])
        assert exit_code == 0
        assert "(rrf combination)" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_for_a_short_duration(self, capsys):
        exit_code = main(["serve", "--generate", "hierarchical", "--sites",
                          "5", "--documents", "100", "--port", "0",
                          "--duration", "0.2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "serving on http://127.0.0.1:" in out
        assert "server stopped" in out

    @pytest.mark.parametrize("flag", [["--async"],
                                      ["--coalesce-window", "0.01"]])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--generate", "hierarchical", "--port", "0",
                  "--duration", "0.1", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_banner_reports_replicas_and_admission_bound(self, capsys):
        assert main(["serve", "--generate", "hierarchical", "--sites", "5",
                     "--documents", "100", "--port", "0", "--duration",
                     "0.1", "--replicas", "2", "--max-inflight", "8"]) == 0
        out = capsys.readouterr().out
        assert "2 replica(s), max in-flight 8" in out

    def test_serve_answers_requests_while_up(self):
        import json
        import re
        import urllib.request

        from repro.api import Ranker
        from repro.graphgen import generate_synthetic_web
        from repro.ir import synthesize_corpus
        from repro.serving import AsyncRankingServer, RankingService

        # Drive the same stack the serve command wires together.
        web = generate_synthetic_web(n_sites=5, n_documents=100, seed=7)
        service = RankingService.from_ranking(Ranker().fit(web).ranking, web,
                                              corpus=synthesize_corpus(web))
        server = AsyncRankingServer(service, port=0)
        try:
            with urllib.request.urlopen(server.url + "/top?k=3",
                                        timeout=10) as response:
                payload = json.load(response)
            assert len(payload["results"]) == 3
            assert re.match(r"http://", payload["results"][0]["url"])
        finally:
            server.close()


class TestUniformValidationErrors:
    """--jobs / --damping value errors: one-line message, exit code 2."""

    @pytest.mark.parametrize("argv", [
        ["rank", "--jobs", "0"],
        ["rank", "--jobs", "-2"],
        ["rank", "--jobs", "many"],
        ["compare", "--jobs", "0"],
        ["serve", "--jobs", "x"],
        ["query", "--jobs", "0", "q"],
        ["rank", "--damping", "1.5"],
        ["rank", "--damping", "0"],
        ["rank", "--damping", "abc"],
        ["example", "--damping", "2"],
        ["serve", "--damping", "-1"],
        ["query", "--damping", "nan", "q"],
        ["rank", "--top", "0"],
        ["query", "--weight", "1.5", "q"],
        ["serve", "--cache-size", "0"],
    ])
    def test_exit_code_2_and_one_line_message(self, argv, capsys):
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_abbreviated_flags_are_rejected(self):
        # allow_abbrev=False: --dampi must not silently parse as --damping
        # (it would also slip past the explicit-flag config merge).
        with pytest.raises(SystemExit) as excinfo:
            main(["rank", "--dampi", "0.9"])
        assert excinfo.value.code == 2

    def test_jobs_auto_accepted(self, capsys):
        argv = ["rank", "--generate", "hierarchical", "--sites", "5",
                "--documents", "120", "--top", "3"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "auto"]) == 0
        assert capsys.readouterr().out == serial_out


class TestConfigCommand:
    def test_show_prints_defaults_as_toml(self, capsys):
        assert main(["config", "show"]) == 0
        out = capsys.readouterr().out
        assert 'method = "layered"' in out
        assert "# registered methods:" in out

    @requires_toml
    def test_show_reads_a_file(self, tmp_path, capsys):
        path = tmp_path / "ranking.toml"
        path.write_text('method = "hits"\ndamping = 0.7\n')
        assert main(["config", "show", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert 'method = "hits"' in out
        assert "damping = 0.7" in out

    @requires_toml
    def test_validate_accepts_a_good_config(self, tmp_path, capsys):
        path = tmp_path / "ranking.toml"
        path.write_text('method = "layered"\nexecutor = "auto"\n')
        assert main(["config", "validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [
        'method = "no-such-method"\n',          # unregistered method
        'damping = 1.5\n',                       # out-of-range value
        'dampling = 0.9\n',                      # unknown key (typo)
        'method = [broken\n',                    # malformed TOML
    ])
    @requires_toml
    def test_validate_rejects_bad_configs(self, tmp_path, content, capsys):
        path = tmp_path / "ranking.toml"
        path.write_text(content)
        assert main(["config", "validate", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_validate_missing_file(self, capsys):
        assert main(["config", "validate", "/no/such.toml"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestRankWithConfigFile:
    @requires_toml
    def test_rank_uses_the_config_files_method(self, tmp_path, capsys):
        path = tmp_path / "ranking.toml"
        path.write_text('method = "hits"\n')
        assert main(["rank", "--config", str(path), "--generate",
                     "hierarchical", "--sites", "5", "--documents", "120",
                     "--top", "3"]) == 0
        assert "top-3 by hits" in capsys.readouterr().out

    @requires_toml
    def test_explicit_method_flag_overrides_config(self, tmp_path, capsys):
        path = tmp_path / "ranking.toml"
        path.write_text('method = "hits"\n')
        assert main(["rank", "--config", str(path), "--method", "pagerank",
                     "--generate", "hierarchical", "--sites", "5",
                     "--documents", "120", "--top", "3"]) == 0
        assert "top-3 by pagerank" in capsys.readouterr().out

    @requires_toml
    def test_config_driven_run_matches_flag_driven_run(self, tmp_path,
                                                       capsys):
        argv = ["rank", "--generate", "hierarchical", "--sites", "5",
                "--documents", "120", "--top", "5"]
        assert main(argv) == 0
        flag_out = capsys.readouterr().out
        path = tmp_path / "ranking.toml"
        path.write_text('method = "layered"\nexecutor = "process"\n'
                        'n_jobs = 2\n')
        assert main(argv + ["--config", str(path)]) == 0
        assert capsys.readouterr().out == flag_out

    def test_rank_with_missing_config_file(self, capsys):
        assert main(["rank", "--config", "/no/such.toml"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_jobs_auto_preserves_the_configs_worker_cap(self, tmp_path):
        from repro.cli import _ranking_config

        path = tmp_path / "ranking.json"
        path.write_text('{"executor": "process", "n_jobs": 4}\n')
        args = build_parser().parse_args(
            ["rank", "--config", str(path), "--jobs", "auto"])
        args._explicit = {"jobs"}
        args.jobs = "auto"
        config = _ranking_config(args)
        assert (config.executor, config.n_jobs) == ("auto", 4)

    def test_explicit_jobs_keeps_the_configs_pooled_backend(self, tmp_path):
        # --jobs N adjusts the worker count without replacing a config
        # file's non-serial backend kind.
        from repro.cli import _ranking_config

        path = tmp_path / "ranking.json"
        path.write_text('{"executor": "threaded", "n_jobs": 4}\n')
        args = build_parser().parse_args(
            ["rank", "--config", str(path), "--jobs", "8"])
        args._explicit = {"jobs"}
        args.jobs = 8
        config = _ranking_config(args)
        assert (config.executor, config.n_jobs) == ("threaded", 8)

    @requires_toml
    def test_explicit_default_valued_flags_override_config(self, tmp_path,
                                                           capsys):
        # --method layered / --damping 0.85 equal the parser defaults but
        # are given explicitly, so they must beat the config file.
        path = tmp_path / "ranking.toml"
        path.write_text('method = "hits"\ndamping = 0.5\n')
        base = ["rank", "--generate", "hierarchical", "--sites", "5",
                "--documents", "120", "--top", "3"]
        assert main(base) == 0
        default_out = capsys.readouterr().out
        assert main(base + ["--config", str(path), "--method", "layered",
                            "--damping", "0.85"]) == 0
        assert capsys.readouterr().out == default_out

    @requires_toml
    def test_flag_lookalike_after_separator_is_not_explicit(self, tmp_path,
                                                            capsys):
        # A positional after "--" that spells an option name ("--weight" as
        # the literal query text) must not mark that option explicit, which
        # would silently discard the config file's value.
        path = tmp_path / "ranking.toml"
        path.write_text('weight = 0.8\n')
        base = ["query", "--generate", "hierarchical", "--sites", "5",
                "--documents", "120", "--top", "2"]
        assert main(base + ["--weight", "0.8", "--", "--weight"]) == 0
        reference = capsys.readouterr().out
        assert main(base + ["--config", str(path), "--", "--weight"]) == 0
        assert capsys.readouterr().out == reference

    @requires_toml
    def test_omitted_flags_defer_to_config(self, tmp_path, capsys):
        path = tmp_path / "ranking.toml"
        path.write_text('damping = 0.5\n')
        base = ["rank", "--generate", "hierarchical", "--sites", "5",
                "--documents", "120", "--top", "3"]
        assert main(base + ["--damping", "0.5"]) == 0
        explicit_out = capsys.readouterr().out
        assert main(base + ["--config", str(path)]) == 0
        assert capsys.readouterr().out == explicit_out


class TestServeStatePersistence:
    def test_state_file_written_and_resumed(self, tmp_path, capsys):
        state = tmp_path / "warm.json"
        argv = ["serve", "--generate", "hierarchical", "--sites", "5",
                "--documents", "100", "--port", "0", "--duration", "0.1",
                "--state", str(state)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "resuming power iterations" not in first
        assert state.exists()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert f"resuming power iterations from {state}" in second
        assert "server stopped" in second

    @requires_toml
    def test_state_with_non_layered_method_is_rejected(self, tmp_path,
                                                       capsys):
        path = tmp_path / "ranking.toml"
        path.write_text('method = "flat"\n')
        assert main(["serve", "--generate", "hierarchical", "--sites", "4",
                     "--documents", "80", "--port", "0", "--duration",
                     "0.05", "--config", str(path),
                     "--state", str(tmp_path / "warm.json")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "layered" in err

    def test_corrupted_state_file_is_a_one_line_error(self, tmp_path,
                                                      capsys):
        state = tmp_path / "warm.json"
        state.write_text('{"sites": {}, "siterank": {}}\n')
        assert main(["serve", "--generate", "hierarchical", "--sites", "4",
                     "--documents", "80", "--port", "0", "--duration",
                     "0.05", "--state", str(state)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_resumed_state_actually_cuts_iterations(self, tmp_path):
        from repro.api import Ranker, RankingConfig
        from repro.graphgen import generate_synthetic_web

        state = tmp_path / "warm.json"
        assert main(["serve", "--generate", "hierarchical", "--sites", "5",
                     "--documents", "100", "--port", "0", "--duration",
                     "0.05", "--state", str(state)]) == 0
        web = generate_synthetic_web(n_sites=5, n_documents=100, seed=7)
        cold = Ranker(RankingConfig()).fit(web)
        resumed = Ranker(RankingConfig()).load_state(state).fit(web)
        assert resumed.iterations < cold.iterations / 2


class TestStatsCommand:
    def test_stats_renders_nonempty_snapshot(self, capsys):
        assert main(["stats", "--generate", "hierarchical", "--sites", "5",
                     "--documents", "150"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "solver_runs_total" in out
        assert "timings:" in out and "fit.total" in out

    def test_stats_prometheus_output_validates(self, capsys):
        from repro import obs

        assert main(["stats", "--generate", "hierarchical", "--sites", "5",
                     "--documents", "150", "--prometheus"]) == 0
        out = capsys.readouterr().out
        exposition = out[out.index("# HELP"):]
        obs.validate_exposition(exposition)
        assert "repro_phase_seconds_bucket" in exposition


class TestRankTrace:
    def test_rank_trace_writes_span_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        assert main(["rank", "--generate", "hierarchical", "--sites", "5",
                     "--documents", "150", "--top", "3",
                     "--trace", str(trace)]) == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        assert payload["version"] == 1
        assert {span["name"] for span in payload["spans"]} >= {
            "fit.total", "plan.build", "plan.execute", "plan.compose"}


class TestModuleInvocation:
    def test_python_dash_m_repro(self):
        result = subprocess.run([sys.executable, "-m", "repro", "example"],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert "approach-4" in result.stdout


class TestOutOfCoreCommands:
    GRAPH_ARGS = ["--sites", "6", "--documents", "150", "--seed", "13"]

    def test_on_disk_requires_output(self, capsys):
        assert main(["rank", "--on-disk"]) == EXIT_ERROR
        assert "--on-disk requires --output" in capsys.readouterr().err

    def test_output_requires_on_disk(self, tmp_path, capsys):
        exit_code = main(["rank", "--output", str(tmp_path / "s")])
        assert exit_code == EXIT_ERROR
        assert "--output requires --on-disk" in capsys.readouterr().err

    def test_on_disk_rejects_non_layered_methods(self, tmp_path, capsys):
        exit_code = main(["rank", "--on-disk", "--output",
                          str(tmp_path / "s"), "--method", "pagerank"])
        assert exit_code == EXIT_ERROR
        assert "only the layered method" in capsys.readouterr().err

    def test_rank_then_serve_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["rank", "--on-disk", "--output", store,
                     *self.GRAPH_ARGS, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "published generation gen-000001" in out
        assert "top-3 by layered" in out

        # A re-run warm-starts from the published generation.
        assert main(["rank", "--on-disk", "--output", store,
                     *self.GRAPH_ARGS, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "warm-starting from generation gen-000001" in out
        assert "published generation gen-000002" in out

        # The published store boots the serving stack without re-ranking.
        assert main(["serve", "--store", store, "--port", "0",
                     "--duration", "0.2", "--replicas", "2"]) == 0
        out = capsys.readouterr().out
        assert "generation gen-000002" in out
        assert "server stopped" in out

    @staticmethod
    def _ranked(out):
        """``(iteration total, top-k lines)`` of one ``repro rank`` output."""
        import re

        header = re.search(r"top-\d+ by layered \((\d+) power iterations\):",
                           out)
        return int(header.group(1)), out[header.end():].strip().splitlines()

    def test_on_disk_honours_the_config_file(self, tmp_path, capsys):
        """Regression: ``--on-disk`` forwarded only ``damping``, so a config
        with ``max_iter: 3`` ran the default run's power iterations."""
        import json

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "site_damping": 0.5, "tol": 0.1, "max_iter": 3,
            "include_site_self_links": True}))
        runs = {}
        for name, extra in (
                ("default", ["--on-disk", "--output", str(tmp_path / "a")]),
                ("disk", ["--on-disk", "--output", str(tmp_path / "b"),
                          "--config", str(config)]),
                ("memory", ["--config", str(config)])):
            assert main(["rank", *self.GRAPH_ARGS, "--top", "8",
                         *extra]) == 0
            runs[name] = self._ranked(capsys.readouterr().out)
        assert runs["disk"] == runs["memory"]
        assert runs["disk"][0] < runs["default"][0]
        assert len(runs["disk"][1]) == 8

    @pytest.mark.parametrize("settings, flags, named", [
        ({"personalization": {"s": {"background": 1.0}}}, [],
         "personalization"),
        ({"batch_sites": False}, [], "batch_sites=false"),
        ({"executor": "threaded", "n_jobs": 2}, [], "executor='threaded'"),
        ({}, ["--jobs", "2"], "executor='process'"),
        ({}, ["--jobs", "auto"], "executor='auto'"),
    ])
    def test_on_disk_rejects_settings_it_cannot_honour(
            self, tmp_path, capsys, settings, flags, named):
        import json

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(settings))
        exit_code = main(["rank", "--on-disk", "--output",
                          str(tmp_path / "store"), *self.GRAPH_ARGS,
                          "--config", str(config), *flags])
        assert exit_code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "store").exists()

    def test_serve_store_rejects_state(self, tmp_path, capsys):
        assert main(["serve", "--store", str(tmp_path / "s"),
                     "--state", str(tmp_path / "warm.json")]) == EXIT_ERROR
        assert "--state" in capsys.readouterr().err

    def test_serve_store_missing_store(self, tmp_path, capsys):
        assert main(["serve", "--store", str(tmp_path / "nope"),
                     "--port", "0", "--duration", "0.1"]) == EXIT_ERROR
        assert "not an artifact store" in capsys.readouterr().err

    def test_store_serve_is_byte_identical_to_in_memory_serve(
            self, tmp_path, capsys):
        """The acceptance criterion: rank --on-disk + serve --store answers
        exactly like serving the in-memory ranking of the same web."""
        import urllib.request

        from repro.api import Ranker
        from repro.graphgen import generate_synthetic_web
        from repro.serving import (
            AsyncRankingServer,
            MmapScoreStore,
            RankingService,
        )

        store = str(tmp_path / "store")
        assert main(["rank", "--on-disk", "--output", store,
                     *self.GRAPH_ARGS]) == 0
        capsys.readouterr()

        web = generate_synthetic_web(n_sites=6, n_documents=150, seed=13)
        memory_service = RankingService.from_ranking(
            Ranker().fit(web).ranking, web)
        mmap_service = RankingService(MmapScoreStore.from_store(store))

        def fetch(server, path):
            with urllib.request.urlopen(server.url + path,
                                        timeout=10) as response:
                return response.read()

        memory_server = AsyncRankingServer(memory_service, port=0)
        mmap_server = AsyncRankingServer(mmap_service, port=0)
        try:
            for path in ("/top?k=25", "/top?k=5&site=site002.example.org",
                         "/score?doc=0", "/score?doc=149", "/health"):
                assert fetch(memory_server, path) == fetch(mmap_server, path)
        finally:
            memory_server.close()
            mmap_server.close()
            memory_service.close()
            mmap_service.close()
