"""Smoke test of the system benchmark: ``run.py --smoke`` on every workload.

Checks the harness, not speed: every workload and metric named in
``BENCHMARK.json`` is printed with its unit, names are well formed, the
trace file parses, every span's parent resolves and child spans lie
inside their parent.  Tiny webs, one round; the eight runs (four
workloads, untraced and traced) go side by side and take a few seconds.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _f:
    SPEC = json.load(_f)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """``{(workload, trace): (returncode, stdout lines, trace path)}``."""
    out_dir = tmp_path_factory.mktemp("system-bench")
    started = {}
    for entry in SPEC["workloads"]:
        for trace in (0, 1):
            trace_path = str(out_dir / f"{entry['name']}.trace.json")
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--smoke", "--workload", entry["name"],
                       "--seed", "3", "--trace", str(trace)]
            if trace:
                command += ["--trace-out", trace_path]
            started[(entry["name"], trace)] = (subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, cwd=str(out_dir)), trace_path)
    finished = {}
    for key, (process, trace_path) in started.items():
        try:
            stdout, stderr = process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            process.kill()
            stdout, stderr = process.communicate()
        finished[key] = (process.returncode, stdout.splitlines(), stderr,
                         trace_path)
    return finished


def test_names_in_the_contract_are_well_formed():
    names = ([entry["name"] for entry in SPEC["workloads"]]
             + [entry["name"] for entry in SPEC["end_to_end"]]
             + [entry["name"] for entry in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(entry["name"] == "setup_s" and entry["unit"] == "s"
               and entry["better"] == "lower"
               for entry in SPEC["end_to_end"])
    for path in SPEC["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(smoke_runs, workload, trace):
    returncode, lines, stderr, _trace_path = smoke_runs[(workload, trace)]
    assert returncode == 0, stderr[-2000:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in wanted}
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    details = json.loads(lines[-2])
    assert details["workload"] == workload
    assert {"cores", "loadavg_1min_at_start", "noisy", "numpy",
            "scipy"} <= set(details["machine"])
    if not trace:
        for summary in details["end_to_end"].values():
            assert summary["q1"] <= summary["median"] <= summary["q3"]
            assert summary["n"] >= 1


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_trace_file_is_a_well_formed_span_tree(smoke_runs, workload):
    _returncode, _lines, _stderr, trace_path = smoke_runs[(workload, 1)]
    with open(trace_path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    spans = {span["id"]: span for span in trace["spans"]}
    assert len(spans) == len(trace["spans"]) > 20
    assert trace["workload"] == workload
    roots = [span for span in spans.values() if span["parent"] is None]
    assert {span["name"] for span in roots} == {
        "pass.rank_mem", "pass.rank_disk", "pass.serve", "pass.update"}
    for span in spans.values():
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
