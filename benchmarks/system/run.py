"""System benchmark: ingest -> rank -> serve -> update, end to end and per layer.

    python3 benchmarks/system/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this (fresh) interpreter and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it carries the details (quartiles and
sample counts beside every median, the machine block, problems found).

    --workload all      every workload, each in an interpreter of its own
    --smoke             tiny webs, one round: checks the harness, not speed
    --out FILE          append the run's detail record to FILE (JSON lines)
    --trace-out FILE    with --trace 1, write the spans to FILE
    --compare A B       compare two --out files metric by metric

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from compare import main as compare_runs, quartiles  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(HERE, ".work")

#: Set-ups per run; ``setup_s`` reports their median (plus the imports,
#: which a process can only do once).
SETUP_REPEATS = 3


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def summarize(values) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    values = [float(value) for value in values]
    low, median, high = quartiles(values)
    return {"median": median, "q1": low, "q3": high, "n": len(values),
            "samples": values}


def keep_freed_memory() -> bool:
    """Tell glibc malloc to keep freed memory instead of returning it.

    On this kind of box (a small VM) a first touch of a fresh page costs
    far more than on bare metal, and numpy hands every large temporary
    back to the kernel when it is freed: identical ``Ranker.fit`` calls
    then differ by up to 3x with the pages they have to fault in again
    (10-20k minor faults per round of four fits without this, a few
    hundred with it).  The setting is the benchmark's, applied the same way to
    every commit it compares; ``machine.malloc_keeps_memory`` records
    whether it took effect.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    huge = 2 ** 31 - 1
    return bool(mallopt(m_mmap_threshold, huge)
                and mallopt(m_trim_threshold, huge)
                and mallopt(m_top_pad, 64 * 1024 * 1024))


def pin_to_one_core() -> int:
    """Pin this process (and the threads it starts) to its last core.

    A served request crosses four thread hand-offs (client -> event loop
    -> worker -> event loop -> client).  Spread over two vCPUs each
    hand-off wakes an idle vCPU, which costs a hypervisor round trip
    whose length follows the host's load, not the program: the same
    link-only traffic ran at 1.1 ms p50 unpinned and 0.6 ms pinned, and
    unpinned its run-to-run level moved by 40 % when the host was busy.
    The interpreter lock lets one thread run at a time anyway.
    """
    try:
        core = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {core})
    except (AttributeError, OSError):
        return -1
    return core


def machine_block() -> dict:
    """Where the numbers come from; ``noisy`` flags a box busy at start."""
    import numpy
    import scipy

    cores = sorted(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas_info = config["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"cores": cores, "loadavg_1min_at_start": load,
            "noisy": load > len(cores),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "page_cache": "disk reads are served from the OS page cache"}


def run_workload(args) -> int:
    """One workload in this interpreter; prints details + result lines."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()
    machine = machine_block()
    machine.update(malloc_keeps_memory=keep_freed_memory(),
                   pinned_core=pin_to_one_core())
    import workloads  # imports numpy, scipy and every repro layer used
    from speed import SpeedProbe

    imports_s = time.perf_counter() - _PROCESS_START
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    workload = None
    try:
        repeats = 1 if (args.smoke or args.trace) else SETUP_REPEATS
        probe = SpeedProbe()
        setups = []
        for _ in range(repeats):
            if workload is not None:
                # Free the previous set-up before the next one allocates:
                # left to the cyclic collector's own timing, the old graph,
                # corpus and service sometimes outlive the new ones' build
                # and peak RSS reads 15 MiB (10 %) higher on those runs.
                workload.teardown()
                workload = None
                gc.collect()
            workload = workloads.WORKLOADS[args.workload](
                args.seed, workdir, args.smoke, probe)
            probe.sample()
            started = time.perf_counter()
            workload.build()
            setups.append(time.perf_counter() - started)
        if args.trace:
            details, metrics = _traced(args, spec, workload, workdir)
        else:
            details, metrics = _timed(args, spec, workload, imports_s,
                                      setups)
        samples = workload.samples
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # unless another run is using it
        except OSError:
            pass

    correct = samples.failed == 0 and not samples.problems
    details.update(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, smoke=args.smoke,
                   why=next(entry["why"] for entry in spec["workloads"]
                            if entry["name"] == args.workload),
                   machine=machine,
                   failed_share=samples.failed / max(1, samples.attempted),
                   problems=samples.problems)
    result = {"correct": correct, "attempted": max(1, samples.attempted),
              "failed": samples.failed, "metrics": metrics}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**details, "result": result}) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if correct else 1


def _timed(args, spec, workload, imports_s, setups):
    probe = workload.probe
    rounds_begin = len(probe.samples)
    workload.measure(args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.verify()
    samples = workload.samples
    # Timings are reported at reference speed (see speed.py): one factor
    # for the set-ups, one for the rounds, each from the reference passes
    # timed in between.
    setup_factor = probe.factor(0, rounds_begin + 1)
    rounds_factor = probe.factor(rounds_begin, len(probe.samples))
    raw = {"setup_s": [imports_s + value for value in setups],
           "work_per_s": samples.work_per_s,
           "work_p50_ms": samples.work_p50_ms,
           "intake_p50_ms": samples.intake_p50_ms}
    summaries = {
        "setup_s": summarize(v * setup_factor for v in raw["setup_s"]),
        "peak_rss_mib": summarize([peak_rss_mib]),
        "work_per_s": summarize(v / rounds_factor
                                for v in raw["work_per_s"]),
        "work_p50_ms": summarize(v * rounds_factor
                                 for v in raw["work_p50_ms"]),
        "intake_p50_ms": summarize(v * rounds_factor
                                   for v in raw["intake_p50_ms"]),
    }
    metrics = {entry["name"]: {"value": summaries[entry["name"]]["median"],
                               "unit": entry["unit"]}
               for entry in spec["end_to_end"]}
    details = {"end_to_end": summaries, "imports_s": imports_s,
               "extra": samples.extra,
               "speed": {"setup_factor": setup_factor,
                         "rounds_factor": rounds_factor,
                         "reference_s": probe.samples,
                         "rounds_begin": rounds_begin, "uncorrected": raw}}
    return details, metrics


def _traced(args, spec, workload, workdir):
    import layers

    layer_pass = layers.LayerPass(args.workload, workload.web, args.seed,
                                  workdir, args.smoke)
    values = layer_pass.run()
    samples = workload.samples
    samples.attempted += layer_pass.attempted
    for problem in layer_pass.problems:
        samples.fail(problem)
    if args.trace_out:
        layer_pass.tracer.export(args.trace_out, seed=args.seed)
    # A layer that never ran on this web has no span: it reads 0.
    metrics = {entry["name"]: {"value": float(values.get(entry["name"], 0.0)),
                               "unit": entry["unit"]}
               for entry in spec["per_layer"]}
    return {"spans": len(layer_pass.tracer.spans)}, metrics


def run_all(args) -> int:
    """Every workload of BENCHMARK.json, one fresh interpreter each."""
    status = 0
    for entry in load_spec()["workloads"]:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", entry["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", args.out]
        if args.trace_out:
            command += ["--trace-out", f"{args.trace_out}.{entry['name']}"]
        status |= subprocess.run(command, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_runs(args.compare[0], args.compare[1], load_spec())
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: the program under test (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(
            load_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    if args.workload not in {entry["name"]
                             for entry in load_spec()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
