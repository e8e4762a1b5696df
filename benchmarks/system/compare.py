"""``run.py --compare A B``: two sets of runs, metric by metric.

A and B are files written with ``--out`` (one JSON record per run).  For
every (workload, end-to-end metric) the medians and quartiles of both
sets are printed with a conservative verdict:

``unresolved``  a set's own quartile spread (q3 - q1, as a share of its
                median) exceeds the metric's bound: the runs cannot tell
``regressed``   B's median is worse than A's by more than the bound
``improved``    B's median is better than A's by more than the bound
``unchanged``   anything else

Two sets of runs of one commit must come out ``unchanged`` on every row;
that is the benchmark's agreement check.  Per-layer metrics of traced
runs have no bound: they are listed with their change and no verdict.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [value per run]}`` of one ``--out`` file."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(a: List[float], b: List[float], bound: float,
            better: str) -> str:
    """The conservative four-way verdict described in the module docstring."""
    (a_low, a_mid, a_high), (b_low, b_mid, b_high) = quartiles(a), quartiles(b)
    if a_mid == 0 or b_mid == 0:
        return "unresolved"
    if max((a_high - a_low) / abs(a_mid),
           (b_high - b_low) / abs(b_mid)) > bound:
        return "unresolved"
    change = (b_mid - a_mid) / abs(a_mid)
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def main(path_a: str, path_b: str, spec: dict) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    gated = {entry["name"]: entry for entry in spec["end_to_end"]}
    print(f"{'workload':18s} {'metric':44s} {'A q1/median/q3':>38s} "
          f"{'B q1/median/q3':>38s} {'change':>8s}  verdict")
    clean = True
    for key in sorted(set(runs_a) & set(runs_b),
                      key=lambda pair: (pair[0], pair[1] not in gated,
                                        pair[1])):
        workload, name = key
        a, b = runs_a[key], runs_b[key]
        (a_low, a_mid, a_high), (b_low, b_mid, b_high) = \
            quartiles(a), quartiles(b)
        change = (b_mid - a_mid) / abs(a_mid) if a_mid else float("nan")
        if name in gated:
            outcome = verdict(a, b, gated[name]["bound"],
                              gated[name]["better"])
            clean = clean and outcome in ("unchanged", "improved")
        else:
            outcome = "-"
        print(f"{workload:18s} {name:44s} "
              f"{a_low:12.4g}{a_mid:13.4g}{a_high:13.4g} "
              f"{b_low:12.4g}{b_mid:13.4g}{b_high:13.4g} "
              f"{change:+8.1%}  {outcome} (n={len(a)}/{len(b)})")
    return 0 if clean else 1
