"""Shared fixtures and helpers for the benchmark harness.

Every ``bench_*.py`` module reproduces one numbered experiment (``E<n>`` in
its docstring).  Besides timing the relevant computation with
pytest-benchmark, each module *prints* the paper-style table it regenerates
and writes it (plus a JSON version) to ``benchmarks/results/`` so the
numbers quoted in README.md and CHANGES.md can be traced to an artefact.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.graphgen import generate_campus_web, generate_synthetic_web  # noqa: E402
from repro.io import experiment_rows_to_markdown, save_json  # noqa: E402

# The historical pipeline entry points, re-exported under their public
# names so every bench module imports them from one place (the 1.x shims
# were removed in 1.4; these are the private spellings that replaced them).
from repro.web.pipeline import _flat_pagerank_ranking as flat_pagerank_ranking  # noqa: E402,F401
from repro.web.pipeline import _layered_docrank as layered_docrank  # noqa: E402,F401
from repro.web.incremental import IncrementalLayeredRanker  # noqa: E402,F401

#: Directory where benchmark tables/JSON artefacts are written.
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

#: Smoke mode (``REPRO_BENCH_SMOKE=1``): shrink benchmark inputs so the CI
#: step finishes in seconds while still executing every code path — shape
#: assertions (e.g. "parallel beats serial by 2x") are relaxed, scheduling
#: regressions (wrong results, broken executors) still fail the build.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Web sizes the E8 scaling benchmark sweeps (shrunk in smoke mode).
SCALING_SIZES = [250, 500, 1000] if SMOKE else [1000, 4000, 16000]


def write_result(experiment_id: str, rows: List[Dict], columns: List[str],
                 *, caption: str = "") -> str:
    """Print and persist one experiment's table; return the markdown."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    table = experiment_rows_to_markdown(rows, columns)
    text = f"### {experiment_id}\n\n{caption}\n\n{table}\n"
    print(f"\n{text}")
    with open(os.path.join(RESULTS_DIR, f"{experiment_id}.md"), "w",
              encoding="utf-8") as handle:
        handle.write(text)
    save_json({"experiment": experiment_id, "caption": caption, "rows": rows},
              os.path.join(RESULTS_DIR, f"{experiment_id}.json"))
    return table


@pytest.fixture(scope="session")
def campus():
    """The campus web used by the Figure 3/4, spam and ablation benchmarks.

    Scaled to ~1/60 of the paper's crawl (which had 218 sites / 433k pages)
    so the whole benchmark suite runs in minutes; the structural ingredients
    (power-law site sizes, two farms, authoritative main site) are identical.
    """
    return generate_campus_web(n_sites=40, n_documents=4000,
                               webdriver_farm_pages=600,
                               javadoc_farm_pages=400,
                               inter_site_links=1800, seed=2003)


@pytest.fixture(scope="session")
def synthetic_webs():
    """Synthetic hierarchical webs of increasing size for the scaling bench."""
    return {
        n: generate_synthetic_web(n_sites=max(8, n // 250), n_documents=n,
                                  seed=31)
        for n in SCALING_SIZES
    }
