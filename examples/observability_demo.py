#!/usr/bin/env python
"""Observability tour: metrics, phase timings, traces and /metrics.

Ranks a synthetic web, then walks the telemetry surfaces of
:mod:`repro.obs`:

* the phase timings attached to every :class:`repro.api.RankingResult`;
* the solver / engine counters the run recorded, as the same table
  ``repro stats`` prints;
* a span trace exported to JSON via ``Ranker.fit(trace=...)``;
* the Prometheus exposition a live ``AsyncRankingServer`` serves at
  ``/metrics``, scraped over a real socket and validated;
* the zero-cost escape hatch: ``obs.disable()``.

Run with::

    python examples/observability_demo.py
"""

import _bootstrap  # noqa: F401  (makes the example runnable from a checkout)

import json
import tempfile
import urllib.request

from _bootstrap import scaled

from repro import obs
from repro.api import Ranker
from repro.graphgen import generate_synthetic_web
from repro.serving import RankingService, serve_frontend


def main() -> None:
    web = generate_synthetic_web(n_sites=scaled(30, 6),
                                 n_documents=scaled(5_000, 300),
                                 seed=7)
    print(f"web: {web.n_documents} documents over {web.n_sites} sites\n")

    # -- 1. every fit records phase timings and a metrics snapshot -------
    obs.reset()
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        trace_path = tmp.name
    result = Ranker().fit(web, trace=trace_path)

    print("phase timings (canonical repro.obs keys):")
    for phase, seconds in sorted(result.timings.items()):
        print(f"  {phase:14s} {seconds * 1e3:8.2f} ms")

    # -- 2. the counters the run recorded (what `repro stats` prints) ----
    print("\nmetrics after one fit:")
    print(obs.render_table())

    # -- 3. the exported span trace --------------------------------------
    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    print(f"\ntrace: {len(trace['spans'])} spans "
          f"(schema version {trace['version']}, unit {trace['unit']})")
    for span in trace["spans"]:
        indent = "  " * span["depth"]
        print(f"  {indent}{span['name']:14s} {span['seconds'] * 1e3:8.2f} ms")

    # -- 4. the serving scrape surface -----------------------------------
    service = RankingService.from_ranking(result.ranking, web)
    server = serve_frontend(service)
    try:
        urllib.request.urlopen(server.url + "/top?k=5", timeout=10).read()
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=10) as response:
            exposition = response.read().decode("utf-8")
        with urllib.request.urlopen(server.url + "/healthz",
                                    timeout=10) as response:
            health = json.load(response)
    finally:
        server.close()

    obs.validate_exposition(exposition)  # raises on malformed text
    serving_lines = [line for line in exposition.splitlines()
                     if line.startswith("repro_serving_")]
    print(f"\n/metrics: {len(exposition.splitlines())} lines of valid "
          f"Prometheus exposition; serving samples:")
    for line in serving_lines[:6]:
        print(f"  {line}")
    print(f"/healthz: {health}")

    # -- 5. the escape hatch ---------------------------------------------
    obs.disable()
    obs.reset()
    Ranker().fit(web)
    snap = obs.snapshot()
    assert snap == {"counters": [], "gauges": [], "histograms": []}
    print("\nobs.disable(): a fit records nothing "
          "(and the hot loops allocate nothing)")
    obs.enable()


if __name__ == "__main__":
    main()
