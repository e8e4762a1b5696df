"""Telemetry of the ingest layer: edge-list read and streamed disk build."""

from repro import obs
from repro.io import DiskGraphBuilder, read_url_edgelist

_EDGES = [("http://a.org/x", "http://a.org/y"),
          ("HTTP://A.org:80/x", "http://b.org/"),
          ("http://a.org/y", "http://a.org/x"),
          ("http://b.org/", "http://a.org/x")]


def _counters():
    return {entry["name"]: entry["value"]
            for entry in obs.snapshot(include_collected=False)["counters"]}


def _phases():
    return {entry["labels"]["phase"]: entry["count"]
            for entry in obs.snapshot(include_collected=False)["histograms"]
            if entry["name"] == "phase_seconds"}


def test_read_url_edgelist_counts_once_per_call(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{s} {t}\n" for s, t in _EDGES))
    read_url_edgelist(path)
    assert _counters() == {
        "ingest_edges_total": 4, "ingest_documents_total": 3,
        "ingest_url_lookups_total": 8,
        # three documents plus the one non-canonical spelling
        "ingest_url_parses_total": 4}
    assert _phases() == {"ingest.edgelist.read": 1}


def test_disk_builder_counts_per_chunk_and_spilled_bytes(tmp_path):
    builder = DiskGraphBuilder(tmp_path / "g")
    builder.consume([_EDGES[:2], _EDGES[2:]])
    builder.finalize()
    counters = _counters()
    assert counters == {
        "ingest_edges_total": 4, "ingest_documents_total": 3,
        "ingest_url_lookups_total": 8, "ingest_url_parses_total": 4,
        # two intra-site links, one (source, target) int64 pair each
        "ingest_spill_bytes_total": 32}
    assert _phases() == {"ingest.diskgraph.consume": 1,
                         "ingest.diskgraph.finalize": 1}


def test_disabled_telemetry_records_nothing(tmp_path):
    obs.disable()
    builder = DiskGraphBuilder(tmp_path / "g")
    builder.consume([_EDGES])
    builder.finalize()
    assert obs.snapshot(include_collected=False) == {
        "counters": [], "gauges": [], "histograms": []}
