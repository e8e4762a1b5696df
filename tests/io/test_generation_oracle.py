"""``rank_outofcore`` writes the generation its per-site oracle wrote.

The out-of-core round moves arrays: URLs travel from the disk graph to
the generation as undecoded bytes, the writer takes a run of sites per
call and ``finalize`` indexes whole windows of shards.  None of that may
change a byte on disk: every file of the generation — ``manifest.json``
included — must equal what the per-site loop frozen in
``generation_oracle.py`` writes, cold and warm, on webs with non-ASCII
and ``%``-escaped URLs, one-document sites, fused and dedicated units
interleaved in site order, and preferences.

Tier-1 runs a short fixed budget; the long one is a CI step::

    PYTHONPATH=src python -m pytest tests/io/test_generation_oracle.py \\
        --hypothesis-profile=oracle-long
"""

import mmap
import os
import tempfile
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generation_oracle import oracle_rank
from repro import obs
from repro.engine import outofcore, plan, plan_solve_units, rank_outofcore
from repro.engine.plan import BATCH_TARGET_DOCS
from repro.io import ArtifactStore, write_diskgraph
from repro.io.artifacts import GenerationWriter
from repro.io.diskgraph import BLOCKS_FILE, DiskGraph
from repro.web.docgraph import DocGraph

LONG_PROFILE = "oracle-long"

#: The property budget: the loaded profile's under ``oracle-long``, a
#: short fixed one in tier-1.
BUDGET = (
    settings(deadline=None)
    if settings.get_current_profile_name() == LONG_PROFILE
    else settings(max_examples=10, deadline=None, derandomize=True))

#: Path characters: ASCII, two- and three-byte UTF-8, and escapes.
_PATH_TEXT = st.text(alphabet="az09-_.~éü日本%2F", max_size=5)


@st.composite
def webs(draw):
    """A DocGraph, its preferences, a site preference and a chunk size."""
    sizes = draw(st.lists(st.sampled_from([1, 1, 2, 3, 8, 30, 520]),
                          min_size=1, max_size=6))
    names = draw(st.lists(_PATH_TEXT, min_size=len(sizes),
                          max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    # Documents arrive interleaved across sites, so a site's ids are
    # scattered and its URLs are not one byte range of the table.
    owners = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    graph, made = DocGraph(), [0] * len(sizes)
    for owner in owners.tolist():
        graph.add_document(
            f"http://s{owner}.example.org/{names[owner]}{made[owner]}",
            site=f"s{owner}.example.org")
        made[owner] += 1
    n = graph.n_documents
    for source, target in rng.integers(0, n, size=(2 * n, 2)).tolist():
        graph.add_link_by_id(source, target)
    preferences = {
        site: _distribution(rng, len(graph.documents_of_site(site)))
        for site in graph.sites() if draw(st.booleans())}
    site_preference = (_distribution(rng, len(graph.sites()))
                       if draw(st.booleans()) else None)
    # A small chunk target splits the fused sites into several units; a
    # small window target splits the units into several windows, so a
    # fused chunk can wait for a dedicated site of a later window.
    target_docs = draw(st.sampled_from([None, 1, 4, 40]))
    window_docs = draw(st.sampled_from([None, 1, 30, 600]))
    return graph, preferences, site_preference, target_docs, window_docs


def narrowed(**limits) -> ExitStack:
    """``fuse_schedule`` with *limits* in place of its callers' for the
    driver's site kinds (``plan``) and the oracle's units
    (``outofcore.plan_solve_units``) alike."""
    schedule = plan.fuse_schedule

    def scaled(sizes, **given):
        return schedule(sizes, **{**given, **limits})

    stack = ExitStack()
    for module in (plan, outofcore):
        stack.enter_context(mock.patch.object(module, "fuse_schedule",
                                              scaled))
    return stack


def _distribution(rng, size: int) -> np.ndarray:
    vector = rng.random(size) + 0.1
    return vector / vector.sum()


def _same_files(left: str, right: str) -> None:
    assert sorted(os.listdir(left)) == sorted(os.listdir(right))
    for name in os.listdir(left):
        with open(os.path.join(left, name), "rb") as ours, \
                open(os.path.join(right, name), "rb") as theirs:
            assert ours.read() == theirs.read(), name


@BUDGET
@given(webs())
def test_generation_is_byte_equal_to_the_oracle(web):
    graph, preferences, site_preference, target_docs, window_docs = web
    limits = {} if target_docs is None else {"target_docs": target_docs}
    with tempfile.TemporaryDirectory() as root, narrowed(**limits), \
            mock.patch.object(outofcore, "BATCH_TARGET_DOCS",
                              window_docs or BATCH_TARGET_DOCS):
        disk = write_diskgraph(graph, os.path.join(root, "graph"),
                               preferences=preferences)
        store = ArtifactStore(os.path.join(root, "store"), create=True)
        cold = rank_outofcore(disk, store, site_preference=site_preference)
        _same_files(cold.generation.path,
                    oracle_rank(disk, os.path.join(root, "oracle-cold"),
                                site_preference=site_preference).path)
        warm = rank_outofcore(disk, store, site_preference=site_preference,
                              warm=cold.generation)
        _same_files(warm.generation.path,
                    oracle_rank(disk, os.path.join(root, "oracle-warm"),
                                site_preference=site_preference,
                                warm=cold.generation).path)


def _count_block_mappings(monkeypatch, disk) -> list:
    """A list that grows by one per mapping of *disk*'s ``blocks.bin``."""
    blocks = os.stat(os.path.join(disk.path, BLOCKS_FILE))
    opened = []
    original = mmap.mmap

    def counting(fileno, *args, **kwargs):
        # np.memmap maps through mmap.mmap too, so this sees every mapping.
        if fileno >= 0 and os.path.samestat(os.fstat(fileno), blocks):
            opened.append(fileno)
        return original(fileno, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", counting)
    return opened


def test_cold_rank_maps_each_unit_once(tmp_path, monkeypatch):
    """Two mappings of ``blocks.bin`` per solve unit (its blocks, its
    URLs) plus the SiteGraph's — not six per site."""
    from repro.graphgen import generate_synthetic_web

    web = generate_synthetic_web(n_sites=60, n_documents=900, seed=3)
    disk = write_diskgraph(web, tmp_path / "graph")
    opened = _count_block_mappings(monkeypatch, disk)
    # Sites above 16 documents solve on their own: fused and dedicated
    # units interleave.
    units = plan_solve_units(disk.sites(), disk.site_sizes(), max_docs=16)
    assert {unit.kind for unit in units} == {"fused", "dedicated"}
    obs.enable()
    before = obs.registry().counter_value("diskgraph_mappings_total")
    with narrowed(max_docs=16):
        ranked = rank_outofcore(disk, tmp_path / "store")
    counted = obs.registry().counter_value("diskgraph_mappings_total")
    assert len(opened) <= 2 * len(units) + 4
    assert counted - before == len(opened)
    assert len(units) < disk.n_sites  # the bound is below one per site
    assert ranked.n_documents == web.n_documents


def _dedicated_and_tiny_sites() -> DocGraph:
    """Six sites over ``BATCH_SITE_MAX_DOCS`` (rings of 600 pages), each
    followed by a tiny one: seven solve units, six dedicated."""
    graph = DocGraph()
    for index in range(6):
        for site, n_pages in ((f"big{index}", 600), (f"tiny{index}", 3)):
            pages = [f"http://{site}.example.org/p{page}.html"
                     for page in range(n_pages)]
            for source, target in zip(pages, pages[1:] + pages[:1]):
                graph.add_link(source, target)
    return graph


@pytest.mark.parametrize("window_docs", [BATCH_TARGET_DOCS, 1300])
def test_cold_rank_maps_each_window_once(tmp_path, monkeypatch, window_docs):
    """Two mappings of ``blocks.bin`` per window (its blocks, its URLs)
    plus the SiteGraph's — fewer than two per solve unit."""
    disk = write_diskgraph(_dedicated_and_tiny_sites(), tmp_path / "graph")
    opened = _count_block_mappings(monkeypatch, disk)
    monkeypatch.setattr(outofcore, "BATCH_TARGET_DOCS", window_docs)
    units = plan_solve_units(disk.sites(), disk.site_sizes())
    assert [unit.kind for unit in units].count("dedicated") == 6
    # One window holds every unit; 1300 documents hold two big sites.
    n_windows = 1 if window_docs == BATCH_TARGET_DOCS else 3
    obs.enable()
    registry = obs.registry()
    before = {name: registry.counter_value(name) for name in (
        "diskgraph_mappings_total", "outofcore_windows_total",
        "outofcore_units_total")}
    ranked = rank_outofcore(disk, tmp_path / "store")
    counted = {name: registry.counter_value(name) - value
               for name, value in before.items()}
    assert counted["outofcore_windows_total"] == n_windows
    # Solve tasks dispatched: the six big sites, plus the tiny sites'
    # fused batch in each window.
    assert counted["outofcore_units_total"] == 6 + n_windows
    assert len(opened) <= 2 * n_windows + 4 < 2 * len(units)
    assert counted["diskgraph_mappings_total"] == len(opened)
    assert ranked.n_documents == disk.n_documents


def _small_sites_around_big_ones() -> DocGraph:
    """Five sites of three pages around two of 600: the small sites are
    one fused unit that straddles both dedicated ones."""
    graph = DocGraph()
    for site, n_pages in (("tiny0", 3), ("tiny1", 3), ("big0", 600),
                          ("tiny2", 3), ("tiny3", 3), ("big1", 600),
                          ("tiny4", 3)):
        pages = [f"http://{site}.example.org/p{page}.html"
                 for page in range(n_pages)]
        for source, target in zip(pages, pages[1:] + pages[:1]):
            graph.add_link(source, target)
    return graph


def test_windows_are_runs_of_sites_written_at_once(tmp_path, monkeypatch):
    """A window is a run of consecutive sites: the sites it maps are the
    sites it writes, with one ``append_sites`` call, so no solved site is
    held for a later window — even where a fused unit straddles a
    dedicated site."""
    disk = write_diskgraph(_small_sites_around_big_ones(),
                           tmp_path / "graph")
    units = plan_solve_units(disk.sites(), disk.site_sizes())
    assert [unit.kind for unit in units] == ["fused", "dedicated",
                                             "dedicated"]
    mapped, written = [], []

    def recording(calls, method):
        def wrapper(self, sites, *args, **kwargs):
            calls.append(list(sites))
            return method(self, sites, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(DiskGraph, "unit_blocks",
                        recording(mapped, DiskGraph.unit_blocks))
    monkeypatch.setattr(GenerationWriter, "append_sites",
                        recording(written, GenerationWriter.append_sites))
    monkeypatch.setattr(outofcore, "BATCH_TARGET_DOCS", 700)
    opened = _count_block_mappings(monkeypatch, disk)
    ranked = rank_outofcore(disk, tmp_path / "store")
    assert written == [
        ["tiny0.example.org", "tiny1.example.org", "big0.example.org",
         "tiny2.example.org", "tiny3.example.org"],
        ["big1.example.org", "tiny4.example.org"]]
    assert mapped == written
    assert len(opened) <= 2 * len(written) + 4
    _same_files(ranked.generation.path,
                oracle_rank(disk, str(tmp_path / "oracle")).path)


def test_window_spans_are_recorded_per_window(tmp_path, monkeypatch):
    disk = write_diskgraph(_dedicated_and_tiny_sites(), tmp_path / "graph")
    monkeypatch.setattr(outofcore, "BATCH_TARGET_DOCS", 1300)
    obs.enable()
    obs.reset()
    rank_outofcore(disk, tmp_path / "store")
    phases = {sample["labels"]["phase"]: sample["count"]
              for sample in obs.snapshot()["histograms"]
              if sample["name"] == "phase_seconds"}
    assert [phases.get(f"outofcore.window.{name}")
            for name in ("map", "solve", "write")] == [3, 3, 3]


@pytest.mark.parametrize("kind", ["fused", "dedicated"])
def test_units_and_bytes_are_counted_per_unit(tmp_path, kind):
    from repro.graphgen import generate_synthetic_web

    web = generate_synthetic_web(n_sites=12, n_documents=300, seed=4)
    disk = write_diskgraph(web, tmp_path / "graph")
    max_docs = 0 if kind == "dedicated" else 512
    units = plan_solve_units(disk.sites(), disk.site_sizes(),
                             max_docs=max_docs)
    obs.enable()
    registry = obs.registry()
    before = {name: registry.counter_value(name) for name in (
        "outofcore_units_total", "generation_bytes_written_total")}
    with narrowed(max_docs=max_docs):
        ranked = rank_outofcore(disk, tmp_path / "store")
    assert registry.counter_value("outofcore_units_total") \
        - before["outofcore_units_total"] == len(units)
    # Every streamed byte of the five appended files: two float vectors,
    # the ids, the URL bytes and one offset per document.
    streamed = sum(os.path.getsize(os.path.join(ranked.generation.path, f))
                   for f in ("scores.bin", "local_scores.bin", "doc_ids.bin",
                             "urls.bin", "url_offsets.bin")) - 8
    assert registry.counter_value("generation_bytes_written_total") \
        - before["generation_bytes_written_total"] == streamed
