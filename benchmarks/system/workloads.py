"""The four workloads of the system benchmark (untraced, end-to-end side).

Each workload drives the program's public API only and has the same three
steps: ``build`` (one full set-up: generate the inputs, bring the program
to the state the timed rounds start from, one warm-up pass), ``measure``
(the timed rounds) and ``verify`` (output checks that need memory, run
after peak RSS is read).  What each one stresses, and which layers it
idles on purpose, is recorded in ``BENCHMARK.json`` and in the README.

Every workload reports the same three timings, each with the meaning the
workload gives it:

``work_per_s``      throughput of the workload's main operation
``work_p50_ms``     median latency of one main operation
``intake_p50_ms``   median latency of taking in new input
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Sequence

import numpy as np

import loadgen
import webgen
from speed import SpeedProbe
from repro.api import Ranker, RankingConfig
from repro.engine.outofcore import rank_outofcore
from repro.io.diskgraph import DiskGraphBuilder
from repro.io.edgelist import read_url_edgelist, stream_url_edgelist
from repro.ir import synthesize_corpus
from repro.serving.frontend import AsyncRankingServer
from repro.serving.mmapstore import MmapScoreStore
from repro.serving.topk import TopKEngine

#: Timed rounds every end-to-end timing is a median over (at least), for
#: the rank and for the serve workloads.  The box's speed is sampled
#: (``speed.SpeedProbe``) around every round, so shorter, more numerous
#: serve rounds also mean a better speed estimate.
MIN_ROUNDS = 5
SERVE_ROUNDS = 8
#: ``Ranker.fit`` calls per rank round: even, so the two-cycle in which
#: identical fits alternate between two wall times on this box cancels.
FITS_PER_ROUND = 4
#: Cold ``rank_outofcore`` runs per disk round.
DISK_RANKS_PER_ROUND = 2
#: Closed-loop clients of ``serve_text`` (= visible cores of the box).
TEXT_CLIENTS = 2
#: ``add_link`` updates per second of ``serve_link_update`` (open loop).
UPDATES_PER_SECOND = 4.0
#: Seconds of warm-up traffic a serve set-up sends before it is ready.
WARMUP_SECONDS = 0.5
#: Link requests generated per second of round, far above what the server
#: can answer, so the stream never runs dry inside a round (a text stream
#: always holds its whole slot, ~7500 requests).
LINK_PATHS_PER_SECOND = 6000

LINKS_PER_DOCUMENT = 4.83


def _spec(n_documents: int, n_sites: int, pareto_shape: float = 1.6,
          tiny_sites: int = 0) -> webgen.WebSpec:
    return webgen.WebSpec(n_documents, n_sites,
                          int(n_documents * LINKS_PER_DOCUMENT),
                          pareto_shape=pareto_shape, tiny_sites=tiny_sites)


#: Web of each workload: (full size, ``--smoke`` size).  Sized so that one
#: run with three set-ups and >= 5 rounds ends in ~30 s on a 2-core box;
#: if the time cap moves, shrink documents, never rounds.
SPECS = {
    "rank_mem_small": (_spec(20_000, 1000), _spec(600, 30)),
    "rank_disk_large": (_spec(20_000, 24, 0.0, 8), _spec(2400, 6, 0.0, 2)),
    "serve_text": (_spec(10_000, 200), _spec(300, 10)),
    "serve_link_update": (_spec(10_000, 200), _spec(300, 10)),
}


@dataclass
class Samples:
    """Per-round samples of the three timings plus the operation counts."""

    work_per_s: List[float] = field(default_factory=list)
    work_p50_ms: List[float] = field(default_factory=list)
    intake_p50_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def _more_rounds(walls: Sequence[float], started: float, seconds: float,
                 min_rounds: int) -> bool:
    """Whether another round of the usual length fits the time window."""
    if len(walls) < min_rounds:
        return True
    return perf_counter() - started + statistics.median(walls) <= seconds


class Workload:
    """Common state: the generated web, a private work directory."""

    name = ""

    def __init__(self, seed: int, workdir: str, smoke: bool,
                 probe: SpeedProbe) -> None:
        self.seed = seed
        self.smoke = smoke
        self.probe = probe
        self.spec = SPECS[self.name][1 if smoke else 0]
        self.workdir = workdir
        self.samples = Samples()
        self.web: webgen.GeneratedWeb = None

    def begin_round(self) -> None:
        """Between rounds: collect garbage, then sample the box's speed.

        Collecting here means a round starts without the previous round's
        cyclic garbage (old stores, dropped graphs), whenever the
        collector last happened to run.
        """
        gc.collect()
        self.probe.sample()

    def generate(self) -> None:
        self.web = webgen.write_web(
            self.spec, self.seed, os.path.join(self.workdir, "web.tsv"))

    def build(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Checks that allocate; run after peak RSS was read."""

    def teardown(self) -> None:
        """Release what ``build`` created."""


# --------------------------------------------------------------------- #
# rank workloads
# --------------------------------------------------------------------- #
class _Rank(Workload):
    """Edge-list file -> graph object -> scores with a top-10 ready.

    A round ingests the file once and ranks the graph ``ranks_per_round``
    times; rounds are added while a usual one still fits the window.
    """

    ranks_per_round = 1

    def _ingest(self):
        """Edge-list file -> the graph object ``_rank`` takes."""
        raise NotImplementedError

    def _rank(self, graph) -> List[int]:
        """Graph -> scores; checks them and returns the top-10 ids."""
        raise NotImplementedError

    def _before_round(self) -> None:
        """Untimed housekeeping between rounds."""

    def build(self) -> None:
        self.generate()
        self._rank(self._ingest())
        self._before_round()

    def measure(self, seconds: float) -> None:
        samples, n_documents = self.samples, self.spec.n_documents
        ranks = 1 if self.smoke else self.ranks_per_round
        min_rounds = 1 if self.smoke else MIN_ROUNDS
        walls: List[float] = []
        reference_top = None
        started = perf_counter()
        while _more_rounds(walls, started, seconds, min_rounds):
            self._before_round()
            self.begin_round()
            round_started = perf_counter()
            graph = self._ingest()
            ingested = perf_counter()
            self.probe.sample()
            rank_walls = []
            for index in range(ranks):
                if index and index == ranks // 2:
                    self.probe.sample()
                rank_started = perf_counter()
                top = self._rank(graph)
                rank_walls.append(perf_counter() - rank_started)
                samples.attempted += 1
                if reference_top is None:
                    reference_top = top
                if top != reference_top:
                    samples.fail("top-10 differs between rounds")
            samples.attempted += 1
            if graph.n_documents != n_documents:
                samples.fail("ingest lost documents")
            samples.intake_p50_ms.append((ingested - round_started) * 1e3)
            samples.work_per_s.append(n_documents * ranks / sum(rank_walls))
            samples.work_p50_ms.append(statistics.median(rank_walls) * 1e3)
            walls.append(perf_counter() - round_started)
            del graph
        self.probe.sample()


class RankMemSmall(_Rank):
    """``read_url_edgelist`` -> default ``Ranker.fit`` -> ``top_k(10)``."""

    name = "rank_mem_small"
    ranks_per_round = FITS_PER_ROUND

    def _ingest(self):
        return read_url_edgelist(self.web.path)

    def _rank(self, docgraph) -> List[int]:
        result = Ranker(RankingConfig()).fit(docgraph)
        if (result.scores.size != self.spec.n_documents
                or abs(float(result.scores.sum()) - 1.0) > 1e-9):
            self.samples.fail("scores do not sum to 1 over all documents")
        return result.top_k(10)


class RankDiskLarge(_Rank):
    """``DiskGraphBuilder`` -> cold ``rank_outofcore`` into a fresh store
    -> ``MmapScoreStore`` + ``TopKEngine.top_k(10)``."""

    name = "rank_disk_large"
    ranks_per_round = DISK_RANKS_PER_ROUND

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._serial = 0
        self._last_generation = None

    def _fresh_dir(self, kind: str) -> str:
        self._serial += 1
        return os.path.join(self.workdir, f"{kind}-{self._serial}")

    def _ingest(self):
        builder = DiskGraphBuilder(self._fresh_dir("graph"))
        builder.consume(stream_url_edgelist(self.web.path))
        return builder.finalize()

    def _rank(self, graph) -> List[int]:
        ranking = rank_outofcore(graph, self._fresh_dir("store"))
        self._last_generation = ranking.generation
        return TopKEngine(MmapScoreStore(ranking.generation)).top_k_ids(10)

    def _before_round(self) -> None:
        """Delete the directories earlier rounds left behind."""
        self._last_generation = None
        for entry in os.listdir(self.workdir):
            if entry.startswith(("graph-", "store-")):
                shutil.rmtree(os.path.join(self.workdir, entry))

    def verify(self) -> None:
        """The last disk generation must equal the in-memory fit bitwise."""
        reference = Ranker(RankingConfig()).fit(
            read_url_edgelist(self.web.path)).ranking
        generation = self._last_generation
        self.samples.attempted += 1
        if not (np.array_equal(generation.array("scores"), reference.scores)
                and np.array_equal(generation.array("doc_ids"),
                                   np.asarray(reference.doc_ids))):
            self.samples.fail("disk generation differs from the in-memory "
                              "fit")

    def teardown(self) -> None:
        self._before_round()


# --------------------------------------------------------------------- #
# serve workloads
# --------------------------------------------------------------------- #
class _Serve(Workload):
    """A service behind a default-config ``AsyncRankingServer``, in this
    process; rounds are fixed-length windows of closed-loop HTTP traffic."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.docgraph = None
        self.service = None
        self.server = None
        self._slot = 0

    def _start(self) -> None:
        """Build ``self.service`` from ``self.docgraph``."""
        raise NotImplementedError

    def _streams(self, seconds: float) -> List[List[str]]:
        raise NotImplementedError

    def _round(self, seconds: float) -> loadgen.RoundLog:
        return loadgen.run_round(self.server, self.service,
                                 self._streams(seconds), seconds)

    def _serve(self) -> float:
        """Graph (+ corpus) -> answering server; returns the wall time."""
        started = perf_counter()
        self._start()
        self.server = AsyncRankingServer(self.service)
        return perf_counter() - started

    def _stop(self) -> None:
        if self.server is not None:
            self.server.close()
            self.service.close()
            self.server = self.service = None

    def build(self) -> None:
        self.generate()
        self.docgraph = read_url_edgelist(self.web.path)
        self._prepare()
        self._serve()
        self._account(self._round(0.1 if self.smoke else WARMUP_SECONDS))

    def _prepare(self) -> None:
        """Inputs derived from the ingested graph (the text corpus)."""

    def _account(self, log: loadgen.RoundLog) -> None:
        samples = self.samples
        samples.attempted += log.attempted
        samples.failed += log.failed
        for error in log.errors:
            samples.fail(error)

    def _record(self, log: loadgen.RoundLog) -> None:
        self._account(log)
        latencies = log.latencies
        if not latencies:
            self.samples.fail("a round completed no request")
            return
        self.samples.work_per_s.append(len(latencies) / log.wall)
        self.samples.work_p50_ms.append(statistics.median(latencies) * 1e3)

    def _rounds(self, seconds: float):
        """``(number of rounds, seconds per round)`` of a measurement."""
        rounds = 1 if self.smoke else SERVE_ROUNDS
        return rounds, seconds / rounds

    def teardown(self) -> None:
        self._stop()


class ServeText(_Serve):
    """Cache-cold text+link ``/query`` traffic from two clients.

    Every round runs against a freshly built service, so a round cannot
    be served from an earlier round's cache, and the build itself —
    ranked graph + corpus -> answering server — is this workload's
    ``intake_p50_ms``.
    """

    name = "serve_text"

    def _prepare(self) -> None:
        self.corpus = synthesize_corpus(self.docgraph, seed=self.seed)

    def _start(self) -> None:
        self.service = Ranker(RankingConfig()).serve(
            docgraph=self.docgraph, corpus=self.corpus)

    def _streams(self, seconds: float) -> List[List[str]]:
        streams = []
        for _ in range(TEXT_CLIENTS):
            streams.append(webgen.text_query_paths(self.seed, self._slot))
            self._slot += 1
        return streams

    def measure(self, seconds: float) -> None:
        rounds, window = self._rounds(seconds)
        for _ in range(rounds):
            self._stop()
            self.begin_round()
            self.samples.attempted += 1
            self.samples.intake_p50_ms.append(self._serve() * 1e3)
            self.probe.sample()
            self._record(self._round(window))
        self.probe.sample()


class ServeLinkUpdate(_Serve):
    """Link-only reads from one client beside an open-loop ``add_link``
    updater; ``intake_p50_ms`` is the update latency from its due time to
    the rebuilt store answering over HTTP."""

    name = "serve_link_update"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.live = None
        self._updates_sent = 0

    def _start(self) -> None:
        ranker = Ranker(RankingConfig())
        self.live = ranker.incremental(self.docgraph)
        self.service = ranker.serve(incremental=self.live)
        self._updates = webgen.update_links(self.web, self.seed, 4096)
        self._updates_sent = 0

    def _stop(self) -> None:
        super()._stop()
        if self.live is not None:
            self.live.close()
            self.live = None

    def _streams(self, seconds: float) -> List[List[str]]:
        count = max(200, int(seconds * LINK_PATHS_PER_SECOND))
        self._slot += 1
        return [webgen.link_query_paths(self.web, self.seed, self._slot,
                                        count)]

    def _round(self, seconds: float) -> loadgen.RoundLog:
        log = loadgen.run_round(
            self.server, self.service, self._streams(seconds), seconds,
            live=self.live, updates=self._updates[self._updates_sent:],
            update_interval=1.0 / UPDATES_PER_SECOND)
        self._updates_sent += log.updates.attempted
        return log

    def measure(self, seconds: float) -> None:
        rounds, window = self._rounds(seconds)
        lags: List[float] = []
        for _ in range(rounds):
            self.begin_round()
            log = self._round(window)
            self._record(log)
            if not log.updates.latencies:
                self.samples.fail("a round completed no update")
                continue
            self.samples.intake_p50_ms.append(
                statistics.median(log.updates.latencies) * 1e3)
            lags.extend(log.updates.start_lag)
        self.probe.sample()
        if lags:
            # How late the open-loop generator itself ran.
            self.samples.extra["update_start_lag_p50_ms"] = \
                statistics.median(lags) * 1e3


WORKLOADS = {cls.name: cls for cls in (RankMemSmall, RankDiskLarge,
                                       ServeText, ServeLinkUpdate)}
