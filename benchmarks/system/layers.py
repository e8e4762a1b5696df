"""The traced run: one pass over every layer, on the workload's own web.

The end-to-end rounds call the program the way a user does (one facade
call per stage).  Here the same stages are taken apart into the calls the
facades make, with a span around each, so a layer's self time can be
read off; then the serving layers are probed directly with the request
sample the HTTP clients use.  The decomposed in-memory rank must equal
``Ranker.fit`` bit for bit and the out-of-core generation must equal
both, or the trace is reported invalid.

Every workload runs the whole pass (a layer a workload idles end to end
still gets measured on that workload's web shape), so the per-layer table
has no holes; which end-to-end metric each layer moves, and on which
workload, is tabulated in the README.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from time import perf_counter
from typing import Dict, List
from urllib.parse import parse_qs, urlsplit

import numpy as np

import loadgen
import webgen
from repro import obs
from repro.api import Ranker, RankingConfig
from repro.engine.outofcore import plan_solve_units, rank_outofcore
from repro.engine.plan import (
    BatchedSiteTask,
    RankingPlan,
    SiteRankTask,
    batch_site_tasks,
    collect_site_results,
    site_tasks_for,
)
from repro.io.artifacts import ArtifactStore
from repro.io.diskgraph import DiskGraphBuilder, open_diskgraph
from repro.io.edgelist import (
    iter_url_edges,
    read_url_edgelist,
    stream_url_edgelist,
)
from repro.ir import VectorSpaceIndex, combine_candidates, synthesize_corpus
from repro.serving.frontend import AsyncRankingServer
from repro.serving.httpd import route_request
from repro.serving.mmapstore import MmapScoreStore
from repro.serving.service import RankingService
from repro.serving.store import ShardedScoreStore
from repro.serving.topk import TopKEngine
from repro.web.docgraph import DocGraph
from repro.web.pipeline import compose_ranking
from repro.web.sitegraph import aggregate_sitegraph
from spans import Tracer

#: Probe counts (full size, ``--smoke`` size).
TEXT_PROBES = (12, 3)
LINK_PROBES = (300, 30)
HTTP_LINK_REQUESTS = (1500, 60)
MMAP_TOPK_PROBES = (20, 3)
UPDATE_PROBES = (10, 2)
UPDATE_INTERVAL = 0.2


def _counter(name: str) -> float:
    """Current value of one unlabelled ``repro.obs`` counter."""
    for entry in obs.snapshot(include_collected=False)["counters"]:
        if entry["name"] == name and not entry["labels"]:
            return float(entry["value"])
    return 0.0


def _spmv_bytes(matrix) -> int:
    """Computed (not measured) bytes one CSR sweep moves: the matrix once,
    the input vector once and the output vector once."""
    return int(matrix.data.nbytes + matrix.indices.nbytes
               + matrix.indptr.nbytes + 2 * 8 * matrix.shape[0])


class LayerPass:
    """Runs the traced pass and collects the per-layer metrics."""

    def __init__(self, workload: str, web: webgen.GeneratedWeb, seed: int,
                 workdir: str, smoke: bool) -> None:
        self.tracer = Tracer(workload)
        self.web = web
        self.seed = seed
        self.workdir = workdir
        self.pick = 1 if smoke else 0
        self.counts: Dict[str, float] = {}
        self.problems: List[str] = []
        self.attempted = 0

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(message)

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, float]:
        span = self.tracer.span
        config = RankingConfig()

        # Untraced reference: the facade calls the rank rounds time.
        started = perf_counter()
        docgraph = read_url_edgelist(self.web.path)
        fitted = Ranker(config)
        reference = fitted.fit(docgraph).ranking
        facade_wall = perf_counter() - started

        with span("pass.rank_mem") as rank_mem:
            ranking = self._rank_in_memory(config)
        self.check(np.array_equal(ranking.scores, reference.scores)
                   and ranking.doc_ids == reference.doc_ids,
                   "decomposed rank differs from Ranker.fit")

        with span("pass.rank_disk"):
            generation = self._rank_on_disk(ranking)
        self.check(np.array_equal(generation.array("scores"),
                                  reference.scores),
                   "out-of-core generation differs from Ranker.fit")
        del ranking, generation

        with span("pass.serve"):
            service = self._build_service(fitted, docgraph)
            self._probe_text(service)
            self._probe_links(service)
            self._probe_http(service)
            service.close()
        with span("pass.update"):
            self._probe_updates(fitted)

        self.counts["trace.overhead_share"] = (
            (rank_mem["end"] - rank_mem["start"]) / facade_wall - 1.0)
        self.counts["trace.coverage_share"] = \
            self.tracer.coverage("pass.rank_mem")
        return self._metrics()

    # ------------------------------------------------------------------ #
    def _rank_in_memory(self, config: RankingConfig):
        """``read_url_edgelist`` + ``Ranker.fit``, one call per layer."""
        span = self.tracer.span
        with span("io.edgelist.parse"):
            with open(self.web.path, "r", encoding="utf-8") as handle:
                edges = list(iter_url_edges(handle))
        with span("web.docgraph.build"):
            docgraph = DocGraph.from_edges(edges)
        self.counts["io.edgelist.edges"] = len(edges)
        del edges

        with span("web.sitegraph.aggregate"):
            sitegraph = aggregate_sitegraph(
                docgraph, include_self_links=config.include_site_self_links)
        with span("engine.plan.build"):
            site_damping = (config.damping if config.site_damping is None
                            else config.site_damping)
            plan = RankingPlan(
                sitegraph,
                site_tasks_for(docgraph, config.damping, tol=config.tol,
                               max_iter=config.max_iter),
                SiteRankTask(sitegraph=sitegraph, damping=site_damping,
                             tol=config.tol, max_iter=config.max_iter))
        with span("engine.plan.batch"):
            payload = batch_site_tasks(plan.site_tasks)
        fused = [task for task in payload
                 if isinstance(task, BatchedSiteTask)]
        self.counts["engine.plan.n_tasks"] = len(payload) + 1
        self.counts["engine.plan.n_fused_batches"] = len(fused)
        self.counts["linalg.block_solver.nnz"] = sum(t.nnz for t in fused)
        self.counts["linalg.block_solver.bytes_per_sweep_computed"] = sum(
            _spmv_bytes(task.adjacency) for task in fused)

        sweeps = iterations = 0
        with span("engine.plan.execute"):
            with span("web.siterank.solve"):
                site_result = plan.siterank_task.run()
            results = []
            for task in payload:
                if isinstance(task, BatchedSiteTask):
                    with span("linalg.block_solver.solve"):
                        solved = task.run()
                    sweeps += max(rank.iterations for rank in solved)
                else:
                    with span("linalg.power_iteration.solve"):
                        solved = task.run()
                    iterations += solved.iterations
                results.append(solved)
            by_site = collect_site_results(payload, results)
            local = {task.site: by_site[task.site]
                     for task in plan.site_tasks}
        self.counts["linalg.block_solver.sweeps"] = sweeps
        self.counts["linalg.power_iteration.iterations"] = iterations
        self.counts["web.siterank.iterations"] = site_result.iterations
        with span("web.pipeline.compose"):
            ranking = compose_ranking(
                docgraph, sitegraph.sites, site_result, local,
                method="layered",
                iterations=site_result.iterations + sum(
                    rank.iterations for rank in local.values()))
        self._local, self._site_result = local, site_result
        return ranking

    # ------------------------------------------------------------------ #
    def _rank_on_disk(self, ranking):
        """Streamed disk build, cold + warm out-of-core rank, mmap serve."""
        span = self.tracer.span
        graph_dir = os.path.join(self.workdir, "trace-graph")
        with span("io.diskgraph.build"):
            builder = DiskGraphBuilder(graph_dir)
            builder.consume(stream_url_edgelist(self.web.path))
            builder.finalize()
        with span("io.diskgraph.open"):
            graph = open_diskgraph(graph_dir)
        self.counts["io.diskgraph.block_bytes"] = graph.nbytes
        self.counts["engine.outofcore.n_units"] = len(
            plan_solve_units(graph.sites(), graph.site_sizes()))

        store_dir = os.path.join(self.workdir, "trace-store")
        with span("engine.outofcore.rank_cold"):
            cold = rank_outofcore(graph, store_dir)
        with span("engine.outofcore.rank_warm"):
            warm = rank_outofcore(graph, cold.store, warm=cold.generation)
        self.counts["engine.outofcore.iterations_cold"] = cold.iterations
        self.counts["engine.outofcore.iterations_warm"] = warm.iterations

        # The artifact layer alone: the in-memory result written through
        # the same writer (rank_outofcore interleaves it with the solves).
        with span("io.artifacts.write_generation"):
            store = ArtifactStore(
                os.path.join(self.workdir, "trace-artifacts"), create=True)
            writer = store.create_generation(
                method="layered", n_documents=graph.n_documents)
            site_result = self._site_result
            for site in site_result.sites:
                rank = self._local[site]
                writer.append_site(site, rank.doc_ids,
                                   graph.urls_of_positions(rank.doc_ids),
                                   rank.scores, site_result.score_of(site),
                                   rank.iterations)
            written = writer.finalize(
                siterank_sites=site_result.sites,
                siterank_scores=site_result.scores,
                siterank_iterations=site_result.iterations,
                siterank_damping=site_result.damping,
                iterations=ranking.iterations)
            store.publish(written.name)
        self.counts["io.artifacts.generation_bytes"] = sum(
            os.path.getsize(os.path.join(written.path, entry))
            for entry in os.listdir(written.path))
        self.check(np.array_equal(written.array("scores"),
                                  cold.generation.array("scores")),
                   "written generation differs from the out-of-core one")

        with span("serving.mmapstore.open"):
            engine = TopKEngine(MmapScoreStore(cold.generation))
        for _ in range(MMAP_TOPK_PROBES[self.pick]):
            with span("serving.mmapstore.topk"):
                top = engine.top_k_ids(10)
        self.check(top == ranking.top_k(10),
                   "mmap top-10 differs from the in-memory top-10")
        return cold.generation

    # ------------------------------------------------------------------ #
    def _build_service(self, fitted: Ranker, docgraph):
        span = self.tracer.span
        corpus = synthesize_corpus(docgraph, seed=self.seed)
        with span("ir.index.build"):
            index = VectorSpaceIndex.from_corpus(corpus)
        with span("serving.store.build"):
            self._link_scores = ShardedScoreStore.from_ranking(
                fitted.result_.ranking, docgraph).link_scores()
        # The facade re-uses the fit it already holds for this graph.
        return fitted.serve(index=index)

    def _probe_text(self, service) -> None:
        """Search, combine and the whole query on never-seen texts."""
        span = self.tracer.span
        probes = TEXT_PROBES[self.pick]
        paths = webgen.text_query_paths(self.seed, 0, 2 * probes)
        texts = list(dict.fromkeys(
            parse_qs(urlsplit(path).query)["q"][0] for path in paths))
        candidates_seen = []
        for text in texts[:probes]:
            with span("ir.index.search"):
                candidates = service.index.search(text)
            with span("ir.combined.combine"):
                hits = combine_candidates(candidates, self._link_scores,
                                          k=10)
            with span("serving.service.query"):
                served = service.query(text, 10)
            candidates_seen.append(len(candidates))
            self.check([hit.doc_id for hit in hits]
                       == [hit.doc_id for hit in served],
                       "service.query disagrees with search + combine")
        self.counts["ir.index.candidates_per_query"] = \
            statistics.mean(candidates_seen)

    def _probe_links(self, service) -> None:
        """Heap-merge top-k, the service call and the router, each on a
        cold cache (the cache is emptied between the calls)."""
        span = self.tracer.span
        self._link_paths = webgen.link_query_paths(
            self.web, self.seed, 0, LINK_PROBES[self.pick])
        for path in self._link_paths:
            split = urlsplit(path)
            params = parse_qs(split.query)
            if split.path == "/top":
                k = int(params["k"][0])
                site = params.get("site", [None])[0]
                with span("serving.topk.miss"):
                    service.engine.top_k(k, site=site)
                service.cache.clear()
                with span("serving.service.top"):
                    service.top(k, site=site)
                service.cache.clear()
            with span("serving.httpd.route"):
                route_request(service, split.path, params)
        service.cache.clear()

    def _probe_http(self, service) -> None:
        """The probed link sample over HTTP (cold cache), a larger fresh
        sample for the natural hit rate, then concurrent text queries."""
        shed = _counter("frontend_shed_total")
        batches = _counter("frontend_batches_total")
        coalesced = _counter("frontend_coalesced_requests_total")
        fresh = webgen.link_query_paths(self.web, self.seed, 2,
                                        HTTP_LINK_REQUESTS[self.pick])
        text_paths = [webgen.text_query_paths(self.seed, 1 + client, 5)
                      for client in range(2)]
        with AsyncRankingServer(service) as server:
            with self.tracer.span("serving.frontend.http"):
                cold = loadgen.run_round(server, service,
                                         [self._link_paths], None)
            before = service.cache_stats
            hits, lookups = before.hits, before.lookups
            mixed = loadgen.run_round(server, service, [fresh], None)
            after = service.cache_stats
            texts = loadgen.run_round(server, service, text_paths, None)
        for log in (cold, mixed, texts):
            self.attempted += log.attempted
            if log.failed or log.errors:
                self.problems.append(f"traced HTTP requests failed: "
                                     f"{log.failed} {log.errors}")
        self.counts["serving.frontend.overhead_ms"] = (
            statistics.median(cold.latencies) * 1e3
            - self.tracer.median_ms("serving.httpd.route"))
        latencies = sorted(mixed.latencies)
        self.counts["serving.frontend.request_p95_ms"] = \
            latencies[int(0.95 * (len(latencies) - 1))] * 1e3
        self.counts["serving.cache.hit_rate"] = (
            (after.hits - hits) / max(1, after.lookups - lookups))
        new_batches = _counter("frontend_batches_total") - batches
        new_coalesced = (_counter("frontend_coalesced_requests_total")
                         - coalesced)
        # Share of /query requests that rode a batch with another one.
        self.counts["serving.frontend.coalesced_share"] = (
            (new_coalesced - new_batches) / max(1.0, new_coalesced))
        self.counts["serving.frontend.shed_total"] = (
            _counter("frontend_shed_total") - shed)

    # ------------------------------------------------------------------ #
    def _probe_updates(self, fitted: Ranker) -> None:
        """``add_link`` and the shard rebuild apart, one HTTP client
        reading beside them."""
        span = self.tracer.span
        live = fitted.incremental()
        service = RankingService.from_ranking(live.ranking(), live.docgraph)
        updates = webgen.update_links(self.web, self.seed,
                                      UPDATE_PROBES[self.pick])
        paths = webgen.link_query_paths(self.web, self.seed, 3, 100_000)
        invalidations = service.cache_stats.invalidations
        windows = []
        recomputed = 0
        log = loadgen.ClientLog()
        stop = threading.Event()
        with AsyncRankingServer(service) as server:
            reader = threading.Thread(
                target=loadgen.client_loop, name="reader",
                args=(server, service, paths, float("inf"), log, stop))
            reader.start()
            try:
                for source, target, target_id in updates:
                    time.sleep(UPDATE_INTERVAL)
                    generation = service.store.generation
                    began = perf_counter()
                    with span("web.incremental.add_link"):
                        report = live.add_link(source, target)
                    with span("serving.service.apply_update"):
                        service.apply_update(report, ranker=live)
                    windows.append((began, perf_counter()))
                    recomputed += len(report.recomputed_sites)
                    # The composed ranking is renormalised, a shard is not:
                    # equal up to rounding, not bit for bit.
                    self.check(
                        service.store.generation > generation
                        and math.isclose(
                            service.score_of(target_id),
                            live.ranking().score_of(target_id),
                            rel_tol=1e-9),
                        "served score is not the updated ranking's")
            finally:
                stop.set()
                reader.join()
        during = [latency
                  for sent, latency in zip(log.sent_at, log.latencies)
                  if any(sent < end and sent + latency > begin
                         for begin, end in windows)]
        self.attempted += log.attempted
        if log.failed or log.error:
            self.problems.append(f"reads beside updates failed: "
                                 f"{log.failed} {log.error}")
        self.counts["web.incremental.sites_recomputed"] = recomputed
        self.counts["serving.cache.invalidations"] = (
            service.cache_stats.invalidations - invalidations)
        self.counts["serving.update.query_p50_during_ms"] = (
            statistics.median(during) * 1e3 if during else 0.0)
        service.close()
        live.close()

    # ------------------------------------------------------------------ #
    def _metrics(self) -> Dict[str, float]:
        """The counts, plus two numbers per layer span: ``<layer>_s``, its
        self time summed over the pass, and ``<layer>_ms``, its median
        call.  ``BENCHMARK.json`` names the one that matters per layer."""
        metrics = dict(self.counts)
        for layer, seconds in self.tracer.self_seconds().items():
            metrics[f"{layer}_s"] = seconds
            metrics[f"{layer}_ms"] = self.tracer.median_ms(layer)
        return metrics
