"""Command-line interface: ``python -m repro <command>``.

Sub-commands
------------

``rank``
    Rank a web graph (URL edge list or a generated synthetic web) with any
    registered ranking method and print the top-k documents.  The run can
    be driven entirely by a config file: ``repro rank --config ranking.toml``.

``generate``
    Generate a synthetic web (``campus`` or ``hierarchical``) and write it
    as a lossless DocGraph file (readable by ``rank --format docgraph``).

``compare``
    Rank a graph with both the layered method and flat PageRank and report
    their agreement (Kendall tau, top-k overlap) plus, for generated campus
    webs, the farm contamination of each top list.

``example``
    Print the paper's 12-state worked example (Figure 2 reproduction).

``serve``
    Rank a web graph and expose it over the JSON/HTTP query endpoint
    (:mod:`repro.serving.frontend`).  ``--state PATH`` persists the engine's
    warm-start vectors so a restarted server resumes its power iterations
    from the previous run.

``query``
    Rank a web graph, build the serving stack in-process and answer one or
    more free-text queries with the combined (text + link) ranking.

``config``
    Inspect (``config show``) and validate (``config validate PATH``)
    declarative ranking configs (:class:`repro.api.RankingConfig`, JSON or
    TOML).

``cluster``
    Live distributed deployment (:mod:`repro.cluster`): ``cluster
    coordinator`` runs the round coordinator on a TCP port (with optional
    durable ``--ledger`` for crash-resumable rounds and ``--metrics-port``
    for Prometheus scrapes), ``cluster peer`` runs one ranking peer
    process against it, and ``cluster rank`` is the one-command localhost
    deployment — coordinator in-process plus ``--peers`` forked peer
    processes, reaped on exit.

``stats``
    Rank a graph and print the telemetry snapshot (:mod:`repro.obs`) the
    run produced — solver runs/iterations, per-phase timings, engine task
    and dispatch counters — as a table or (``--prometheus``) in Prometheus
    text exposition format.

Every ranking sub-command is a thin shell over :class:`repro.api.Ranker`:
CLI flags build (or override) a :class:`~repro.api.RankingConfig`, and the
facade does the rest.  Flags given explicitly on the command line win over
values from ``--config``; config-file values win over built-in defaults.

All numeric output is deterministic for a fixed ``--seed``.  The graph
sub-commands accept ``--jobs N`` to run the rank computation on a thread
pool of N workers, or ``--jobs auto`` to let the engine pick a backend
from its cost model; the default of 1 keeps the serial reference path and
every backend produces identical scores.  Errors — bad input paths,
malformed graph or config files, invalid parameter values — print one
``error:`` line to stderr and exit with status 2 (argument *syntax* the
parser itself cannot read still produces argparse's usage message, also
with status 2).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
import time
from typing import List, Optional

from . import __version__
from .api import Ranker, RankingConfig, available_methods, resolve_method_name
from .cluster import (
    DEFAULT_HEARTBEAT_SECONDS as CLUSTER_HEARTBEAT_SECONDS,
    DEFAULT_ROUND_TIMEOUT as CLUSTER_ROUND_TIMEOUT,
    ClusterCoordinator,
    run_live_cluster,
    run_peer,
)
from .core import all_approaches, example_lmm
from .exceptions import ReproError, ValidationError
from .graphgen import generate_campus_web, generate_synthetic_web
from .io import read_docgraph, read_url_edgelist, write_docgraph
from .linalg.power_iteration import (
    DEFAULT_MAX_ITER as DEFAULT_SOLVER_MAX_ITER,
    DEFAULT_TOL as DEFAULT_SOLVER_TOL,
)
from .ir import synthesize_corpus
from .metrics import kendall_tau, top_k_contamination, top_k_overlap
from .serving import AsyncRankingServer, FrontendConfig
from .web import DocGraph

#: Exit code of anticipated failures (bad paths, malformed inputs/values).
EXIT_ERROR = 2

#: Parser defaults, also used by the config merge as a fallback when the
#: explicit-flag record is unavailable (handlers invoked outside main()).
#: Derived from RankingConfig so the CLI cannot drift from the library.
_CONFIG_DEFAULTS = RankingConfig()
DEFAULT_DAMPING_ARG = _CONFIG_DEFAULTS.damping
DEFAULT_JOBS_ARG = 1
DEFAULT_CACHE_SIZE_ARG = _CONFIG_DEFAULTS.cache_size
DEFAULT_RULE_ARG = _CONFIG_DEFAULTS.rule
DEFAULT_WEIGHT_ARG = _CONFIG_DEFAULTS.weight

#: Option strings whose presence on the command line makes them override a
#: --config file (mapped to their argparse dest names).
_OVERRIDE_FLAGS = {
    "--method": "method",
    "--damping": "damping",
    "--jobs": "jobs",
    "--cache-size": "cache_size",
    "--rule": "rule",
    "--weight": "weight",
}


def _explicit_flags(argv) -> set:
    """Dest names of override flags literally present on the command line.

    Comparing parsed values against parser defaults cannot distinguish
    ``--damping 0.85`` (explicit, must beat the config file) from the flag
    being absent (config file wins), so the merge needs the raw argv.
    Both ``--flag value`` and ``--flag=value`` spellings are recognised;
    the parsers are built with ``allow_abbrev=False`` so an abbreviated
    spelling cannot slip past this scan.
    """
    explicit = set()
    for token in argv:
        if not isinstance(token, str):
            continue
        if token == "--":
            break  # everything after the separator is positional
        if token.startswith("--"):
            dest = _OVERRIDE_FLAGS.get(token.split("=", 1)[0])
            if dest is not None:
                explicit.add(dest)
    return explicit


def _is_explicit(args: argparse.Namespace, dest: str, default) -> bool:
    """Whether *dest* should override a --config file value."""
    explicit = getattr(args, "_explicit", None)
    if explicit is not None:
        return dest in explicit
    # Fallback for handlers driven outside main(): a value that differs
    # from the parser default must have been given explicitly.
    return getattr(args, dest) != default


# --------------------------------------------------------------------- #
# Centralised argument validation (uniform one-line errors, exit code 2)
# --------------------------------------------------------------------- #
def _parse_jobs(value) -> object:
    """Normalise ``--jobs`` to a positive int or ``"auto"``.

    Delegates the accepted grammar to the engine's
    :func:`~repro.engine.executor.normalize_n_jobs`; this wrapper only
    converts the CLI's string form to an int first.
    """
    from .engine.executor import normalize_n_jobs

    parsed = value
    if isinstance(value, str) and value != "auto":
        try:
            parsed = int(value)
        except ValueError:
            pass  # normalize_n_jobs produces the canonical error
    try:
        return normalize_n_jobs(parsed, name="--jobs")
    except ValidationError:
        raise ValidationError(
            f"--jobs must be a positive integer or 'auto', got {value!r}"
        ) from None


def _parse_damping(value) -> float:
    """Normalise ``--damping`` to a float in the open interval (0, 1)."""
    from ._validation import ensure_damping

    return ensure_damping(value, name="--damping")


def _validate_args(args: argparse.Namespace) -> None:
    """Semantic validation shared by every sub-command.

    Runs before the handler so all value errors — whether argparse could
    have caught them or not — take the same path: one ``error:`` line on
    stderr and exit code :data:`EXIT_ERROR`.  Parsed values are written
    back onto *args* (``--jobs``/``--damping`` arrive as strings so that
    malformed numbers land here instead of in argparse's usage dump).
    """
    if hasattr(args, "jobs"):
        args.jobs = _parse_jobs(args.jobs)
    if hasattr(args, "damping"):
        args.damping = _parse_damping(args.damping)
    if getattr(args, "top", 1) < 1:
        raise ValidationError(f"--top must be at least 1, got {args.top}")
    if hasattr(args, "weight") and not 0.0 <= args.weight <= 1.0:
        raise ValidationError(
            f"--weight must be between 0 and 1, got {args.weight}")
    if getattr(args, "cache_size", 1) < 1:
        raise ValidationError(
            f"--cache-size must be at least 1, got {args.cache_size}")


# --------------------------------------------------------------------- #
# Config assembly
# --------------------------------------------------------------------- #
def _ranking_config(args: argparse.Namespace, **extra) -> RankingConfig:
    """Build the effective RankingConfig for a sub-command.

    Precedence (lowest to highest): built-in defaults, the ``--config``
    file, CLI flags given explicitly on the command line, *extra*.
    """
    if getattr(args, "config", None):
        config = RankingConfig.load(args.config)
    else:
        config = RankingConfig()
    changes = {}
    if hasattr(args, "damping") and _is_explicit(args, "damping",
                                                 DEFAULT_DAMPING_ARG):
        changes["damping"] = args.damping
    if hasattr(args, "jobs") and _is_explicit(args, "jobs", DEFAULT_JOBS_ARG):
        if args.jobs == "auto":
            # Preserve the config file's n_jobs as a worker cap on the
            # adaptive pools — except an n_jobs of 1, which spelled
            # "serial", not "cap the pools at one worker".
            changes.update(executor="auto")
            if config.n_jobs == 1:
                changes.update(n_jobs=None)
        elif args.jobs == 1:
            changes.update(executor="serial", n_jobs=None)
        else:
            # An explicit worker count adjusts the config's pooled backend
            # rather than replacing it: a file saying executor="threaded"
            # keeps threads, only the worker count changes.  Threads are
            # the default only when the config has no pooled backend.
            executor = (config.executor if config.executor != "serial"
                        else "threaded")
            changes.update(executor=executor, n_jobs=args.jobs)
    if hasattr(args, "cache_size") and _is_explicit(args, "cache_size",
                                                    DEFAULT_CACHE_SIZE_ARG):
        changes["cache_size"] = args.cache_size
    if hasattr(args, "rule") and _is_explicit(args, "rule", DEFAULT_RULE_ARG):
        changes["rule"] = args.rule
    if hasattr(args, "weight") and _is_explicit(args, "weight",
                                                DEFAULT_WEIGHT_ARG):
        changes["weight"] = args.weight
    changes.update(extra)  # *extra* is the handler's word: highest precedence
    return config.replace(**changes) if changes else config


def _load_graph(args: argparse.Namespace) -> DocGraph:
    """Load or generate the graph a sub-command operates on."""
    if args.input is not None:
        if args.format == "edgelist":
            return read_url_edgelist(args.input)
        return read_docgraph(args.input)
    if args.generate == "campus":
        return generate_campus_web(n_sites=args.sites,
                                   n_documents=args.documents,
                                   seed=args.seed).docgraph
    return generate_synthetic_web(n_sites=args.sites,
                                  n_documents=args.documents, seed=args.seed)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="path to a graph file")
    parser.add_argument("--format", choices=["edgelist", "docgraph"],
                        default="edgelist",
                        help="input file format (default: edgelist)")
    parser.add_argument("--generate", choices=["campus", "hierarchical"],
                        default="hierarchical",
                        help="synthetic web to generate when no --input")
    parser.add_argument("--sites", type=int, default=20)
    parser.add_argument("--documents", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", default=DEFAULT_JOBS_ARG, metavar="N",
                        help="worker threads for the rank computation "
                             "(default: 1, serial; 'auto' lets the engine "
                             "pick a backend — results are identical "
                             "either way)")
    parser.add_argument("--config", metavar="PATH",
                        help="RankingConfig file (.json or .toml) driving "
                             "the run; explicit flags override it")


def _command_rank(args: argparse.Namespace) -> int:
    if args.on_disk:
        return _command_rank_on_disk(args)
    if args.output is not None:
        raise ValidationError("--output requires --on-disk")
    config = _ranking_config(args)
    graph = _load_graph(args)
    print(f"graph: {graph.n_documents} documents, {graph.n_links} links, "
          f"{graph.n_sites} sites")
    if args.method == "both":
        methods = ["layered", "pagerank"]
    elif _is_explicit(args, "method", "layered"):
        methods = [args.method]
    else:
        # --method left at its default: defer to the config file's method
        # (which itself defaults to "layered").
        methods = [config.method]
    for method in methods:
        result = Ranker(config.replace(method=method)).fit(
            graph, trace=args.trace)
        print(f"\ntop-{args.top} by {method} "
              f"({result.iterations} power iterations):")
        for rank, url in enumerate(result.top_k_urls(args.top), start=1):
            print(f"  {rank:3d}. {url}")
    if args.trace:
        print(f"\ntrace written to {args.trace}")
    return 0


def _command_rank_on_disk(args: argparse.Namespace) -> int:
    """The out-of-core path: mmap'd DiskGraph, streamed solves, disk store.

    The graph goes straight into an on-disk block store (URL edge lists
    stream through in bounded memory, never materialising a DocGraph),
    the layered solve hydrates one window of sites at a time, and
    the composed scores are published as a ranked generation an
    ``repro serve --store`` process can mmap.  Re-running against the
    same ``--output`` warm-starts from the published generation.  The
    config's solver settings apply as they do in memory; settings the
    streamed path cannot honour are an error, never silently dropped.
    """
    from .engine.outofcore import rank_outofcore
    from .io.artifacts import ArtifactStore
    from .io.diskgraph import DiskGraphBuilder, write_diskgraph
    from .io.edgelist import stream_url_edgelist
    from .serving.mmapstore import MmapScoreStore
    from .serving.topk import TopKEngine

    if args.output is None:
        raise ValidationError("--on-disk requires --output DIR")
    config = _ranking_config(args)
    method = args.method if _is_explicit(args, "method", "layered") \
        else config.method
    if resolve_method_name(method) != "layered":
        raise ValidationError(
            f"--on-disk supports only the layered method, got {method!r}")
    unsupported = [name for name, given in (
        ("personalization", config.personalization),
        (f"executor={config.executor!r} / --jobs",
         config.wants_auto_backend or config.executor != "serial")) if given]
    if unsupported:
        raise ValidationError(
            "--on-disk streams one window of sites at a time on the calling "
            "thread and cannot honour: " + ", ".join(unsupported))
    graph_dir = os.path.join(args.output, "graph")
    self_links = config.include_site_self_links
    if args.input is not None and args.format == "edgelist":
        builder = DiskGraphBuilder(graph_dir,
                                   include_site_self_links=self_links)
        try:
            builder.consume(stream_url_edgelist(args.input))
            graph = builder.finalize()
        except BaseException:
            builder.abort()
            raise
    else:
        graph = write_diskgraph(_load_graph(args), graph_dir,
                                include_site_self_links=self_links)
    print(f"graph: {graph.n_documents} documents, {graph.n_links} links, "
          f"{graph.n_sites} sites  [on disk: {graph.nbytes} block bytes]")
    store = ArtifactStore(args.output, create=True)
    warm = store.generation() if store.current is not None else None
    if warm is not None:
        print(f"warm-starting from generation {warm.name}")
    result = rank_outofcore(graph, store, config.damping,
                            site_damping=config.site_damping, tol=config.tol,
                            max_iter=config.max_iter, warm=warm)
    print(f"published generation {result.generation.name} to {args.output}")
    engine = TopKEngine(MmapScoreStore(result.generation))
    print(f"\ntop-{args.top} by {result.method} "
          f"({result.iterations} power iterations):")
    for rank, url in enumerate(engine.top_k_urls(args.top), start=1):
        print(f"  {rank:3d}. {url}")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    if args.kind == "campus":
        graph = generate_campus_web(n_sites=args.sites,
                                    n_documents=args.documents,
                                    seed=args.seed).docgraph
    else:
        graph = generate_synthetic_web(n_sites=args.sites,
                                       n_documents=args.documents,
                                       seed=args.seed)
    write_docgraph(graph, args.output)
    print(f"wrote {graph.n_documents} documents / {graph.n_links} links "
          f"({graph.n_sites} sites) to {args.output}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    config = _ranking_config(args)
    campus = None
    if args.input is None and args.generate == "campus":
        campus = generate_campus_web(n_sites=args.sites,
                                     n_documents=args.documents,
                                     seed=args.seed)
        graph = campus.docgraph
    else:
        graph = _load_graph(args)
    layered = Ranker(config.replace(method="layered")).fit(graph)
    flat = Ranker(config.replace(method="pagerank")).fit(graph)
    tau = kendall_tau(layered.scores_by_doc_id(), flat.scores_by_doc_id())
    overlap = top_k_overlap(layered.top_k(args.top), flat.top_k(args.top),
                            args.top)
    print(f"graph: {graph.n_documents} documents over {graph.n_sites} sites")
    print(f"Kendall tau (layered vs PageRank): {tau:.3f}")
    print(f"top-{args.top} overlap: {overlap:.0%}")
    if campus is not None:
        for name, result in (("PageRank", flat), ("layered", layered)):
            contamination = top_k_contamination(result.top_k(args.top),
                                                campus.farm_doc_ids, args.top)
            print(f"farm pages in {name} top-{args.top}: {contamination:.0%}")
    return 0


def _build_service(args: argparse.Namespace):
    """Rank the selected graph and wrap it in a RankingService."""
    state_path = getattr(args, "state", None)
    config = _ranking_config(args, warm_start=True) if state_path \
        else _ranking_config(args)
    if state_path and resolve_method_name(config.method) != "layered":
        # Only the layered method records/consumes warm-start vectors; a
        # silent no-op state file would falsely promise resumption.
        raise ValidationError(
            f"--state requires the layered method (method="
            f"{config.method!r} records no warm-start vectors)")
    graph = _load_graph(args)
    ranker = Ranker(config)
    if state_path and os.path.exists(state_path):
        ranker.load_state(state_path)
        print(f"resuming power iterations from {state_path}")
    ranker.fit(graph)
    if state_path:
        ranker.save_state(state_path)
    corpus = synthesize_corpus(graph, seed=args.seed)
    service = ranker.serve(corpus=corpus,
                           replicas=getattr(args, "replicas", 1))
    return graph, service, config


def _build_store_service(args: argparse.Namespace):
    """Boot the serving stack off a published artifact store (no ranking).

    The score columns stay on disk: every replica's
    :class:`~repro.serving.mmapstore.MmapScoreStore` clone shares one
    memory mapping, so startup reads only the generation manifest and
    queries fault in just the pages they touch.
    """
    from .serving.mmapstore import MmapScoreStore
    from .serving.replicas import ReplicaSet
    from .serving.service import RankingService

    replicas = getattr(args, "replicas", 1)
    if replicas < 1:
        raise ValidationError("--replicas must be at least 1")
    config = _ranking_config(args)
    store = MmapScoreStore.from_store(args.store)
    serving_kwargs = dict(cache_size=config.cache_size, rule=config.rule,
                          weight=config.weight)
    services = [RankingService(store if number == 0 else store.clone(),
                               **serving_kwargs)
                for number in range(replicas)]
    service = ReplicaSet(services) if replicas > 1 else services[0]
    generation = store.ranked_generation
    header = (f"store: {generation.n_documents} documents over "
              f"{store.n_shards} sites (generation {generation.name} "
              f"of {args.store}, mmap)")
    return service, header


def _command_serve(args: argparse.Namespace) -> int:
    if getattr(args, "store", None) is not None:
        if args.state:
            raise ValidationError(
                "--state applies to ranking at startup; a --store serve "
                "never ranks")
        service, header = _build_store_service(args)
    else:
        graph, service, _config = _build_service(args)
        header = (f"graph: {graph.n_documents} documents over "
                  f"{graph.n_sites} sites")
    verbose = args.verbose or args.access_log
    server = AsyncRankingServer(
        service, host=args.host, port=args.port, verbose=verbose,
        config=FrontendConfig(max_inflight=args.max_inflight))
    print(header)
    print(f"serving on {server.url}  [{args.replicas} replica(s), "
          f"max in-flight {args.max_inflight}]  "
          f"(endpoints: /top /query /score /stats /health /healthz "
          f"/readyz /metrics)", flush=True)
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive mode
            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        pass
    finally:
        server.close()
        service.close()
    print("server stopped")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    graph, service, config = _build_service(args)
    print(f"graph: {graph.n_documents} documents over {graph.n_sites} sites")
    segment = getattr(args, "segment", None)
    batches = service.query_many(args.queries, args.top, segment=segment)
    for text, hits in zip(args.queries, batches):
        # config.rule, not args.rule: a --config file may set the rule.
        qualifier = f", segment {segment!r}" if segment else ""
        print(f"\ntop-{args.top} for {text!r} "
              f"({config.rule} combination{qualifier}):")
        if not hits:
            print("  (no matching documents)")
        for rank, hit in enumerate(hits, start=1):
            url = service.store.document(hit.doc_id).url
            print(f"  {rank:3d}. {url}  "
                  f"combined={hit.combined_score:.4f} "
                  f"query={hit.query_score:.4f} link={hit.link_score:.6f}")
    stats = service.cache_stats
    print(f"\ncache: {stats.hits} hits / {stats.lookups} lookups "
          f"({stats.hit_rate:.0%} hit rate)")
    return 0


def _command_example(args: argparse.Namespace) -> int:
    model = example_lmm()
    results = all_approaches(model, damping=args.damping)
    print("paper worked example: 3 phases, 12 global system states")
    for name, result in results.items():
        rounded = [round(float(score), 4) for score in result.scores]
        print(f"{name}: {rounded}")
    print(f"rank order (Approach 2/4): "
          f"{results['approach-2'].rank_positions().tolist()}")
    return 0


def _command_calibrate(args: argparse.Namespace) -> int:
    from .engine.calibrate import calibrate

    profile = calibrate(quick=args.quick, n_jobs=args.jobs_int)
    print(f"measured on {profile.machine} ({profile.cpu_count} CPUs), "
          f"{profile.measured_at}")
    print(f"serial -> threaded threshold:         "
          f"{profile.serial_flops_threshold:.3g} flops")
    print(f"batched serial -> threaded threshold: "
          f"{profile.batched_serial_flops_threshold:.3g} flops")
    if args.output:
        profile.save(args.output)
        print(f"profile written to {args.output} (activate it with "
              f"REPRO_CALIBRATION={args.output})")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from . import obs

    config = _ranking_config(args)
    graph = _load_graph(args)
    result = Ranker(config).fit(graph)
    print(f"graph: {graph.n_documents} documents over {graph.n_sites} sites")
    print(f"ranked by {result.method!r} in {result.wall_seconds:.3f}s "
          f"({result.iterations} power iterations)")
    timings = ", ".join(f"{name}={seconds:.3f}s"
                        for name, seconds in sorted(result.timings.items()))
    print(f"timings: {timings}\n")
    if args.prometheus:
        print(obs.render_prometheus(), end="")
    else:
        print(obs.render_table())
    return 0


def _command_config_show(args: argparse.Namespace) -> int:
    if args.config:
        config = RankingConfig.load(args.config)
        print(f"# effective config from {args.config}")
    else:
        config = RankingConfig()
        print("# built-in defaults (repro.api.RankingConfig())")
    print(f"# registered methods: {', '.join(available_methods())}")
    print(config.to_toml(), end="")
    return 0


def _command_config_validate(args: argparse.Namespace) -> int:
    config = RankingConfig.load(args.path)
    config.require_method()  # unknown methods must fail validation too
    print(f"ok: {args.path} is a valid ranking config "
          f"(method={config.method!r}, executor={config.executor!r})")
    return 0


# --------------------------------------------------------------------- #
# Live cluster deployment
# --------------------------------------------------------------------- #
def _parse_connect(connect: str) -> tuple:
    """Split a ``host:port`` coordinator address."""
    host, separator, port_text = connect.rpartition(":")
    if not separator or not host:
        raise ValidationError(
            f"--connect must be host:port, got {connect!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValidationError(
            f"--connect port must be an integer, got {port_text!r}"
        ) from None
    return host, port


def _print_cluster_report(report, top: int) -> None:
    print(f"round complete: mode={report.mode} peers={report.n_peers} "
          f"makespan={report.makespan_seconds:.3f}s")
    if report.reassignment_count:
        print(f"fault tolerance: {report.reassignment_count} site(s) "
              f"re-assigned after a peer failure "
              f"({', '.join(report.reassigned_sites)})")
    print(f"traffic: {report.message_count} messages, "
          f"{report.total_bytes} bytes on the wire")
    for peer_name in sorted(report.per_peer_wall_seconds):
        seconds = report.per_peer_wall_seconds[peer_name]
        print(f"  {peer_name}: {seconds:.3f}s compute")
    print(f"\ntop-{top} documents:")
    for rank, url in enumerate(report.ranking.top_k_urls(top), start=1):
        print(f"  {rank:3d}. {url}")


def _cluster_report_summary(report) -> dict:
    """The JSON artifact shape of one live round (``--json``)."""
    return {
        "mode": report.mode,
        "architecture": report.architecture,
        "n_peers": report.n_peers,
        "makespan_seconds": report.makespan_seconds,
        "serial_compute_seconds": report.serial_compute_seconds,
        "coordinator_seconds": report.coordinator_seconds,
        "per_peer_wall_seconds": report.per_peer_wall_seconds,
        "reassigned_sites": list(report.reassigned_sites),
        "message_count": report.message_count,
        "total_bytes": report.total_bytes,
        "bytes_by_type": report.bytes_by_type,
        "messages_by_type": report.messages_by_type,
        "iterations": report.ranking.iterations,
    }


def _command_cluster_coordinator(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    coordinator = ClusterCoordinator(
        graph, host=args.host, port=args.port, n_peers=args.peers,
        damping=args.damping, tol=args.tol, max_iter=args.max_iter,
        ledger_path=args.ledger,
        heartbeat_seconds=args.heartbeat, round_timeout=args.timeout)

    async def _run():
        await coordinator.start(metrics_port=args.metrics_port)
        line = (f"coordinator listening on {coordinator.address} "
                f"(waiting for {coordinator.n_slots} peers")
        if coordinator.metrics_port is not None:
            line += f"; metrics on port {coordinator.metrics_port}"
        print(line + ")", flush=True)
        if coordinator.ledger.resumed_sites:
            print(f"ledger resume: {len(coordinator.ledger.resumed_sites)} "
                  f"site(s) recovered, "
                  f"{len(coordinator.ledger.pending_sites())} pending",
                  flush=True)
        return await coordinator.wait()

    report = asyncio.run(_run())
    _print_cluster_report(report, args.top)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(_cluster_report_summary(report), handle, indent=2)
        print(f"report written to {args.json}")
    return 0


def _command_cluster_peer(args: argparse.Namespace) -> int:
    host, port = _parse_connect(args.connect)
    graph = _load_graph(args)
    print(f"peer connecting to {host}:{port} "
          f"({graph.n_sites} sites available locally)", flush=True)
    ranked = run_peer(graph, host, port, name=args.name,
                      fail_after=args.fail_after)
    print(f"peer done: ranked {ranked} site(s)")
    return 0


def _command_cluster_rank(args: argparse.Namespace) -> int:
    graph = _load_graph(args)

    async def _run():
        with tempfile.TemporaryDirectory(prefix="repro-cluster-") as workdir:
            return await run_live_cluster(
                graph, workdir, n_peers=args.peers, damping=args.damping,
                tol=args.tol, max_iter=args.max_iter, ledger_path=args.ledger,
                heartbeat_seconds=args.heartbeat,
                round_timeout=args.timeout)

    report = asyncio.run(_run())
    _print_cluster_report(report, args.top)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(_cluster_report_summary(report), handle, indent=2)
        print(f"report written to {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    # allow_abbrev=False everywhere: an abbreviated flag (--dampi) must not
    # parse silently, both for predictability and because the config merge
    # identifies explicit flags by their full option strings.
    parser = argparse.ArgumentParser(
        prog="repro", allow_abbrev=False,
        description="Layered Markov Model web ranking (Wu & Aberer, ICDCS 2005)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    rank = subparsers.add_parser("rank", allow_abbrev=False, help="rank a web graph")
    _add_graph_arguments(rank)
    rank.add_argument("--method",
                      choices=[*available_methods(), "pagerank", "both"],
                      default="layered",
                      help="registered ranking method, or 'both' for "
                           "layered + pagerank side by side (when omitted, "
                           "a --config file's method applies)")
    rank.add_argument("--top", type=int, default=15)
    rank.add_argument("--damping", default=DEFAULT_DAMPING_ARG)
    rank.add_argument("--trace", metavar="PATH", default=None,
                      help="write the run's span trace as JSON "
                           "(repro.obs trace schema)")
    rank.add_argument("--on-disk", action="store_true", dest="on_disk",
                      help="rank out of core: stream the graph into an "
                           "mmap'd disk store and solve it in bounded "
                           "memory (requires --output; layered method "
                           "only)")
    rank.add_argument("--output", metavar="DIR", default=None,
                      help="artifact-store directory --on-disk publishes "
                           "its ranked generation into (servable with "
                           "'repro serve --store DIR'; re-runs "
                           "warm-start from the published generation)")
    rank.set_defaults(handler=_command_rank)

    generate = subparsers.add_parser("generate",
                                     allow_abbrev=False, help="generate a synthetic web graph")
    generate.add_argument("kind", choices=["campus", "hierarchical"])
    generate.add_argument("output", help="path of the DocGraph file to write")
    generate.add_argument("--sites", type=int, default=20)
    generate.add_argument("--documents", type=int, default=2000)
    generate.add_argument("--seed", type=int, default=7)
    generate.set_defaults(handler=_command_generate)

    compare = subparsers.add_parser(
        "compare", allow_abbrev=False, help="compare the layered ranking with flat PageRank")
    _add_graph_arguments(compare)
    compare.add_argument("--top", type=int, default=15)
    compare.add_argument("--damping", default=DEFAULT_DAMPING_ARG)
    compare.set_defaults(handler=_command_compare)

    example = subparsers.add_parser(
        "example", allow_abbrev=False, help="print the paper's 12-state worked example")
    example.add_argument("--damping", default=DEFAULT_DAMPING_ARG)
    example.set_defaults(handler=_command_example)

    def _add_serving_arguments(sub: argparse.ArgumentParser) -> None:
        _add_graph_arguments(sub)
        sub.add_argument("--damping", default=DEFAULT_DAMPING_ARG)
        sub.add_argument("--cache-size", type=int,
                         default=DEFAULT_CACHE_SIZE_ARG,
                         help="capacity of the query result cache")
        sub.add_argument("--rule", choices=["linear", "rrf"],
                         default=DEFAULT_RULE_ARG,
                         help="query/link combination rule")
        sub.add_argument("--weight", type=float, default=DEFAULT_WEIGHT_ARG,
                         help="λ of the linear combination")

    serve = subparsers.add_parser(
        "serve", allow_abbrev=False, help="serve ranking queries over JSON/HTTP")
    _add_serving_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="bind port (0 picks a free port)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for N seconds then exit "
                            "(default: until interrupted)")
    serve.add_argument("--replicas", type=int, default=1, metavar="N",
                       help="serve N score-store replicas behind a "
                            "consistent-hash router; incremental updates "
                            "roll across them with zero downtime")
    serve.add_argument("--max-inflight", type=int, default=256, metavar="M",
                       dest="max_inflight",
                       help="admission-control bound: /query requests "
                            "beyond M concurrent are shed with "
                            "429 + Retry-After")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="serve a published artifact store (written by "
                            "'rank --on-disk --output DIR') straight off "
                            "its mmap'd score files — boots without "
                            "ranking and without loading score columns")
    serve.add_argument("--state", metavar="PATH",
                       help="warm-start state file: loaded on startup when "
                            "present, written after ranking, so a restarted "
                            "server resumes its power iterations")
    serve.add_argument("--verbose", action="store_true",
                       help="log requests to stderr")
    serve.add_argument("--access-log", action="store_true",
                       dest="access_log",
                       help="structured access log (method, path, status, "
                            "duration_ms) on the repro.serving logger")
    serve.set_defaults(handler=_command_serve)

    query = subparsers.add_parser(
        "query", allow_abbrev=False, help="answer text queries with combined text+link ranking")
    _add_serving_arguments(query)
    query.add_argument("queries", nargs="+", metavar="QUERY",
                       help="free-text queries (answered as one batch)")
    query.add_argument("--top", type=int, default=10)
    query.add_argument("--segment", default=None, metavar="NAME",
                       help="combine with a personalisation segment's "
                            "scores instead of the base ranking (the "
                            "segment must be declared in the --config "
                            "file's [personalization] section)")
    query.set_defaults(handler=_command_query)

    calibrate = subparsers.add_parser(
        "calibrate", allow_abbrev=False,
        help="measure the engine's performance cut-offs on this machine")
    calibrate.add_argument("--output", metavar="PATH",
                           help="write the measured profile as JSON "
                                "(loadable via the REPRO_CALIBRATION "
                                "environment variable)")
    calibrate.add_argument("--quick", action="store_true",
                           help="shrunk measurement sizes (seconds instead "
                                "of minutes; coarser cut-offs)")
    calibrate.add_argument("--jobs", type=int, default=None, dest="jobs_int",
                           help="worker count of the thread pool "
                                "(default: one per CPU)")
    calibrate.set_defaults(handler=_command_calibrate)

    stats = subparsers.add_parser(
        "stats", allow_abbrev=False,
        help="rank a graph and print the run's telemetry snapshot")
    _add_graph_arguments(stats)
    stats.add_argument("--damping", default=DEFAULT_DAMPING_ARG)
    stats.add_argument("--prometheus", action="store_true",
                       help="print the Prometheus text exposition instead "
                            "of the snapshot table")
    stats.set_defaults(handler=_command_stats)

    cluster = subparsers.add_parser(
        "cluster", allow_abbrev=False,
        help="run the distributed ranking protocol over real TCP peers")
    cluster_sub = cluster.add_subparsers(dest="cluster_command",
                                         required=True)

    def _add_round_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--peers", type=int, default=3,
                         help="number of peer processes the round expects")
        sub.add_argument("--damping", default=DEFAULT_DAMPING_ARG)
        sub.add_argument("--tol", type=float, default=DEFAULT_SOLVER_TOL)
        sub.add_argument("--max-iter", type=int,
                         default=DEFAULT_SOLVER_MAX_ITER, dest="max_iter")
        sub.add_argument("--ledger", metavar="PATH", default=None,
                         help="durable job ledger: a restarted coordinator "
                              "resumes the round instead of recomputing")
        sub.add_argument("--heartbeat", type=float,
                         default=CLUSTER_HEARTBEAT_SECONDS,
                         help="seconds between peer heartbeats")
        sub.add_argument("--timeout", type=float,
                         default=CLUSTER_ROUND_TIMEOUT,
                         help="seconds before the coordinator abandons "
                              "the round")
        sub.add_argument("--top", type=int, default=10)
        sub.add_argument("--json", metavar="PATH", default=None,
                         help="write the round report as JSON")

    cluster_coordinator = cluster_sub.add_parser(
        "coordinator", allow_abbrev=False,
        help="run the round coordinator on a TCP port")
    _add_graph_arguments(cluster_coordinator)
    _add_round_arguments(cluster_coordinator)
    cluster_coordinator.add_argument("--host", default="127.0.0.1")
    cluster_coordinator.add_argument("--port", type=int, default=0,
                                     help="bind port (0 picks a free port, "
                                          "printed on startup)")
    cluster_coordinator.add_argument("--metrics-port", type=int,
                                     default=None, dest="metrics_port",
                                     help="also serve GET /metrics "
                                          "(Prometheus text format) on "
                                          "this port")
    cluster_coordinator.set_defaults(handler=_command_cluster_coordinator)

    cluster_peer = cluster_sub.add_parser(
        "peer", allow_abbrev=False,
        help="run one ranking peer against a coordinator")
    _add_graph_arguments(cluster_peer)
    cluster_peer.add_argument("--connect", required=True, metavar="HOST:PORT",
                              help="coordinator address")
    cluster_peer.add_argument("--name", default="",
                              help="requested peer name (the coordinator "
                                   "assigns the logical wire name)")
    cluster_peer.add_argument("--fail-after", type=int, default=None,
                              dest="fail_after",
                              help="crash the process after sending N "
                                   "results (deterministic fault injection "
                                   "for tests)")
    cluster_peer.set_defaults(handler=_command_cluster_peer)

    cluster_rank = cluster_sub.add_parser(
        "rank", allow_abbrev=False,
        help="one-command localhost deployment: coordinator + forked peers")
    _add_graph_arguments(cluster_rank)
    _add_round_arguments(cluster_rank)
    cluster_rank.set_defaults(handler=_command_cluster_rank)

    config = subparsers.add_parser(
        "config", allow_abbrev=False, help="inspect and validate ranking configs")
    config_sub = config.add_subparsers(dest="config_command", required=True)
    show = config_sub.add_parser(
        "show", allow_abbrev=False, help="print the effective config as TOML")
    show.add_argument("--config", metavar="PATH",
                      help="config file to show (built-in defaults when "
                           "omitted)")
    show.set_defaults(handler=_command_config_show)
    validate = config_sub.add_parser(
        "validate", allow_abbrev=False, help="check a config file and exit 0 if it is usable")
    validate.add_argument("path", help="config file (.json or .toml)")
    validate.set_defaults(handler=_command_config_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Anticipated failures — missing or malformed input files, invalid
    graphs, configs or parameter values — print one ``error:`` line to
    stderr and return :data:`EXIT_ERROR` instead of dumping a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    args._explicit = _explicit_flags(sys.argv[1:] if argv is None else argv)
    try:
        _validate_args(args)
        return args.handler(args)
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
