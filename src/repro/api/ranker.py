"""The :class:`Ranker` facade: one entry point for every deployment mode.

Wu & Aberer's method is one model with many deployment modes — one-shot
pipeline, incremental refresh, decentralised peers, online serving.  After
the 1.x releases each mode had its own entry point and keyword soup; the
facade folds them back into one object driven by one declarative
:class:`~repro.api.RankingConfig`::

    from repro.api import Ranker, RankingConfig

    config = RankingConfig(method="layered", executor="auto")
    result = Ranker(config).fit(docgraph)     # unified RankingResult
    result.top_k(10)

    ranker = Ranker(config)
    live = ranker.incremental(docgraph)       # IncrementalLayeredRanker
    report = ranker.distributed(docgraph)     # peer-simulation report
    service = ranker.serve(docgraph=docgraph) # RankingService

All four adapters construct today's specialised machinery from the same
config, so scores agree across modes exactly as the Partition Theorem
prescribes.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple, Union

from .. import obs
from ..engine.executor import Executor, default_n_jobs, make_executor
from ..engine.warm import WarmStartState
from ..exceptions import ValidationError
from ..web.docgraph import DocGraph
from .config import RankingConfig
from .registry import resolve_method_name
from .result import RankingResult


class Ranker:
    """Fits ranking methods and adapts them to every deployment mode.

    Parameters
    ----------
    config:
        The declarative configuration (defaults to ``RankingConfig()``,
        i.e. the serial layered method).
    **overrides:
        Field overrides applied on top of *config* — ``Ranker(method="hits")``
        is shorthand for ``Ranker(RankingConfig().replace(method="hits"))``.
    """

    def __init__(self, config: Optional[RankingConfig] = None,
                 **overrides: Any) -> None:
        if config is None:
            config = RankingConfig()
        elif not isinstance(config, RankingConfig):
            raise ValidationError(
                f"config must be a RankingConfig, got {type(config).__name__}")
        if overrides:
            config = config.replace(**overrides)
        self.config = config
        self._warm: Optional[WarmStartState] = (
            WarmStartState() if config.warm_start else None)
        self._docgraph: Optional[DocGraph] = None
        self._result: Optional[RankingResult] = None

    # ------------------------------------------------------------------ #
    # Engine backend resolution
    # ------------------------------------------------------------------ #
    def _engine_spec(self) -> Tuple[Optional[Executor],
                                    Optional[Union[int, str]], bool]:
        """Translate the config into the engine's ``(executor, n_jobs)`` pair.

        Returns ``(executor, n_jobs, owned)``; when *owned* is true the
        caller created *executor* here and must close it after use.
        """
        if self.config.wants_auto_backend:
            from ..engine.adaptive import AutoExecutor

            # Built here (not via the n_jobs="auto" spelling) so the
            # config's worker cap reaches the adaptive pools.
            cap = (self.config.n_jobs
                   if isinstance(self.config.n_jobs, int) else None)
            return AutoExecutor(cap), None, True
        if self.config.executor == "serial":
            return None, None, False
        n_jobs = self.config.n_jobs or default_n_jobs()
        return make_executor(self.config.executor, n_jobs), None, True

    # ------------------------------------------------------------------ #
    # One-shot fitting
    # ------------------------------------------------------------------ #
    def fit(self, docgraph: DocGraph, *, trace: Optional[str] = None,
            **method_options: Any) -> RankingResult:
        """Rank *docgraph* with the configured method.

        *method_options* are forwarded to the registered method — e.g.
        ``site_preference=`` / ``document_preferences=`` for the layered
        method, ``refine=False`` for BlockRank.

        *trace* opts into span-history collection for this call and writes
        the trace JSON (:mod:`repro.obs.trace` schema) to that path when
        the fit finishes.  Tracing state active before the call is
        restored afterwards.

        Returns the unified :class:`~repro.api.RankingResult`; the same
        object is retained on the ranker (:attr:`result_`) so the
        adapters below can reuse it.
        """
        method = self.config.require_method()
        uses_engine = getattr(method, "uses_engine", True)
        if uses_engine:
            executor, n_jobs, owned = self._engine_spec()
        else:
            # Single-vector methods run inline: building a pool for them
            # would waste a pool and misdescribe the run's provenance.
            executor, n_jobs, owned = None, None, False
        previous_tracer = obs.current_tracer()
        tracer = obs.enable_tracing() if trace is not None else None
        started = time.perf_counter()
        try:
            with obs.span(obs.PHASE_FIT):
                ranking = method(docgraph, self.config, executor=executor,
                                 n_jobs=n_jobs, warm=self._warm,
                                 **method_options)
        finally:
            if owned:
                executor.close()
            if tracer is not None:
                if previous_tracer is not None:
                    obs.enable_tracing(previous_tracer)
                else:
                    obs.disable_tracing()
        wall_seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.export(trace)
        timings = dict(getattr(ranking, "timings", None) or {})
        timings[obs.PHASE_FIT] = wall_seconds
        result = RankingResult(
            ranking=ranking, config=self.config, wall_seconds=wall_seconds,
            timings=timings,
            provenance=self._provenance(docgraph, uses_engine=uses_engine,
                                        engine_executor=executor))
        self._docgraph = docgraph
        self._result = result
        return result

    def _provenance(self, docgraph: DocGraph, *,
                    uses_engine: bool = True,
                    engine_executor=None) -> Dict[str, Any]:
        from .. import __version__

        provenance = {
            "method": resolve_method_name(self.config.method),
            # Inline methods never touch the engine, whatever the config
            # says — record how the scores were actually produced.
            "executor": self.config.executor if uses_engine else "inline",
            "n_jobs": self.config.n_jobs if uses_engine else None,
            "warm_start": self.config.warm_start,
            "n_documents": docgraph.n_documents,
            "n_sites": docgraph.n_sites,
            "repro_version": __version__,
        }
        # The adaptive backend's decision records (backend chosen, priced
        # flops, measured wall) make the calibration model auditable from
        # the result alone.
        decisions = getattr(engine_executor, "decisions", None)
        if decisions:
            provenance["auto_decisions"] = [dict(d) for d in decisions]
        if obs.enabled():
            provenance["metrics"] = obs.snapshot(include_collected=False)
        return provenance

    @property
    def result_(self) -> RankingResult:
        """The most recent :meth:`fit` result."""
        if self._result is None:
            raise ValidationError("this Ranker has not been fitted yet; "
                                  "call fit(docgraph) first")
        return self._result

    @property
    def docgraph_(self) -> DocGraph:
        """The most recently fitted DocGraph."""
        if self._docgraph is None:
            raise ValidationError("this Ranker has not been fitted yet; "
                                  "call fit(docgraph) first")
        return self._docgraph

    def _graph_or_fitted(self, docgraph: Optional[DocGraph]) -> DocGraph:
        if docgraph is not None:
            return docgraph
        return self.docgraph_

    def _require_layered(self, operation: str) -> None:
        if resolve_method_name(self.config.method) != "layered":
            raise ValidationError(
                f"{operation} requires the layered method (it relies on the "
                f"per-site decomposition), but this config selects "
                f"{self.config.method!r}")

    # ------------------------------------------------------------------ #
    # Warm-start persistence
    # ------------------------------------------------------------------ #
    @property
    def warm_state(self) -> Optional[WarmStartState]:
        """The warm-start state carried across fits (``None`` when disabled)."""
        return self._warm

    def save_state(self, path) -> None:
        """Persist the warm-start state so a restarted process can resume.

        The file is the JSON format of :func:`repro.io.save_warm_state`;
        requires ``warm_start=True`` in the config (or a prior
        :meth:`load_state`) so there is state to save.
        """
        from ..io.serialization import save_warm_state

        if self._warm is None:
            raise ValidationError(
                "no warm-start state to save; construct the Ranker with "
                "RankingConfig(warm_start=True)")
        save_warm_state(self._warm, path)

    def load_state(self, path) -> "Ranker":
        """Resume from a :meth:`save_state` file.

        Subsequent :meth:`fit` calls warm-start their power iterations
        from the loaded vectors (and keep recording into the same state),
        regardless of the config's ``warm_start`` flag — loading state is
        itself the opt-in.  Returns ``self`` for chaining.
        """
        from ..io.serialization import load_warm_state

        self._warm = load_warm_state(path)
        return self

    # ------------------------------------------------------------------ #
    # Deployment-mode adapters
    # ------------------------------------------------------------------ #
    def incremental(self, docgraph: Optional[DocGraph] = None):
        """An :class:`~repro.web.incremental.IncrementalLayeredRanker` from this config.

        Uses the given *docgraph* (or the last fitted one) and the
        config's damping / tolerance / backend settings.  The returned
        ranker owns its executor; close it (or use it as a context
        manager) when done.
        """
        from ..web.incremental import IncrementalLayeredRanker

        self._require_layered("incremental maintenance")
        graph = self._graph_or_fitted(docgraph)
        executor, n_jobs, owned = self._engine_spec()
        try:
            ranker = IncrementalLayeredRanker(
                graph, self.config.damping,
                site_damping=self.config.site_damping,
                include_site_self_links=self.config.include_site_self_links,
                tol=self.config.tol, max_iter=self.config.max_iter,
                executor=executor, n_jobs=n_jobs,
                personalization=self.config.personalization)
        except BaseException:
            if owned:
                executor.close()
            raise
        if owned:
            # The executor was created here on the ranker's behalf; hand
            # over ownership so ranker.close() shuts the pool down.
            ranker._owns_executor = True
        return ranker

    def distributed(self, docgraph: Optional[DocGraph] = None, *,
                    n_peers: Optional[int] = None,
                    architecture: Optional[str] = None,
                    partition_policy: Optional[str] = None,
                    network=None):
        """Run the simulated P2P deployment and return its report.

        Constructs a :class:`~repro.distributed.DistributedRankingCoordinator`
        from the config (``n_peers`` / ``architecture`` /
        ``partition_policy`` default to the config's values) and executes
        the protocol; the returned
        :class:`~repro.distributed.SimulationReport` carries the ranking
        plus traffic and makespan accounting.
        """
        from ..distributed.coordinator import DistributedRankingCoordinator

        self._require_layered("the distributed deployment")
        if self.config.include_site_self_links:
            # The protocol's SiteLink summaries count inter-site links
            # only; honoring the flag would need a protocol change, and
            # ignoring it would silently diverge from fit().
            raise ValidationError(
                "include_site_self_links=True is not supported by the "
                "distributed protocol (peers summarise inter-site links "
                "only); use fit() or incremental() for this config")
        graph = self._graph_or_fitted(docgraph)
        executor, n_jobs, owned = self._engine_spec()
        try:
            coordinator = DistributedRankingCoordinator(
                graph,
                n_peers=self.config.n_peers if n_peers is None else n_peers,
                architecture=(self.config.architecture if architecture is None
                              else architecture),
                partition_policy=(self.config.partition_policy
                                  if partition_policy is None
                                  else partition_policy),
                network=network,
                damping=self.config.damping,
                site_damping=self.config.site_damping,
                tol=self.config.tol, max_iter=self.config.max_iter,
                executor=executor, n_jobs=n_jobs)
            return coordinator.run()
        finally:
            if owned:
                executor.close()

    def serve(self, *, docgraph: Optional[DocGraph] = None,
              corpus: Optional[Dict[int, str]] = None,
              index=None, incremental=False, replicas: int = 1,
              drain_grace: float = 0.0):
        """A :class:`~repro.serving.RankingService` over this config's ranking.

        The config's ``executor`` / ``n_jobs`` reach the power iterations
        of the fit or the incremental ranker only; the service itself
        starts no pool — a shard rebuild is one scalar-vector multiply per
        changed site on the updating thread.

        Parameters
        ----------
        docgraph:
            Graph to serve (defaults to the last fitted one; fitted on
            demand when no result is cached yet).
        corpus / index:
            Optional text corpus (or pre-built index) enabling free-text
            queries.
        incremental:
            ``True`` builds an incremental ranker under the service so
            live graph updates repair shards in place — the service owns
            that ranker, so call ``service.close()`` (or use the service
            as a context manager) to release it and the worker pool a
            pooled config gave it.  Pass an existing
            :class:`~repro.web.incremental.IncrementalLayeredRanker` to
            attach to it instead (you keep ownership).
        replicas:
            Above ``1``, returns a
            :class:`~repro.serving.replicas.ReplicaSet` of that many
            service replicas behind a consistent-hash router instead of a
            single service; incremental updates then roll across the
            replicas one drain at a time, so queries keep flowing during
            rebuilds.  The set has the same query surface as a service.
        drain_grace:
            Seconds a draining replica lingers before its rebuild during
            rolling updates (``replicas > 1`` only) — a hold-off for
            load balancers polling ``/readyz``.
        """
        from ..serving.replicas import ReplicaSet
        from ..serving.service import RankingService
        from ..web.incremental import IncrementalLayeredRanker

        if replicas < 1:
            raise ValidationError("replicas must be at least 1")

        serving_kwargs = dict(cache_size=self.config.cache_size,
                              rule=self.config.rule,
                              weight=self.config.weight)
        replica_kwargs = dict(serving_kwargs, n_replicas=replicas,
                              drain_grace=drain_grace)

        if incremental is not False and index is not None:
            # from_incremental builds its index from a corpus only;
            # dropping a caller-supplied index silently would strand
            # text queries.
            raise ValidationError(
                "an incremental service builds its text index from a "
                "corpus; pass corpus= instead of index= (index= is "
                "only supported when serving a fitted result)")
        if isinstance(incremental, IncrementalLayeredRanker):
            if docgraph is not None and docgraph is not incremental.docgraph:
                raise ValidationError(
                    "the passed incremental ranker maintains a "
                    "different DocGraph than docgraph=; an attached "
                    "service always serves the ranker's graph, so "
                    "pass one or the other")
            if replicas > 1:
                return ReplicaSet.from_incremental(
                    incremental, corpus=corpus, **replica_kwargs)
            return RankingService.from_incremental(
                incremental, corpus=corpus, **serving_kwargs)
        if incremental:
            ranker = self.incremental(docgraph)
            try:
                if replicas > 1:
                    served = ReplicaSet.from_incremental(
                        ranker, corpus=corpus, **replica_kwargs)
                else:
                    served = RankingService.from_incremental(
                        ranker, corpus=corpus, **serving_kwargs)
            except BaseException:
                ranker.close()  # nobody else holds this ranker's pool
                raise
            # The service (or set) is the only handle to this ranker
            # (and to any worker pool it owns): close() releases both.
            served._owns_ranker = True
            return served
        graph = self._graph_or_fitted(docgraph)
        if self._result is None or graph is not self._docgraph:
            self.fit(graph)
        if replicas > 1:
            return ReplicaSet.from_ranking(
                self.result_.ranking, graph, corpus=corpus,
                index=index, **replica_kwargs)
        return RankingService.from_ranking(
            self.result_.ranking, graph, corpus=corpus, index=index,
            **serving_kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fitted = self._result is not None
        return (f"Ranker(method={self.config.method!r}, "
                f"executor={self.config.executor!r}, fitted={fitted})")
