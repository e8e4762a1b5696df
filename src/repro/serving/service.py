"""The :class:`RankingService` facade: one object that serves ranking queries.

It wires together the pieces the rest of the package computes offline:

* a :class:`~repro.serving.store.ShardedScoreStore` holding the current
  global DocRank partitioned by site,
* a :class:`~repro.serving.topk.TopKEngine` answering global / per-site
  top-k as a prefix of an order kept per shard and per store generation,
* a :class:`~repro.serving.cache.QueryCache` memoising full results with
  per-site tags,
* optionally a :class:`~repro.ir.vector_space.VectorSpaceIndex` plus the
  :mod:`repro.ir.combined` rules, so free-text queries are answered by the
  paper's future-work combination of query-based and link-based ranking.

Attached to an :class:`~repro.web.incremental.IncrementalLayeredRanker`
(:meth:`RankingService.attach` or :meth:`RankingService.from_incremental`),
the service subscribes to update notifications: a site-local change
replaces only that site's shard and invalidates only the cache entries
tagged with the site (plus global top-k entries), while a SiteRank change
rebuilds all shards — exactly mirroring the incremental-maintenance
granularity of the ranking itself.  A rebuilt shard is the paper's step 5
for one site, ``π_S(s) · π_D(s)``: one scalar–vector multiply of factors
the ranker already holds, done inline by :meth:`RankingService.apply_update`
(measured at 4–6 % of an update; every pooled dispatch of it was slower).

One deliberate asymmetry: the subscription keeps *scores* current, but the
text index is built once — documents added after construction are served
by :meth:`RankingService.top` yet stay invisible to free-text queries
until :meth:`RankingService.refresh_index` is called with a corpus that
covers them (link analysis knows about a new page immediately; its text
only after re-indexing).
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..exceptions import ValidationError
from ..ir.combined import (
    CombinationRule,
    SearchHit,
    combine_arrays,
    validate_combination,
)
from ..ir.vector_space import VectorSpaceIndex
from ..web.docgraph import DocGraph
from ..web.incremental import IncrementalLayeredRanker, UpdateReport
from ..web.pipeline import WebRankingResult
from .cache import GLOBAL_TAG, CacheStats, QueryCache
from .store import LinkScoreView, ScoredDocument, ShardedScoreStore
from .topk import TopKEngine


class RankingService:
    """Serves top-k and free-text ranking queries over a computed DocRank.

    Parameters
    ----------
    store:
        The sharded score store to serve from.
    index:
        Optional text index; without one only :meth:`top` queries are
        available and :meth:`query` raises.
    cache_size:
        Capacity of the LRU result cache.
    rule, weight, rrf_constant:
        Defaults of the query/link combination (see
        :func:`repro.ir.combined.combined_search`).
    """

    def __init__(self, store: ShardedScoreStore, *,
                 index: Optional[VectorSpaceIndex] = None,
                 cache_size: int = 1024,
                 rule: CombinationRule = "linear",
                 weight: float = 0.5,
                 rrf_constant: float = 60.0) -> None:
        self._store = store
        self._engine = TopKEngine(store)
        self._cache = QueryCache(maxsize=cache_size)
        self._index = index
        self._rule: CombinationRule = rule
        self._weight = weight
        self._rrf_constant = rrf_constant
        self._ranker: Optional[IncrementalLayeredRanker] = None
        #: Whether close() should also close the attached ranker (set by
        #: owners that built it on the service's behalf, e.g.
        #: repro.api.Ranker.serve).
        self._owns_ranker = False
        #: Link scores and owning sites aligned to the text index's rows,
        #: per segment (``None`` = base ranking); built lazily, patched
        #: per changed site on shard updates.
        self._link_views: Dict[Optional[str], LinkScoreView] = {}
        self.queries_served = 0
        #: Rebuild accounting, surfaced in stats()["engine"] and /metrics.
        self.rebuilds = 0
        self.shards_rebuilt = 0
        self.swap_count = 0
        self.last_rebuild_seconds = 0.0
        # The HTTP endpoint serves from multiple threads while incremental
        # updates replace the store; the coarse read lock is held by
        # queries and — only for the pointer swap — by rebuilds, so reads
        # are always consistent yet never wait out a rebuild.
        self._lock = threading.RLock()
        # Serialises whole rebuilds against each other (see _on_update).
        self._rebuild_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ranking(cls, ranking: WebRankingResult, docgraph: DocGraph, *,
                     corpus: Optional[Dict[int, str]] = None,
                     index: Optional[VectorSpaceIndex] = None,
                     **kwargs) -> "RankingService":
        """Build a service from an offline ranking result.

        *corpus* is an optional ``{doc_id: text}`` mapping (e.g. from
        :func:`repro.ir.corpus.synthesize_corpus`); when given, a
        vector-space index is built so free-text queries work.  Pass
        *index* instead to reuse an already-built one (not both).
        """
        if corpus is not None and index is not None:
            raise ValidationError("pass either corpus or index, not both")
        store = ShardedScoreStore.from_ranking(ranking, docgraph)
        if corpus is not None:
            index = VectorSpaceIndex.from_corpus(corpus)
        return cls(store, index=index, **kwargs)

    @classmethod
    def from_incremental(cls, ranker: IncrementalLayeredRanker, *,
                         corpus: Optional[Dict[int, str]] = None,
                         **kwargs) -> "RankingService":
        """Build a service over a live incremental ranker and attach to it."""
        service = cls.from_ranking(ranker.ranking(), ranker.docgraph,
                                   corpus=corpus, **kwargs)
        service.attach(ranker)
        return service

    # ------------------------------------------------------------------ #
    # Incremental-update subscription
    # ------------------------------------------------------------------ #
    def attach(self, ranker: IncrementalLayeredRanker) -> None:
        """Subscribe to a ranker's update notifications.

        The ranker must maintain exactly the personalisation segments the
        store serves — otherwise the first incremental rebuild would
        either drop segment columns mid-flight or install ones no query
        can reach — so the mismatch is rejected here, at attach time.
        """
        if self._ranker is not None:
            raise ValidationError("service is already attached to a ranker")
        if tuple(ranker.segments) != self._store.segments:
            raise ValidationError(
                f"ranker maintains segments {list(ranker.segments)!r} but "
                f"the store serves {list(self._store.segments)!r}")
        self._ranker = ranker
        ranker.subscribe(self._on_update)

    def detach(self) -> None:
        """Stop following the attached ranker (no-op when unattached).

        A ranker the service *owns* (built on its behalf by
        :meth:`repro.api.Ranker.serve` with ``incremental=True``) is also
        closed: after detaching, the service was its only handle, and an
        orphaned ranker would leak its engine worker pool.
        """
        if self._ranker is not None:
            ranker, owned = self._ranker, self._owns_ranker
            ranker.unsubscribe(self._on_update)
            self._ranker = None
            self._owns_ranker = False
            if owned:
                ranker.close()

    def close(self) -> None:
        """Release what the service holds: :meth:`detach`, which also
        closes a ranker the service owns."""
        self.detach()

    def __enter__(self) -> "RankingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _on_update(self, report: UpdateReport) -> None:
        self.apply_update(report)

    def apply_update(self, report: UpdateReport, *,
                     ranker: Optional[IncrementalLayeredRanker] = None
                     ) -> None:
        """Repair shards and cache after an incremental ranking update.

        Each invalidated site's shard is the paper's step 5 for that
        site — ``π_S(s) · π_D(s)``, one scalar–vector multiply of the
        ranker's cached factors, computed here on the calling thread.
        Double-buffered: the new shards are installed into a *copy* of the
        current store
        (:meth:`~repro.serving.store.ShardedScoreStore.rebuilt`) while
        queries keep being answered from the live one — the service lock
        is taken only at the very end, for the pointer swap and the cache
        invalidation.

        Normally invoked through the attached ranker's update
        notifications; *ranker* lets an orchestrator rebuild an
        *unattached* replica from a shared ranker — the rolling-rebuild
        loop of :class:`~repro.serving.replicas.ReplicaSet` drives each
        replica through this method, one at a time.

        ``_rebuild_lock`` serialises whole rebuilds against each other
        (two interleaved rebuilds could otherwise each copy the same base
        store and the second swap would silently drop the first's
        shards); queries never take it.
        """
        source = ranker if ranker is not None else self._ranker
        if source is None:
            raise ValidationError(
                "service is not attached to a ranker; pass ranker= to "
                "rebuild from one")
        with self._rebuild_lock:
            self._apply_update(report, source)

    def _apply_update(self, report: UpdateReport,
                      ranker: IncrementalLayeredRanker) -> None:
        rebuild_started = perf_counter()
        docgraph = ranker.docgraph
        if report.siterank_recomputed:
            # Every site's composed score changed: rebuild all shards and
            # drop shards of sites that no longer exist (append-only graphs
            # never hit the latter, but the store should not trust that).
            sites = list(docgraph.sites())
            drop = set(self._store.sites()) - set(sites)
        else:
            sites = list(report.recomputed_sites)
            drop = set()
        # In site order, so shard generations are deterministic.
        urls = docgraph.registry.urls
        replacements = {}
        for site in sites:
            local = ranker.local(site)
            shard = (local.doc_ids,
                     [urls[doc_id] for doc_id in local.doc_ids],
                     ranker.siterank.score_of(site) * local.scores)
            if self._store.segments:
                shard += (ranker.segment_shard_columns(site),)
            replacements[site] = shard
        rebuilt = self._store.rebuilt(replacements, drop=drop)
        with self._lock:
            self._store = rebuilt
            self._engine = TopKEngine(rebuilt)
            if report.siterank_recomputed:
                self._cache.clear()
                self._link_views.clear()  # rebuilt lazily from fresh shards
            else:
                for site in sites:
                    self._cache.invalidate_tag(site)
                # Any global top-k may admit documents of a changed site,
                # and a query whose candidates span every site is tagged
                # global as well.
                self._cache.invalidate_tag(GLOBAL_TAG)
                self._link_views = {
                    segment: rebuilt.link_score_view(
                        self._index.doc_id_array, segment=segment,
                        previous=view, changed=sites)
                    for segment, view in self._link_views.items()}
            self.swap_count += 1
        rebuild_seconds = perf_counter() - rebuild_started
        self.rebuilds += 1
        self.shards_rebuilt += len(sites)
        self.last_rebuild_seconds = rebuild_seconds
        obs.inc("serving_rebuilds_total")
        obs.inc("serving_shards_rebuilt_total", float(len(sites)))
        obs.inc("serving_swaps_total")
        obs.observe("serving_rebuild_seconds", rebuild_seconds)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def top(self, k: int, *, site: Optional[str] = None,
            segment: Optional[str] = None) -> Tuple[ScoredDocument, ...]:
        """The current global (or per-site) top-k, served through the cache.

        Naming a *segment* answers from that personalisation segment's
        score column — same shards, same orders, no per-segment rebuild.
        Results are tuples (here and in :meth:`query`) so callers cannot
        mutate the cached entry that later hits are served from.
        """
        return self._top("top", k, site, segment, lambda k: tuple(
            self._engine.top_k(k, site=site, segment=segment)))[1]

    def top_body(self, k: int, *, site: Optional[str] = None,
                 segment: Optional[str] = None) -> bytes:
        """The encoded ``/top`` response body of :meth:`top`.

        Byte-identical to ``json.dumps`` of the router's payload for the
        same request, but joined from the store's per-document JSON
        fragments (:meth:`ShardedScoreStore.top_fragments`) and cached as
        bytes, so neither record objects nor a payload dict are built.
        """
        def echo(k: int) -> bytes:
            return f'{{"k": {json.dumps(k)}'.encode("utf-8")

        def encode(k: int) -> bytes:
            fragments = self._store.top_fragments(k, site=site,
                                                  segment=segment)
            tail = "" if segment is None \
                else f', "segment": {json.dumps(segment)}'
            return echo(k) + (f', "site": {json.dumps(site)}, '
                              f'"results": [{", ".join(fragments)}]{tail}}}'
                              ).encode("utf-8")

        held, body = self._top("top_body", k, site, segment, encode)
        if held != k:
            # Served from the shared entry: only the echo of k differs.
            body = echo(k) + body[len(echo(held)):]
        return body

    def _top(self, kind: str, k: int, site: Optional[str],
             segment: Optional[str], compute):
        """One cached top-k lookup; ``compute(k)`` runs on a miss, locked.

        Every ``k`` at or above the number of documents in scope has the
        same results, so all of them share the entry of that number: a
        stream of distinct oversized ``k`` caches one full answer, not one
        per value.  Returns ``(k the entry is held under, result)``.
        """
        # Validate before the cache lookup so rejected requests do not
        # pollute the hit/miss statistics.
        if k < 0:
            raise ValidationError("k must be non-negative")
        with self._lock:
            # shard_size raises on unknown sites.
            k = min(k, self._store.n_documents if site is None
                    else self._store.shard_size(site))
            if segment is not None:
                self._store.segment_position(segment)  # raises on unknown
            # Segment-less keys keep their 1.3 shape so an upgraded
            # service reuses (and stays byte-identical to) the
            # unpersonalised path.
            key = (kind, k, site) if segment is None \
                else (kind, k, site, segment)
            result = self._cache.get(key)
            if result is None:
                started = perf_counter()
                result = compute(k)
                self._cache.put(key, result, tags=(GLOBAL_TAG,)
                                if site is None else (site,))
                obs.observe("serving_top_seconds", perf_counter() - started,
                            scope="global" if site is None else "site")
            self.queries_served += 1
            return k, result

    def query(self, text: str, k: int = 10, *,
              rule: Optional[CombinationRule] = None,
              weight: Optional[float] = None,
              segment: Optional[str] = None) -> Tuple[SearchHit, ...]:
        """Answer a free-text query with combined query+link ranking.

        Naming a *segment* combines the text scores with that
        personalisation segment's score column instead of the base
        ranking.  The result is cached, tagged with the sites of *all*
        retrieved candidates (not just the returned hits): a changed site
        can alter the min-max normalisation — and hence the combined
        order — through any candidate, so any such change must invalidate
        the entry.  Candidates spanning every site collapse to the one
        global tag, which every update invalidates.
        """
        if self._index is None:
            raise ValidationError(
                "this service has no text index; build it with a corpus")
        rule = self._rule if rule is None else rule
        weight = self._weight if weight is None else weight
        # Same checks combine_candidates would apply, but before the cache
        # lookup so rejected requests do not pollute the hit/miss statistics.
        if rule not in ("linear", "rrf"):
            raise ValidationError(f"unknown combination rule {rule!r}")
        validate_combination(weight, k)
        # Segment-less keys keep their 1.3 shape (see top()).
        key = ("query", text, k, rule, weight) if segment is None \
            else ("query", text, k, rule, weight, segment)
        with self._lock:
            if segment is not None:
                self._store.segment_position(segment)  # raises on unknown
            cached = self._cache.get(key)
            if cached is not None:
                self.queries_served += 1
                return cached

        def compute() -> Tuple[SearchHit, ...]:
            # A racing thread may have filled the entry between our miss
            # and winning the flight — serve it rather than recompute.
            cached = self._cache.peek(key)
            if cached is not None:
                return cached
            # Snapshot the consistent inputs under the lock, then search
            # and combine outside it, so concurrent misses do not
            # serialise on the coarse lock.
            with self._lock:
                index = self._index
                links = self._link_view(segment)
                generation = self._store.generation
            search_started = perf_counter()
            rows, query_scores = index.match(text)
            combine_started = perf_counter()
            hits = tuple(combine_arrays(
                index.doc_id_array[rows], query_scores, links.scores[rows],
                rule=rule, weight=weight, k=k,
                rrf_constant=self._rrf_constant))
            obs.observe("serving_query_search_seconds",
                        combine_started - search_started)
            obs.observe("serving_query_combine_seconds",
                        perf_counter() - combine_started)
            obs.observe("serving_query_candidates", float(rows.size))
            site_rows = np.unique(links.site_rows[rows])
            site_rows = site_rows[site_rows >= 0]
            if site_rows.size == len(links.sites):
                tags = (GLOBAL_TAG,)
            else:
                tags = [links.sites[row] for row in site_rows.tolist()]
            with self._lock:
                # Admit only when no rebuild swapped the store (and no
                # refresh replaced the index) mid-compute — a stale entry
                # would otherwise outlive the invalidation that already
                # ran.  The computed hits are still returned either way.
                if self._store.generation == generation \
                        and self._index is index:
                    self._cache.put(key, hits, tags=tags)
            return hits

        # Per-key in-flight gating: a stampede of concurrent misses on
        # this key computes once, everyone shares the leader's result.
        hits = self._cache.single_flight(key, compute)
        with self._lock:
            self.queries_served += 1
        return hits

    def query_many(self, texts: Sequence[str], k: int = 10, *,
                   rule: Optional[CombinationRule] = None,
                   weight: Optional[float] = None,
                   segment: Optional[str] = None
                   ) -> List[Tuple[SearchHit, ...]]:
        """Answer a batch of free-text queries.

        Repeated query texts within the batch are deduplicated *before*
        hitting the retrieval engine — each distinct text is answered
        once and the shared result fans back out to every occurrence, so
        the response list is order- and byte-identical to answering each
        query separately.
        """
        unique: Dict[str, Tuple[SearchHit, ...]] = {}
        for text in texts:
            if text not in unique:
                unique[text] = self.query(text, k, rule=rule, weight=weight,
                                          segment=segment)
        repeats = len(texts) - len(unique)
        if repeats:
            obs.inc("serving_batch_dedup_total", float(repeats))
            with self._lock:
                self.queries_served += repeats
        return [unique[text] for text in texts]

    def score_of(self, doc_id: int) -> float:
        """Point lookup of one document's current global score (O(1))."""
        with self._lock:
            return self._store.score_of(doc_id)

    def refresh_index(self, corpus: Dict[int, str]) -> None:
        """Rebuild the text index from a fresh ``{doc_id: text}`` corpus.

        The incremental subscription keeps shards and link scores current,
        but the text index is a one-time build — call this after adding
        documents whose text should become searchable.  All cached query
        results are dropped (any of them could now retrieve differently).
        """
        with self._lock:
            self._index = VectorSpaceIndex.from_corpus(corpus)
            self._link_views.clear()  # aligned to the old index's rows
            self._cache.clear()

    def describe(self, doc_id: int) -> Optional[ScoredDocument]:
        """Locked point lookup of one document's record (None if unknown).

        The HTTP handlers use this instead of reaching into
        :attr:`store` directly, so reads cannot race an in-flight shard
        replacement.
        """
        with self._lock:
            return self._store.find(doc_id)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> ShardedScoreStore:
        """The underlying sharded score store."""
        return self._store

    @property
    def engine(self) -> TopKEngine:
        """The top-k engine."""
        return self._engine

    @property
    def segments(self) -> Tuple[str, ...]:
        """Personalisation segment names served (``()`` for base-only)."""
        return self._store.segments

    @property
    def cache(self) -> QueryCache:
        """The result cache."""
        return self._cache

    @property
    def index(self) -> Optional[VectorSpaceIndex]:
        """The text index (``None`` for link-only services)."""
        return self._index

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss statistics of the result cache."""
        return self._cache.stats

    def stats(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot of the service's state.

        One dict aggregating store state (top-level keys, unchanged since
        1.2), cache counters (``"cache"``) and the rebuild counters
        (``"engine"``: rebuilds, shards rebuilt, swaps and the last
        rebuild's duration).
        """
        with self._lock:
            return {
                "documents": self._store.n_documents,
                "shards": self._store.n_shards,
                "generation": self._store.generation,
                "queries_served": self.queries_served,
                "cache_entries": len(self._cache),
                "cache": self._cache.stats.as_dict(),
                "has_text_index": self._index is not None,
                "attached_to_ranker": self._ranker is not None,
                "segments": list(self._store.segments),
                "engine": {
                    "rebuilds": self.rebuilds,
                    "shards_rebuilt": self.shards_rebuilt,
                    "swaps": self.swap_count,
                    "last_rebuild_seconds": self.last_rebuild_seconds,
                },
            }

    # ------------------------------------------------------------------ #
    def _link_view(self, segment: Optional[str] = None) -> LinkScoreView:
        view = self._link_views.get(segment)
        if view is None:
            view = self._store.link_score_view(self._index.doc_id_array,
                                               segment=segment)
            self._link_views[segment] = view
        return view
