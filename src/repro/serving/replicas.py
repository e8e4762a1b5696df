"""Score-store replication behind a consistent-hash ring.

One :class:`~repro.serving.service.RankingService` serves one store behind
one lock and one result cache; under high QPS the hot path saturates.  This
module scales reads horizontally: a :class:`ReplicaSet` holds *N*
replicas — each a full ``RankingService`` over its own
:meth:`~repro.serving.store.ShardedScoreStore.clone` of the score store —
and routes every query through a :class:`HashRing`:

* **consistent hashing** — a query key always lands on the same replica
  (so each replica's result cache stays hot for *its* slice of the query
  stream, instead of every replica caching everything), and adding or
  draining a replica remaps only the keys that hashed to it;
* **readiness-aware routing** — a replica marked not-ready (draining for
  a rebuild) is skipped by walking the ring to the next ready replica;
  the ``/readyz`` endpoint surfaces the same state to external load
  balancers;
* **rolling zero-downtime rebuilds** — attached to an
  :class:`~repro.web.incremental.IncrementalLayeredRanker`, the set
  reacts to each update notification by rebuilding **one replica at a
  time**: drain it from the ring, apply the double-buffered shard rebuild
  (:meth:`RankingService.apply_update`), re-admit, move on.  At least one
  replica is ready at every instant, so queries are served throughout —
  the generalisation of the PR 4 double-buffered swap from one store to a
  replica fleet.  The set holds no worker pool: every replica recomposes
  its shards on the thread that delivered the update.

The set duck-types the query surface of ``RankingService`` (``top``,
``query``, ``query_many``, ``describe``, ``score_of``, ``stats``, …), so
:func:`~repro.serving.httpd.route_request` and the
:class:`~repro.serving.frontend.AsyncRankingServer` in front of it serve a
``ReplicaSet`` exactly like a single service.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from hashlib import blake2b
from time import sleep
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .. import obs
from ..exceptions import ValidationError
from ..ir.combined import CombinationRule, SearchHit
from ..ir.vector_space import VectorSpaceIndex
from ..web.docgraph import DocGraph
from ..web.incremental import IncrementalLayeredRanker, UpdateReport
from ..web.pipeline import WebRankingResult
from .service import RankingService
from .store import ScoredDocument, ShardedScoreStore


def _ring_hash(data: bytes) -> int:
    """Position of *data* on the ring (stable across processes and runs)."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


class HashRing:
    """A consistent-hash ring over named nodes with virtual nodes.

    Each node is hashed onto the ring at *vnodes* positions, so keys
    spread evenly even with a handful of nodes, and removing one node
    remaps only the ~1/N of keys that hashed to its arcs — every other
    key keeps its assignment (the property that keeps replica caches warm
    across membership changes).
    """

    def __init__(self, nodes: Iterable[str] = (), *,
                 vnodes: int = 64) -> None:
        if vnodes <= 0:
            raise ValidationError("vnodes must be positive")
        self._vnodes = vnodes
        #: Sorted (position, node) pairs — the ring itself.
        self._ring: List[Tuple[int, str]] = []
        self._nodes: Dict[str, None] = {}  # insertion-ordered set
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------ #
    @property
    def vnodes(self) -> int:
        """Virtual nodes per physical node."""
        return self._vnodes

    def nodes(self) -> Tuple[str, ...]:
        """Current nodes, in insertion order."""
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------ #
    def add(self, node: str) -> None:
        """Hash a node onto the ring at ``vnodes`` positions."""
        if node in self._nodes:
            raise ValidationError(f"node {node!r} is already on the ring")
        self._nodes[node] = None
        for vnode in range(self._vnodes):
            position = _ring_hash(f"{node}#{vnode}".encode("utf-8"))
            self._ring.append((position, node))
        self._ring.sort()

    def remove(self, node: str) -> None:
        """Take a node off the ring (its keys remap to ring successors)."""
        if node not in self._nodes:
            raise ValidationError(f"node {node!r} is not on the ring")
        del self._nodes[node]
        self._ring = [entry for entry in self._ring if entry[1] != node]

    # ------------------------------------------------------------------ #
    def node_for(self, key: object) -> str:
        """The node owning *key*: first ring position at or after its hash."""
        for node in self.preference(key):
            return node
        raise ValidationError("hash ring is empty")

    def preference(self, key: object) -> Iterator[str]:
        """Distinct nodes in ring order from *key*'s position.

        The first yielded node owns the key; the rest are the fallback
        sequence a router walks when the owner is drained — each key has
        its own deterministic failover order, so a drained node's load
        spreads over the whole fleet instead of piling onto one neighbour.
        """
        if not self._ring:
            return
        position = _ring_hash(repr(key).encode("utf-8"))
        start = bisect_right(self._ring, (position, "￿"))
        seen = set()
        for index in range(len(self._ring)):
            node = self._ring[(start + index) % len(self._ring)][1]
            if node not in seen:
                seen.add(node)
                yield node
                if len(seen) == len(self._nodes):
                    return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(nodes={list(self._nodes)!r}, vnodes={self._vnodes})"


class Replica:
    """One replica: a named :class:`RankingService` plus routing state."""

    __slots__ = ("name", "service", "ready", "queries_routed", "rebuilds")

    def __init__(self, name: str, service: RankingService) -> None:
        self.name = name
        self.service = service
        #: Whether the router may send queries here (False while draining).
        self.ready = True
        self.queries_routed = 0
        self.rebuilds = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Replica(name={self.name!r}, ready={self.ready}, "
                f"routed={self.queries_routed})")


class ReplicaSet:
    """N score-store replicas behind a consistent-hash ring.

    Parameters
    ----------
    services:
        The replica services (at least one); all must serve the same
        personalisation segments.  Build them over
        :meth:`ShardedScoreStore.clone` copies of one store — or use
        :meth:`from_ranking` / :meth:`from_incremental`, which do.
    names:
        Replica names (default ``replica-0..N-1``); these are the hash
        ring's node identifiers and the ``/readyz?replica=`` handles.
    vnodes:
        Virtual nodes per replica on the ring.
    drain_grace:
        Seconds a rolling rebuild waits after draining a replica before
        rebuilding it, giving requests routed just before the drain time
        to finish.  The double-buffered swap makes the rebuild safe even
        at 0 (the default); a grace period only widens the window in
        which external pollers can observe the drain.
    """

    def __init__(self, services: Sequence[RankingService], *,
                 names: Optional[Sequence[str]] = None,
                 vnodes: int = 64, drain_grace: float = 0.0) -> None:
        if not services:
            raise ValidationError("a ReplicaSet needs at least one replica")
        if names is None:
            names = [f"replica-{index}" for index in range(len(services))]
        if len(names) != len(services):
            raise ValidationError("names must align with services")
        if len(set(names)) != len(names):
            raise ValidationError("replica names must be unique")
        segments = services[0].segments
        for service in services[1:]:
            if service.segments != segments:
                raise ValidationError(
                    "every replica must serve the same segments; got "
                    f"{list(segments)!r} vs {list(service.segments)!r}")
        if drain_grace < 0:
            raise ValidationError("drain_grace must be non-negative")
        self._replicas = [Replica(name, service)
                          for name, service in zip(names, services)]
        self._by_name = {replica.name: replica for replica in self._replicas}
        self._ring = HashRing(names, vnodes=vnodes)
        self._drain_grace = float(drain_grace)
        self._ranker: Optional[IncrementalLayeredRanker] = None
        #: Guards routing state (readiness flags, counters).
        self._lock = threading.Lock()
        #: Serialises whole rolling rebuilds against each other.
        self._update_lock = threading.Lock()
        #: Cumulative rolling-rebuild passes over the whole set.
        self.rolling_rebuilds = 0
        #: Ownership flag mirroring RankingService's (set by builders
        #: that construct the ranker on the set's behalf).
        self._owns_ranker = False
        obs.set_gauge("serving_replicas_ready", float(len(self._replicas)))
        obs.set_gauge("serving_replicas_total", float(len(self._replicas)))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ranking(cls, ranking: WebRankingResult, docgraph: DocGraph, *,
                     n_replicas: int = 2,
                     corpus: Optional[Dict[int, str]] = None,
                     index: Optional[VectorSpaceIndex] = None,
                     vnodes: int = 64, drain_grace: float = 0.0,
                     **service_kwargs) -> "ReplicaSet":
        """Build *n_replicas* replicas from one offline ranking result.

        The score store is partitioned once and cloned per replica (the
        clones share the immutable shard data); the text index — when a
        *corpus* is given — is built once and shared outright, since it
        is read-only at serving time.  Remaining keyword arguments reach
        each replica's ``RankingService``.
        """
        if n_replicas < 1:
            raise ValidationError("n_replicas must be at least 1")
        if corpus is not None and index is not None:
            raise ValidationError("pass either corpus or index, not both")
        store = ShardedScoreStore.from_ranking(ranking, docgraph)
        if corpus is not None:
            index = VectorSpaceIndex.from_corpus(corpus)
        services = [RankingService(store if number == 0 else store.clone(),
                                   index=index, **service_kwargs)
                    for number in range(n_replicas)]
        return cls(services, vnodes=vnodes, drain_grace=drain_grace)

    @classmethod
    def from_incremental(cls, ranker: IncrementalLayeredRanker, *,
                         corpus: Optional[Dict[int, str]] = None,
                         **kwargs) -> "ReplicaSet":
        """Build a set over a live incremental ranker and attach to it."""
        replica_set = cls.from_ranking(ranker.ranking(), ranker.docgraph,
                                       corpus=corpus, **kwargs)
        replica_set.attach(ranker)
        return replica_set

    # ------------------------------------------------------------------ #
    # Incremental-update subscription → rolling rebuilds
    # ------------------------------------------------------------------ #
    def attach(self, ranker: IncrementalLayeredRanker) -> None:
        """Subscribe to a ranker; updates trigger rolling rebuilds.

        The set subscribes *once* — individual replicas stay unattached
        and are rebuilt through
        :meth:`RankingService.apply_update(..., ranker=...)` so the drain
        → rebuild → re-admit sequencing stays under the set's control.
        """
        if self._ranker is not None:
            raise ValidationError(
                "replica set is already attached to a ranker")
        if tuple(ranker.segments) != self.segments:
            raise ValidationError(
                f"ranker maintains segments {list(ranker.segments)!r} but "
                f"the replicas serve {list(self.segments)!r}")
        self._ranker = ranker
        ranker.subscribe(self._on_update)

    def detach(self) -> None:
        """Stop following the attached ranker (no-op when unattached)."""
        if self._ranker is not None:
            ranker, owned = self._ranker, self._owns_ranker
            ranker.unsubscribe(self._on_update)
            self._ranker = None
            self._owns_ranker = False
            if owned:
                ranker.close()

    def close(self) -> None:
        """Detach (closing a ranker the set owns) and close every replica."""
        self.detach()
        for replica in self._replicas:
            replica.service.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _on_update(self, report: UpdateReport) -> None:
        self.apply_update(report)

    def apply_update(self, report: UpdateReport) -> None:
        """Roll an update across the replicas, one drain at a time.

        For each replica in ring order: mark it not-ready (the router
        skips it from the next query on), wait out ``drain_grace``, apply
        the double-buffered shard rebuild from the shared ranker, then
        re-admit it.  The last ready replica is never drained — with a
        single replica this degrades to exactly the PR 4 in-place
        double-buffered swap, still serving queries throughout.
        """
        ranker = self._ranker
        if ranker is None:
            raise ValidationError(
                "replica set is not attached to a ranker")
        with self._update_lock:
            for replica in self._replicas:
                drained = self._drain(replica)
                try:
                    if drained and self._drain_grace:
                        sleep(self._drain_grace)
                    replica.service.apply_update(report, ranker=ranker)
                    replica.rebuilds += 1
                    obs.inc("serving_replica_rebuilds_total",
                            replica=replica.name)
                finally:
                    self._admit(replica)
            self.rolling_rebuilds += 1
            obs.inc("serving_rolling_rebuilds_total")

    def _drain(self, replica: Replica) -> bool:
        """Mark a replica not-ready unless it is the last one serving."""
        with self._lock:
            ready = sum(1 for entry in self._replicas if entry.ready)
            if ready <= 1:
                return False
            replica.ready = False
            obs.set_gauge("serving_replicas_ready", float(ready - 1))
            obs.inc("serving_replica_drains_total", replica=replica.name)
            return True

    def _admit(self, replica: Replica) -> None:
        with self._lock:
            replica.ready = True
            ready = sum(1 for entry in self._replicas if entry.ready)
            obs.set_gauge("serving_replicas_ready", float(ready))

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route(self, key: object) -> Replica:
        """The ready replica owning *key* (ring walk past drained ones)."""
        with self._lock:
            for name in self._ring.preference(key):
                replica = self._by_name[name]
                if replica.ready:
                    replica.queries_routed += 1
                    return replica
            raise ValidationError("no ready replica to serve the query")

    # ------------------------------------------------------------------ #
    # Query surface (duck-types RankingService)
    # ------------------------------------------------------------------ #
    def top(self, k: int, *, site: Optional[str] = None,
            segment: Optional[str] = None) -> Tuple[ScoredDocument, ...]:
        """Global/per-site top-k from the replica owning the query key."""
        return self.route(("top", k, site, segment)).service.top(
            k, site=site, segment=segment)

    def top_body(self, k: int, *, site: Optional[str] = None,
                 segment: Optional[str] = None) -> bytes:
        """The encoded ``/top`` body, from the replica :meth:`top` asks."""
        return self.route(("top", k, site, segment)).service.top_body(
            k, site=site, segment=segment)

    def query(self, text: str, k: int = 10, *,
              rule: Optional[CombinationRule] = None,
              weight: Optional[float] = None,
              segment: Optional[str] = None) -> Tuple[SearchHit, ...]:
        """One free-text query, routed by its text for cache affinity."""
        return self.route(text).service.query(text, k, rule=rule,
                                              weight=weight, segment=segment)

    def query_many(self, texts: Sequence[str], k: int = 10, *,
                   rule: Optional[CombinationRule] = None,
                   weight: Optional[float] = None,
                   segment: Optional[str] = None
                   ) -> List[Tuple[SearchHit, ...]]:
        """A batch of queries, partitioned over the replicas by text.

        Each text routes like :meth:`query` (same text → same replica →
        warm cache), the per-replica slices run as one deduplicated
        ``query_many`` batch each, and the answers reassemble in input
        order — byte-identical to answering against a single service.
        """
        return self._query_many(texts, k, rule, weight, segment)[0]

    def query_body(self, texts: Sequence[str], k: int = 10, *,
                   rule: Optional[CombinationRule] = None,
                   weight: Optional[float] = None,
                   segment: Optional[str] = None) -> bytes:
        """The encoded ``/query`` body of :meth:`query_many`, encoded by
        the replica that answered the first text."""
        batches, first = self._query_many(texts, k, rule, weight, segment)
        return first.service.hits_body(texts, batches, k, segment)

    def _query_many(self, texts: Sequence[str], k: int,
                    rule: Optional[CombinationRule],
                    weight: Optional[float], segment: Optional[str]
                    ) -> Tuple[List[Tuple[SearchHit, ...]], Replica]:
        """:meth:`query_many`'s answers and the replica of the first text."""
        groups: Dict[str, List[int]] = {}
        for position, text in enumerate(texts):
            groups.setdefault(self.route(text).name, []).append(position)
        results: List[Optional[Tuple[SearchHit, ...]]] = [None] * len(texts)
        for name, positions in groups.items():
            answers = self._by_name[name].service.query_many(
                [texts[position] for position in positions], k,
                rule=rule, weight=weight, segment=segment)
            for position, answer in zip(positions, answers):
                results[position] = answer
        # An empty batch reads no record: any replica can encode it.
        first = self._by_name[next(iter(groups))] if groups \
            else self._replicas[0]
        return results, first  # type: ignore[return-value]

    def score_of(self, doc_id: int) -> float:
        """Point lookup of one document's current global score."""
        return self.route(("score", doc_id)).service.score_of(doc_id)

    def describe(self, doc_id: int) -> Optional[ScoredDocument]:
        """Point lookup of one document's record (None if unknown)."""
        return self.route(("score", doc_id)).service.describe(doc_id)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def replicas(self) -> Tuple[Replica, ...]:
        """The replicas, in ring-insertion order."""
        return tuple(self._replicas)

    @property
    def n_replicas(self) -> int:
        """Number of replicas."""
        return len(self._replicas)

    @property
    def ring(self) -> HashRing:
        """The consistent-hash ring routing the queries."""
        return self._ring

    @property
    def segments(self) -> Tuple[str, ...]:
        """Personalisation segment names served (``()`` for base-only)."""
        return self._replicas[0].service.segments

    @property
    def store(self) -> ShardedScoreStore:
        """The first *ready* replica's store (for liveness probes)."""
        with self._lock:
            for replica in self._replicas:
                if replica.ready:
                    return replica.service.store
            return self._replicas[0].service.store

    @property
    def queries_served(self) -> int:
        """Total queries answered across all replicas."""
        return sum(replica.service.queries_served
                   for replica in self._replicas)

    def readiness(self) -> Dict[str, object]:
        """The readiness picture ``/readyz`` reports.

        ``ready`` is the set-level verdict — can *any* replica serve? —
        and ``replicas`` the per-replica detail the rolling-rebuild loop
        (or an external poller) watches to see a drain in progress.
        """
        with self._lock:
            replicas = [{"name": replica.name, "ready": replica.ready,
                         "generation": replica.service.store.generation,
                         "rebuilds": replica.rebuilds,
                         "queries_routed": replica.queries_routed}
                        for replica in self._replicas]
        return {"ready": any(entry["ready"] for entry in replicas),
                "draining": [entry["name"] for entry in replicas
                             if not entry["ready"]],
                "replicas": replicas}

    def stats(self) -> Dict[str, object]:
        """A JSON-serialisable aggregate over all replicas.

        Keeps the single-service shape (documents, generation, cache
        counters, ``"engine"``) so the HTTP server's scrape collector
        works unchanged, and adds a ``"replicas"`` section with the
        per-replica detail.
        """
        per_replica = [replica.service.stats()
                       for replica in self._replicas]
        first = per_replica[0]
        cache_totals: Dict[str, float] = {}
        for stats in per_replica:
            for field, value in stats["cache"].items():
                cache_totals[field] = cache_totals.get(field, 0.0) + value
        lookups = cache_totals.get("hits", 0.0) + \
            cache_totals.get("misses", 0.0)
        cache_totals["hit_rate"] = (cache_totals.get("hits", 0.0) / lookups
                                    if lookups else 0.0)
        readiness = self.readiness()
        return {
            "documents": first["documents"],
            "shards": first["shards"],
            "generation": max(stats["generation"] for stats in per_replica),
            "queries_served": self.queries_served,
            "cache_entries": sum(stats["cache_entries"]
                                 for stats in per_replica),
            "cache": cache_totals,
            "has_text_index": first["has_text_index"],
            "attached_to_ranker": self._ranker is not None,
            "segments": first["segments"],
            "engine": {
                "rebuilds": sum(stats["engine"]["rebuilds"]
                                for stats in per_replica),
                "shards_rebuilt": sum(stats["engine"]["shards_rebuilt"]
                                      for stats in per_replica),
                "swaps": sum(stats["engine"]["swaps"]
                             for stats in per_replica),
                "last_rebuild_seconds": max(
                    stats["engine"]["last_rebuild_seconds"]
                    for stats in per_replica),
            },
            "replicas": {
                "count": len(self._replicas),
                "ready": readiness["ready"],
                "draining": readiness["draining"],
                "rolling_rebuilds": self.rolling_rebuilds,
                "detail": readiness["replicas"],
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ready = sum(1 for replica in self._replicas if replica.ready)
        return (f"ReplicaSet(n_replicas={len(self._replicas)}, "
                f"ready={ready})")
