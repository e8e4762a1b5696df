"""Sharded storage of a computed global DocRank for online serving.

The Partition Theorem decomposes the global DocRank into a tiny SiteRank
plus independent per-site local vectors; :class:`ShardedScoreStore` mirrors
that decomposition at serving time.  Scores are partitioned into one shard
per web site, so

* a point lookup (``score_of``) is a single dictionary access, O(1);
* each shard keeps its documents in score order (a materialised per-shard
  top-k heap), so the :class:`~repro.serving.topk.TopKEngine` can answer
  global top-k queries by a lazy k-way merge instead of a full sort;
* an incremental update that touched one site replaces exactly one shard
  (``update_site``) and leaves every other shard — and every cached result
  that does not involve the site — untouched.

The store is deliberately decoupled from how the ranking was computed: it
can be filled from a centralized :class:`~repro.web.pipeline.WebRankingResult`,
from the shards of the distributed coordinator, or incrementally from an
:class:`~repro.web.incremental.IncrementalLayeredRanker` (the
:class:`~repro.serving.service.RankingService` does the latter).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import GraphStructureError, ValidationError
from ..web.docgraph import DocGraph
from ..web.pipeline import WebRankingResult


@dataclass(frozen=True)
class ScoredDocument:
    """One document as served to a client.

    Attributes
    ----------
    doc_id:
        Global document id.
    url:
        Canonical URL.
    site:
        Owning web site (the shard the document lives in).
    score:
        Current global ranking score.
    """

    doc_id: int
    url: str
    site: str
    score: float


@dataclass(frozen=True)
class LinkScoreView:
    """Link scores and owning sites aligned to a fixed set of rows.

    The rows are the ascending document ids of a text index, so a query's
    candidate rows index these arrays directly.  Never mutated: an update
    produces a patched copy (see
    :meth:`ShardedScoreStore.link_score_view`), so a query may keep using
    the view it snapshotted while a rebuild swaps in the next one.

    Attributes
    ----------
    scores:
        Link score of every row; ``0.0`` where the store holds no such
        document.
    site_rows:
        Position in :attr:`sites` of every row's owning site; ``-1`` where
        the store holds no such document.
    sites:
        The store's shard identifiers.
    """

    scores: np.ndarray
    site_rows: np.ndarray
    sites: Tuple[str, ...]


class _Shard:
    """One site's slice of the score vector, kept in score order.

    With personalisation, the shard additionally holds an ``(n_docs, K)``
    block of per-segment scores; the per-segment sort orders are computed
    lazily on the first query of each segment (a shard whose segments are
    never queried pays nothing beyond the matrix itself).
    """

    __slots__ = ("site", "doc_ids", "urls", "scores", "order", "generation",
                 "segment_columns", "_segment_orders")

    def __init__(self, site: str, doc_ids: List[int], urls: List[str],
                 scores: np.ndarray, generation: int,
                 segment_columns: Optional[np.ndarray] = None) -> None:
        self.site = site
        self.doc_ids = doc_ids
        self.urls = urls
        self.scores = scores
        # Descending by score, ties broken by ascending doc id — the same
        # deterministic order WebRankingResult.top_k uses.
        tie_break = np.asarray(doc_ids)
        self.order = np.lexsort((tie_break, -scores))
        self.generation = generation
        self.segment_columns = segment_columns
        # Lazily filled per-segment sort orders.  Shards are shared across
        # double-buffered store generations; filling a slot is an
        # idempotent cache write (two racing readers compute identical
        # arrays), so no lock is needed.
        self._segment_orders: List[Optional[np.ndarray]] = (
            [] if segment_columns is None
            else [None] * segment_columns.shape[1])

    def __len__(self) -> int:
        return len(self.doc_ids)

    def _order_for(self, segment_index: Optional[int]) -> np.ndarray:
        if segment_index is None:
            return self.order
        order = self._segment_orders[segment_index]
        if order is None:
            tie_break = np.asarray(self.doc_ids)
            order = np.lexsort((tie_break,
                                -self.segment_columns[:, segment_index]))
            self._segment_orders[segment_index] = order
        return order

    def id_score_arrays(self, segment_index: Optional[int] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """The shard's document ids and their scores, position-aligned."""
        scores = (self.scores if segment_index is None
                  else self.segment_columns[:, segment_index])
        return np.asarray(self.doc_ids, dtype=np.int64), scores

    def document_at(self, position: int,
                    segment_index: Optional[int] = None) -> ScoredDocument:
        index = int(self._order_for(segment_index)[position])
        score = (self.scores[index] if segment_index is None
                 else self.segment_columns[index, segment_index])
        return ScoredDocument(doc_id=self.doc_ids[index], url=self.urls[index],
                              site=self.site, score=float(score))

    def iter_descending(self, segment_index: Optional[int] = None
                        ) -> Iterator[ScoredDocument]:
        for position in range(len(self._order_for(segment_index))):
            yield self.document_at(position, segment_index)


class ShardedScoreStore:
    """Document scores partitioned by web site with O(1) point lookup.

    Parameters
    ----------
    segments:
        Names of the personalisation segments every shard carries score
        columns for (empty for a base-only store).  Fixed at construction
        so all shards stay mutually consistent: with segments declared,
        every :meth:`update_site` must supply a matching
        ``segment_columns`` block; without, none may.
    """

    def __init__(self, segments: Sequence[str] = ()) -> None:
        self._segments: Tuple[str, ...] = tuple(segments)
        if len(set(self._segments)) != len(self._segments):
            raise ValidationError("segment names must be unique")
        self._shards: Dict[str, _Shard] = {}
        #: doc_id -> (site, url, score); the O(1) lookup structure.
        self._entries: Dict[int, Tuple[str, str, float]] = {}
        self._generation = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ranking(cls, ranking: WebRankingResult,
                     docgraph: DocGraph) -> "ShardedScoreStore":
        """Partition a computed global ranking by the DocGraph's sites.

        A ranking carrying personalisation segments yields a multi-column
        store: each shard gets the site's rows of
        :attr:`~repro.web.pipeline.WebRankingResult.segment_columns`.
        """
        store = cls(ranking.segments)
        by_site: Dict[str, Tuple[List[int], List[str], List[float],
                                 List[int]]] = {}
        for position, doc_id in enumerate(ranking.doc_ids):
            site = docgraph.site_of_document(doc_id)
            doc_ids, urls, scores, rows = by_site.setdefault(
                site, ([], [], [], []))
            doc_ids.append(doc_id)
            urls.append(ranking.urls[position])
            scores.append(float(ranking.scores[position]))
            rows.append(position)
        for site, (doc_ids, urls, scores, rows) in by_site.items():
            columns = (ranking.segment_columns[np.asarray(rows, dtype=int)]
                       if ranking.segments else None)
            store.update_site(site, doc_ids, urls,
                              np.asarray(scores, dtype=float),
                              segment_columns=columns)
        return store

    def update_site(self, site: str, doc_ids: Sequence[int],
                    urls: Sequence[str], scores, *,
                    segment_columns=None) -> int:
        """Replace (or create) one site's shard; returns its new generation.

        The replaced shard's documents are removed first, so a shard may
        shrink or grow — e.g. after documents were added to the site through
        the incremental ranker.  A store with declared segments requires a
        ``(len(doc_ids), n_segments)`` *segment_columns* block (rows
        aligned with *doc_ids*); a base-only store rejects one.
        """
        scores = np.asarray(scores, dtype=float).ravel()
        if not (len(doc_ids) == len(urls) == scores.size):
            raise ValidationError("doc_ids, urls and scores must align")
        if scores.size and not np.all(np.isfinite(scores)):
            raise ValidationError(f"shard {site!r} has non-finite scores")
        if len(set(doc_ids)) != len(doc_ids):
            raise ValidationError(f"shard {site!r} has duplicate document ids")
        if self._segments:
            if segment_columns is None:
                raise ValidationError(
                    f"store serves segments {list(self._segments)!r}; "
                    f"shard {site!r} update must supply segment_columns")
            segment_columns = np.asarray(segment_columns, dtype=float)
            if segment_columns.shape != (len(doc_ids), len(self._segments)):
                raise ValidationError(
                    f"shard {site!r} segment_columns must be "
                    f"({len(doc_ids)}, {len(self._segments)}), got "
                    f"{segment_columns.shape}")
            if segment_columns.size and \
                    not np.all(np.isfinite(segment_columns)):
                raise ValidationError(
                    f"shard {site!r} has non-finite segment scores")
        elif segment_columns is not None:
            raise ValidationError(
                "store has no personalisation segments; "
                "segment_columns must be None")
        # Validate ownership before mutating anything, so a rejected update
        # leaves the store untouched: a document may reappear in its own
        # site's replacement but never be stolen from another live shard.
        for doc_id in doc_ids:
            entry = self._lookup(doc_id)
            if entry is not None and entry[0] != site:
                raise GraphStructureError(
                    f"document {doc_id} already belongs to shard "
                    f"{entry[0]!r}")
        self._forget_entries(self._shards.get(site))
        self._generation += 1
        shard = _Shard(site, list(doc_ids), list(urls), scores,
                       self._generation, segment_columns)
        self._shards[site] = shard
        for index, doc_id in enumerate(shard.doc_ids):
            self._entries[doc_id] = (site, shard.urls[index],
                                     float(scores[index]))
        return shard.generation

    def drop_site(self, site: str) -> None:
        """Remove one site's shard entirely."""
        self._forget_entries(self._shard(site))
        del self._shards[site]
        self._generation += 1

    def _forget_entries(self, shard) -> None:
        """Drop a departing shard's documents from the lookup dict.

        Only a resident :class:`_Shard` has entries; a subclass's foreign
        shards (served through :meth:`_missing_entry`) stop resolving the
        moment they leave ``_shards``.
        """
        if isinstance(shard, _Shard):
            for doc_id in shard.doc_ids:
                del self._entries[doc_id]

    def rebuilt(self, replacements: Dict[str, Tuple],
                *, drop: Iterable[str] = ()) -> "ShardedScoreStore":
        """A *new* store with the given shards replaced — the back buffer.

        Each replacement is ``(doc_ids, urls, scores)`` or — for a store
        with personalisation segments — ``(doc_ids, urls, scores,
        segment_columns)``.

        This is the double-buffering primitive of the serving layer's
        incremental updates: the (potentially long) rebuild of invalidated
        shards happens on this copy while readers keep querying the old
        store, and the :class:`~repro.serving.service.RankingService`
        then swaps its store pointer under the service lock — the only
        moment queries wait.

        Untouched shards are *shared* with this store (a shard is never
        mutated after construction, so sharing is safe), as is everything
        else a subclass hangs on the instance; the generation counter
        continues from this store's, preserving the deterministic
        per-shard generation sequence ``update_site`` in place would have
        produced: drops first, then replacements in the order
        *replacements* iterates.
        """
        clone = copy(self)
        clone._shards = dict(self._shards)
        clone._entries = dict(self._entries)
        for site in drop:
            if site in clone._shards:
                clone.drop_site(site)
        for site, replacement in replacements.items():
            doc_ids, urls, scores = replacement[:3]
            columns = replacement[3] if len(replacement) > 3 else None
            clone.update_site(site, doc_ids, urls, scores,
                              segment_columns=columns)
        return clone

    def clone(self) -> "ShardedScoreStore":
        """An independent store over this one's (immutable, shared) shards.

        The clone starts bitwise-identical — same shards, same generation —
        but evolves independently from here on: replacing a shard in one
        store never affects the other.  This is the replication primitive
        of :class:`~repro.serving.replicas.ReplicaSet`: every replica gets
        its own swappable store pointer at the cost of the per-document
        lookup dict, not of the score data.
        """
        return self.rebuilt({})

    # ------------------------------------------------------------------ #
    # Point lookups (O(1))
    # ------------------------------------------------------------------ #
    def score_of(self, doc_id: int) -> float:
        """Global score of a document id (O(1))."""
        return self._entry(doc_id)[2]

    def site_of(self, doc_id: int) -> str:
        """Owning site of a document id (O(1))."""
        return self._entry(doc_id)[0]

    def document(self, doc_id: int) -> ScoredDocument:
        """The full :class:`ScoredDocument` record of an id (O(1))."""
        site, url, score = self._entry(doc_id)
        return ScoredDocument(doc_id=doc_id, url=url, site=site, score=score)

    def link_scores(self, segment: Optional[str] = None) -> Dict[int, float]:
        """``{doc_id: score}`` over all shards, for the combined ranking.

        This is the *link_scores_by_doc* argument the
        :mod:`repro.ir.combined` rules expect.  Naming a *segment* reads
        that segment's score column instead of the base ranking.
        """
        column = (self.segment_position(segment)
                  if segment is not None else None)
        result: Dict[int, float] = {}
        for shard in self._shards.values():
            doc_ids, scores = shard.id_score_arrays(column)
            result.update(zip(doc_ids.tolist(), scores.tolist()))
        return result

    def link_score_view(self, doc_ids: np.ndarray, *,
                        segment: Optional[str] = None,
                        previous: Optional[LinkScoreView] = None,
                        changed: Iterable[str] = ()) -> LinkScoreView:
        """Link scores and owning sites aligned to ascending *doc_ids*.

        The array form of :meth:`link_scores` the serving layer combines
        text candidates with.  Given the *previous* view of an earlier
        generation of this store (same *doc_ids*, same *segment*, same
        site set) only the *changed* sites' rows are recomputed, on a
        copy.
        """
        column = (self.segment_position(segment)
                  if segment is not None else None)
        if previous is None:
            sites = tuple(self._shards)
            changed = sites
            scores = np.zeros(doc_ids.size)
            site_rows = np.full(doc_ids.size, -1, dtype=np.int32)
        else:
            sites = previous.sites
            scores = previous.scores.copy()
            site_rows = previous.site_rows.copy()
        site_row_of = {site: row for row, site in enumerate(sites)}
        for site in changed:
            site_row = site_row_of[site]
            if previous is not None:
                stale = site_rows == site_row
                scores[stale] = 0.0
                site_rows[stale] = -1
            shard_ids, shard_scores = \
                self._shard(site).id_score_arrays(column)
            rows = np.searchsorted(doc_ids, shard_ids)
            rows[rows == doc_ids.size] = 0
            held = doc_ids[rows] == shard_ids
            scores[rows[held]] = shard_scores[held]
            site_rows[rows[held]] = site_row
        return LinkScoreView(scores, site_rows, sites)

    def __contains__(self, doc_id: int) -> bool:
        return self._lookup(doc_id) is not None

    # ------------------------------------------------------------------ #
    # Shard access
    # ------------------------------------------------------------------ #
    def sites(self) -> List[str]:
        """All shard identifiers, in first-seen order."""
        return list(self._shards)

    @property
    def segments(self) -> Tuple[str, ...]:
        """Personalisation segment names served (``()`` for base-only)."""
        return self._segments

    def segment_position(self, segment: str) -> int:
        """Column index of a named segment (raises on unknown names)."""
        try:
            return self._segments.index(segment)
        except ValueError:
            raise ValidationError(
                f"unknown segment {segment!r}; available: "
                f"{list(self._segments)!r}") from None

    def segment_score_of(self, doc_id: int, segment: str) -> float:
        """One document's score under a named segment."""
        column = self.segment_position(segment)
        site = self._entry(doc_id)[0]
        shard = self._shards[site]
        return float(shard.segment_columns[shard.doc_ids.index(doc_id),
                                           column])

    @property
    def n_documents(self) -> int:
        """Total documents across all shards."""
        return len(self._entries)

    @property
    def n_shards(self) -> int:
        """Number of shards (sites)."""
        return len(self._shards)

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every shard replacement."""
        return self._generation

    def shard_generation(self, site: str) -> int:
        """Generation stamp of one shard (when it was last replaced)."""
        return self._shard(site).generation

    def shard_size(self, site: str) -> int:
        """Number of documents in one shard."""
        return len(self._shard(site))

    def shard_top(self, site: str, k: int, *,
                  segment: Optional[str] = None) -> List[ScoredDocument]:
        """The best ``k`` documents of one site, best first.

        Naming a *segment* ranks by that segment's score column instead of
        the base ranking.
        """
        if k < 0:
            raise ValidationError("k must be non-negative")
        column = (self.segment_position(segment)
                  if segment is not None else None)
        shard = self._shard(site)
        return [shard.document_at(position, column)
                for position in range(min(k, len(shard)))]

    def iter_shard_descending(self, site: str, *,
                              segment: Optional[str] = None
                              ) -> Iterator[ScoredDocument]:
        """Lazily iterate one shard's documents in descending score order."""
        column = (self.segment_position(segment)
                  if segment is not None else None)
        return self._shard(site).iter_descending(column)

    # ------------------------------------------------------------------ #
    def _shard(self, site: str) -> _Shard:
        try:
            return self._shards[site]
        except KeyError:
            raise GraphStructureError(f"unknown shard {site!r}") from None

    def _lookup(self, doc_id: int) -> Optional[Tuple[str, str, float]]:
        """``(site, url, score)`` of a document, ``None`` when not held."""
        entry = self._entries.get(doc_id)
        return entry if entry is not None else self._missing_entry(doc_id)

    def _missing_entry(self, doc_id: int
                       ) -> Optional[Tuple[str, str, float]]:
        """Resolve a document absent from the lookup dict.

        The one hook a subclass whose shards are not all resident
        overrides; point lookups *and* the ownership check of
        :meth:`update_site` go through it.
        """
        return None

    def _entry(self, doc_id: int) -> Tuple[str, str, float]:
        entry = self._lookup(doc_id)
        if entry is None:
            raise ValidationError(f"unknown document id {doc_id}")
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedScoreStore(n_shards={self.n_shards}, "
                f"n_documents={self.n_documents}, "
                f"generation={self.generation})")
