"""Sharded storage of a computed global DocRank for online serving.

The Partition Theorem decomposes the global DocRank into a tiny SiteRank
plus independent per-site local vectors; :class:`ShardedScoreStore` mirrors
that decomposition at serving time.  Scores are partitioned into one shard
per web site, so

* a point lookup (``score_of``) is a single dictionary access, O(1);
* each shard keeps its documents in score order, so a per-site top-k is a
  prefix of one array;
* a global top-k is a prefix too: the store sorts all shards' scores once
  per generation (one ``lexsort``, built lazily by the first global
  top-k after a change) and every later query slices that order in O(k);
* an incremental update that touched one site replaces exactly one shard
  (``update_site``) and leaves every other shard — its sort order, its
  cached per-document JSON fragments and every cached result that does not
  involve the site — untouched.  What an update costs a reader is one
  rebuild of the global order (~1 ms per 10k documents) and re-encoding
  the changed site's documents as they are next served.

The store is deliberately decoupled from how the ranking was computed: it
can be filled from a centralized :class:`~repro.web.pipeline.WebRankingResult`,
from the shards of the distributed coordinator, or incrementally from an
:class:`~repro.web.incremental.IncrementalLayeredRanker` (the
:class:`~repro.serving.service.RankingService` does the latter).
"""

from __future__ import annotations

import json
from copy import copy
from dataclasses import dataclass
from itertools import repeat
from time import perf_counter
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import obs
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


def _document_payload(document: ScoredDocument) -> Dict[str, Any]:
    """The JSON object one served document is sent as."""
    return {"doc_id": document.doc_id, "url": document.url,
            "site": document.site, "score": document.score}


class _GlobalOrder(NamedTuple):
    """All documents of one store generation in descending score order.

    Position ``i`` of the order is document ``rows[i]`` of shard
    ``shards[shard_rows[i]]``.
    """

    shards: list
    shard_rows: np.ndarray
    rows: np.ndarray


class _Shard:
    """One site's slice of the score vector, kept in score order.

    With personalisation, the shard additionally holds an ``(n_docs, K)``
    block of per-segment scores; the per-segment sort orders are computed
    lazily on the first query of each segment (a shard whose segments are
    never queried pays nothing beyond the matrix itself).
    """

    __slots__ = ("site", "doc_ids", "ids", "urls", "scores", "order",
                 "generation", "segment_columns", "_segment_orders",
                 "_fragments")

    def __init__(self, site: str, doc_ids: List[int], urls: List[str],
                 scores: np.ndarray, generation: int,
                 segment_columns: Optional[np.ndarray] = None) -> None:
        self.site = site
        self.doc_ids = doc_ids
        self.ids = np.asarray(doc_ids, dtype=np.int64)
        self.urls = urls
        self.scores = scores
        # Descending by score, ties broken by ascending doc id — the same
        # deterministic order WebRankingResult.top_k uses.
        self.order = np.lexsort((self.ids, -scores))
        self.generation = generation
        self.segment_columns = segment_columns
        # Lazily filled per-segment sort orders and per-document JSON
        # fragments (keyed by score column).  Shards are shared across
        # double-buffered store generations; filling a slot is an
        # idempotent cache write (two racing readers compute identical
        # values), so no lock is needed.
        self._segment_orders: List[Optional[np.ndarray]] = (
            [] if segment_columns is None
            else [None] * segment_columns.shape[1])
        self._fragments: Dict[Optional[int], List[Optional[str]]] = {}

    def __len__(self) -> int:
        return len(self.doc_ids)

    def order_for(self, segment_index: Optional[int] = None) -> np.ndarray:
        """Rows of the shard in descending score order."""
        if segment_index is None:
            return self.order
        order = self._segment_orders[segment_index]
        if order is None:
            order = np.lexsort((self.ids,
                                -self.segment_columns[:, segment_index]))
            self._segment_orders[segment_index] = order
        return order

    def id_score_arrays(self, segment_index: Optional[int] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """The shard's document ids and their scores, position-aligned."""
        scores = (self.scores if segment_index is None
                  else self.segment_columns[:, segment_index])
        return self.ids, scores

    def document(self, row: int,
                 segment_index: Optional[int] = None) -> ScoredDocument:
        """The served record of the document stored at *row*."""
        score = (self.scores[row] if segment_index is None
                 else self.segment_columns[row, segment_index])
        return ScoredDocument(doc_id=self.doc_ids[row], url=self.urls[row],
                              site=self.site, score=float(score))

    def fragment(self, row: int, segment_index: Optional[int] = None) -> str:
        """``json.dumps`` of :meth:`document`'s payload, encoded once."""
        fragments = self._fragments.get(segment_index)
        if fragments is None:
            fragments = self._fragments[segment_index] = \
                [None] * len(self.doc_ids)
        fragment = fragments[row]
        if fragment is None:
            fragment = fragments[row] = json.dumps(
                _document_payload(self.document(row, segment_index)))
        return fragment


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
        #: What :meth:`_global_winners` keeps per store generation — here
        #: score column -> global descending order of the current shards.
        #: Filled lazily by the first global top-k, rebound (never
        #: mutated in place) by whatever changes the shards.  Two racing
        #: readers may both fill a slot — they compute identical orders.
        self._global_cache: Dict[Optional[int], Any] = {}

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
        doc_ids = np.asarray(ranking.doc_ids, dtype=np.int64)
        site_of_document = docgraph.site_indices()
        unknown = (doc_ids < 0) | (doc_ids >= site_of_document.size)
        if unknown.any():
            raise GraphStructureError(
                f"unknown document id {int(doc_ids[unknown][0])}")
        # One stable argsort groups the ranking's positions by site and
        # keeps ranking order inside each group; shards are installed in
        # the order their sites first appear in the ranking.
        site_rows = site_of_document[doc_ids]
        grouped = np.argsort(site_rows, kind="stable")
        present, first_seen, counts = np.unique(
            site_rows, return_index=True, return_counts=True)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        sites = docgraph.sites()
        urls = np.asarray(ranking.urls, dtype=object)
        for group in np.argsort(first_seen).tolist():
            positions = grouped[bounds[group]:bounds[group + 1]]
            store.update_site(
                sites[present[group]], doc_ids[positions].tolist(),
                urls[positions].tolist(), ranking.scores[positions],
                segment_columns=(ranking.segment_columns[positions]
                                 if ranking.segments else None))
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
        self._global_cache = {}
        shard = _Shard(site, list(doc_ids), list(urls), scores,
                       self._generation, segment_columns)
        self._shards[site] = shard
        self._entries.update(zip(shard.doc_ids,
                                 zip(repeat(site), shard.urls,
                                     scores.tolist())))
        return shard.generation

    def drop_site(self, site: str) -> None:
        """Remove one site's shard entirely."""
        self._forget_entries(self._shard(site))
        del self._shards[site]
        self._generation += 1
        self._global_cache = {}

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
        # copy() shares the dict: an order either store fills later would
        # otherwise be served by the other one after their shards diverge.
        clone._global_cache = {}
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

    def find(self, doc_id: int) -> Optional[ScoredDocument]:
        """:meth:`document`, or ``None`` when the id is not held."""
        entry = self._lookup(doc_id)
        if entry is None:
            return None
        site, url, score = entry
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
        shard = self._shards[self._entry(doc_id)[0]]
        row = int(np.flatnonzero(shard.ids == doc_id)[0])
        return float(shard.segment_columns[row, column])

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
        column, winners = self._top_rows(k, site, segment)
        return [shard.document(row, column) for shard, row in winners]

    def global_top(self, k: int, *,
                   segment: Optional[str] = None) -> List[ScoredDocument]:
        """The best ``k`` documents over all shards, best first."""
        column, winners = self._top_rows(k, None, segment)
        return [shard.document(row, column) for shard, row in winners]

    def top_fragments(self, k: int, *, site: Optional[str] = None,
                      segment: Optional[str] = None) -> List[str]:
        """The JSON objects of the best ``k`` documents, best first.

        Entry ``i`` equals ``json.dumps`` of the payload of document ``i``
        of :meth:`global_top` (or, with *site*, :meth:`shard_top`);
        resident shards encode each document once and keep the text.
        """
        column, winners = self._top_rows(k, site, segment)
        return [shard.fragment(row, column) for shard, row in winners]

    def iter_shard_descending(self, site: str, *,
                              segment: Optional[str] = None
                              ) -> Iterator[ScoredDocument]:
        """Lazily iterate one shard's documents in descending score order."""
        column = (self.segment_position(segment)
                  if segment is not None else None)
        shard = self._shard(site)
        return (shard.document(int(row), column)
                for row in shard.order_for(column))

    # ------------------------------------------------------------------ #
    def _top_rows(self, k: int, site: Optional[str],
                  segment: Optional[str]
                  ) -> Tuple[Optional[int], Iterable[Tuple[Any, int]]]:
        """Validate a top-k request; its score column and the winning
        ``(shard, row)`` pairs, best first."""
        if k < 0:
            raise ValidationError("k must be non-negative")
        column = (self.segment_position(segment)
                  if segment is not None else None)
        if site is not None:
            shard = self._shard(site)
            return column, zip(repeat(shard),
                               shard.order_for(column)[:k].tolist())
        shards, shard_rows, rows = self._global_winners(k, column)
        return column, zip(map(shards.__getitem__, shard_rows), rows)

    def _global_winners(self, k: int, column: Optional[int]
                        ) -> Tuple[list, List[int], List[int]]:
        """``(shards, shard_rows, rows)`` of the global top ``k``.

        Winner ``i`` is document ``rows[i]`` of ``shards[shard_rows[i]]``.
        Served from the generation's cached global order, built on first
        use; a subclass whose shards are not resident overrides this.
        """
        # Filled through the dict read here: should the shards change
        # meanwhile, the order lands in the dict that change discarded.
        orders = self._global_cache
        order = orders.get(column)
        if order is None:
            started = perf_counter()
            shards = list(self._shards.values())
            sizes = np.fromiter(map(len, shards), dtype=np.int64,
                                count=len(shards))
            starts = np.cumsum(sizes) - sizes
            arrays = [shard.id_score_arrays(column) for shard in shards]
            # The leading empties keep a store without shards sortable.
            ids = np.concatenate([np.empty(0, dtype=np.int64)]
                                 + [pair[0] for pair in arrays])
            scores = np.concatenate([np.empty(0)]
                                    + [pair[1] for pair in arrays])
            best_first = np.lexsort((ids, -scores))
            shard_rows = np.repeat(np.arange(len(shards)), sizes)
            rows = np.arange(ids.size) - np.repeat(starts, sizes)
            order = _GlobalOrder(shards, shard_rows[best_first],
                                 rows[best_first])
            orders[column] = order
            obs.inc("serving_global_order_builds_total")
            obs.observe("serving_global_order_build_seconds",
                        perf_counter() - started)
        return (order.shards, order.shard_rows[:k].tolist(),
                order.rows[:k].tolist())

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
