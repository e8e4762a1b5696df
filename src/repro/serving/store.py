"""Sharded storage of a computed global DocRank for online serving.

The Partition Theorem decomposes the global DocRank into a tiny SiteRank
plus independent per-site local vectors; :class:`ShardedScoreStore` mirrors
that decomposition at serving time.  Laid out site-major, a ranking is one
set of arrays — document ids, scores, each site's descending sort order,
URLs and the inverse permutation ``doc_position`` (document id →
position) — the very layout a ranked generation writes to disk
(:class:`~repro.io.artifacts.GenerationWriter`).  A store is such a
*base*, held in RAM (:meth:`ShardedScoreStore.from_ranking`) or
memory-mapped from a generation's files
(:class:`~repro.serving.mmapstore.MmapScoreStore`), plus the replacement
shards later updates install.  Every shard is one class over arrays: a
base shard is a window into the base, a replacement shard holds its own.
So

* a document resolves through its site: one array column (document id →
  site row, ``-1`` where no shard holds it) names the site, and a row
  lookup in that site's current shard finds the document.  Until an
  update adds or moves documents the column is the base's, read through
  ``doc_position`` and the shard bounds (O(log sites), nothing built);
  the first update builds it once per base, and one that moves
  documents installs a copy.  No Python object exists per document, and
  an update's ownership check is one vectorised pass over its ids;
* each shard keeps its documents in score order, so a per-site top-k is a
  prefix of one array;
* a global top-k over a resident base is a prefix too: the store sorts all
  shards' scores once per generation (one ``lexsort``, built lazily by the
  first global top-k after a change) and every later query slices that
  order in O(k).  Over a mapped base it merges the first ``k`` entries of
  every shard's order instead, which faults in only the pages the answer
  needs;
* an incremental update that touched one site replaces exactly one shard
  (``update_site``) and leaves every other shard — its sort order, its
  cached per-document JSON fragments and every cached result that does not
  involve the site — untouched; a replacement shard given a
  :class:`UrlTable` reads its URLs from it by id.  What an update costs a
  reader is one rebuild of the global order (~1 ms per 10k documents) and
  re-encoding the changed site's documents as they are next served.

The store is deliberately decoupled from how the ranking was computed: it
can be filled from a centralized :class:`~repro.web.pipeline.WebRankingResult`,
from a published generation, or incrementally from an
:class:`~repro.web.incremental.IncrementalLayeredRanker` (the
:class:`~repro.serving.service.RankingService` does the latter).
"""
from __future__ import annotations

import json
from bisect import bisect_right
from copy import copy
from dataclasses import dataclass
from functools import cached_property
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
    Union,
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


class UrlTable:
    """The URLs of *ids*, read by id from *table* (a registry's
    append-only ``urls``): row ``r`` is ``table[ids[r]]``.  Given as
    :meth:`ShardedScoreStore.update_site`'s *urls* for the same ids, a
    replacement shard serves its URLs without a list of them."""

    __slots__ = ("table", "ids")

    def __init__(self, table: Sequence[str], ids: Sequence[int]) -> None:
        self.table = table
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, row: int) -> str:
        return self.table[self.ids[row]]


class _GlobalOrder(NamedTuple):
    """All documents of one store generation in descending score order.

    Position ``i`` of the order is document ``rows[i]`` of shard
    ``shards[shard_rows[i]]``.
    """

    shards: list
    shard_rows: np.ndarray
    rows: np.ndarray


class _Shard:
    """One site's documents, position-aligned, plus their score order.

    ``ids``, ``scores`` and ``order`` are numpy arrays (or memmap slices);
    ``urls`` is any sequence of ``str``.  A base shard is a window of its
    store's site-major arrays starting at position ``offset``; a
    replacement shard installed by an update has ``offset`` ``None``.
    ``site_row`` is the site's entry in its store's document → site
    column.
    With personalisation, the shard additionally holds an
    ``(n_docs, K)`` block of per-segment scores; the per-segment sort
    orders are computed lazily on the first query of each segment (a
    shard whose segments are never queried pays nothing beyond the matrix
    itself).  A window of a memory-mapped base caches no JSON fragments
    (its ``_fragments`` slot stays unset): the mapped pages are the only
    copy of its documents the store keeps.
    """

    __slots__ = ("site", "site_row", "ids", "urls", "scores", "order",
                 "offset", "generation", "segment_columns",
                 "_segment_orders", "_fragments", "_sorter")

    def __init__(self, site: str, site_row: int, ids: np.ndarray,
                 urls: Sequence[str], scores: np.ndarray, generation: int,
                 segment_columns: Optional[np.ndarray] = None, *,
                 order: Optional[np.ndarray] = None,
                 offset: Optional[int] = None,
                 cache_fragments: bool = True) -> None:
        self.site = site
        self.site_row = site_row
        self.ids = ids
        self.urls = urls
        self.scores = scores
        # Descending by score, ties broken by ascending doc id — the same
        # deterministic order WebRankingResult.top_k uses.
        self.order = np.lexsort((ids, -scores)) if order is None else order
        self.offset = offset
        self.generation = generation
        self.segment_columns = segment_columns
        # Lazily filled per-segment sort orders and per-document JSON
        # fragments (score column, or "location", -> row -> text).
        # Shards are shared across double-buffered store generations;
        # filling a slot is an idempotent cache write (two racing readers
        # compute identical values), so no lock is needed.
        self._segment_orders: List[Optional[np.ndarray]] = (
            [] if segment_columns is None
            else [None] * segment_columns.shape[1])
        if cache_fragments:
            self._fragments: Dict[Union[int, str, None], Dict[int, str]] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def row_of(self, doc_id: int) -> int:
        """The row of a document the shard holds, by binary search over
        its ids (``_sorter`` is ``None`` when they ascend, else their
        argsort, built on the first lookup); for a document it does not
        hold, some row whose id differs, or ``len(self)``."""
        try:
            sorter = self._sorter
        except AttributeError:
            sorter = self._sorter = np.argsort(self.ids)
        row = int(np.searchsorted(self.ids, doc_id, sorter=sorter))
        return row if sorter is None or row == sorter.size \
            else sorter.item(row)

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
        score = (self.scores.item(row) if segment_index is None
                 else self.segment_columns.item(row, segment_index))
        return ScoredDocument(doc_id=self.ids.item(row), url=self.urls[row],
                              site=self.site, score=score)

    def fragment(self, row: int, segment_index: Optional[int] = None) -> str:
        """``json.dumps`` of :meth:`document`'s payload, encoded once (on
        every call for a window of a mapped base)."""
        try:
            return self._fragments[segment_index][row]
        except (AttributeError, KeyError):
            fragment = json.dumps(
                _document_payload(self.document(row, segment_index)))
        if hasattr(self, "_fragments"):  # a mapped window keeps nothing
            self._fragments.setdefault(segment_index, {})[row] = fragment
        return fragment

    def location(self, row: int) -> str:
        """``"url": …, "site": …`` of the document stored at *row* — the
        members a ``/query`` hit carries — encoded once like
        :meth:`fragment` (kept under the column key ``"location"``)."""
        try:
            return self._fragments["location"][row]
        except (AttributeError, KeyError):
            location = (f'"url": {json.dumps(self.urls[row])}, '
                        f'"site": {json.dumps(self.site)}')
        if hasattr(self, "_fragments"):
            self._fragments.setdefault("location", {})[row] = location
        return location


@dataclass
class _Base:
    """The site-major arrays a store was built from.

    Shard ``i`` is positions ``bounds[i]:bounds[i + 1]``, and
    ``doc_position[d]`` is document ``d``'s position (``-1`` for an id the
    base does not hold).  ``mapped`` says whether the arrays are
    memory-mapped files, which decides how a global top-k is answered.
    Shared by every clone of the store, as is its :attr:`site_rows`.
    """

    ids: np.ndarray
    scores: np.ndarray
    order: np.ndarray
    doc_position: np.ndarray
    bounds: List[int]
    mapped: bool

    def site_row(self, doc_id: int) -> int:
        """The window holding the position ``doc_position`` gives a
        document (``-1`` for none): the site column of a store no update
        has written, read without building it.  Whether the id at that
        position is the document is the caller's check."""
        if doc_id >= self.doc_position.size:
            return -1
        position = self.doc_position.item(doc_id)
        return (bisect_right(self.bounds, position) - 1
                if 0 <= position < self.ids.size else -1)

    @cached_property
    def site_rows(self) -> np.ndarray:
        """:meth:`site_row` of every document id, scattered from ``ids``
        when the first update needs the whole column."""
        rows = np.full(self.doc_position.size, -1, dtype=np.int32)
        windows = np.repeat(np.arange(len(self.bounds) - 1, dtype=np.int32),
                            np.diff(self.bounds))
        held = (self.ids >= 0) & (self.ids < rows.size)
        rows[self.ids[held]] = windows[held]
        return rows


class ShardedScoreStore:
    """Document scores partitioned by web site with cheap point lookup.

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
        #: The site-major arrays the base shards are windows of (``None``
        #: for a store filled by updates alone); shared by every clone.
        self._base: Optional[_Base] = None
        #: Document id -> site row (an index into ``_site_names``) of the
        #: shard holding it, ``-1`` for none; ``None`` while it is the
        #: base's, which lookups read through ``doc_position`` (a store
        #: that is never updated builds no column).  Never written in
        #: place: an update that moves or adds documents installs a copy,
        #: so clones share it safely.
        self._site_rows: Optional[np.ndarray] = np.empty(0, dtype=np.int32)
        #: Site of each site row, appended to (as a copy) per new site.
        self._site_names: List[str] = []
        self._n_documents = 0
        self._generation = 0
        #: What a global top-k keeps per store generation and score
        #: column (:meth:`_cached_order` / :meth:`_merged_heads`).  Filled
        #: lazily by the first global top-k, rebound (never mutated in
        #: place) by whatever changes the shards.  Two racing readers may
        #: both fill a slot — they compute identical values.
        self._global_cache: Dict[Optional[int], Any] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ranking(cls, ranking: WebRankingResult,
                     docgraph: DocGraph) -> "ShardedScoreStore":
        """Partition a computed global ranking by the DocGraph's sites.

        One vectorised pass lays the ranking out site-major — sites in the
        order they first appear in the ranking, ranking order kept inside
        each site — and installs it as the store's base.  A ranking
        carrying personalisation segments yields a multi-column store:
        each shard gets the site's rows of
        :attr:`~repro.web.pipeline.WebRankingResult.segment_columns`.
        """
        store = cls(ranking.segments)
        doc_ids = np.asarray(ranking.doc_ids, dtype=np.int64)
        site_of_document = docgraph.site_indices()
        unknown = (doc_ids < 0) | (doc_ids >= site_of_document.size)
        if unknown.any():
            raise GraphStructureError(
                f"unknown document id {int(doc_ids[unknown][0])}")
        present, first_seen, shard_of, counts = np.unique(
            site_of_document[doc_ids], return_index=True,
            return_inverse=True, return_counts=True)
        by_first_seen = np.argsort(first_seen)
        shard_rank = np.empty_like(by_first_seen)
        shard_rank[by_first_seen] = np.arange(by_first_seen.size)
        shard_of = shard_rank[shard_of]
        grouped = np.argsort(shard_of, kind="stable")
        shard_of = shard_of[grouped]
        counts = counts[by_first_seen]
        bounds = np.concatenate(([0], np.cumsum(counts)))
        ids = doc_ids[grouped]
        scores = np.asarray(ranking.scores, dtype=float)[grouped]
        columns = (np.asarray(ranking.segment_columns, dtype=float)[grouped]
                   if ranking.segments else None)
        all_sites = docgraph.sites()
        sites = [all_sites[index] for index in present[by_first_seen]]
        doc_position = np.full(site_of_document.size, -1, dtype=np.int64)
        doc_position[ids] = np.arange(ids.size)
        for bad, problem in (
                (doc_position[ids] != np.arange(ids.size),
                 "duplicate document ids"),
                (~np.isfinite(scores), "non-finite scores"),
                (None if columns is None
                 else ~np.isfinite(columns).all(axis=1),
                 "non-finite segment scores")):
            if bad is not None and bad.any():
                raise ValidationError(
                    f"shard {sites[shard_of[np.argmax(bad)]]!r} has {problem}")
        # One lexsort orders every shard: by shard, then descending score,
        # then ascending doc id — per shard the order _Shard would sort.
        order = np.lexsort((ids, -scores, shard_of)) \
            - np.repeat(bounds[:-1], counts)
        store._install_base(sites, bounds.tolist(), ids, scores, order,
                            np.asarray(ranking.urls, dtype=object)[grouped],
                            doc_position, columns)
        return store

    def _install_base(self, sites: Sequence[str], bounds: List[int],
                      ids: np.ndarray, scores: np.ndarray, order: np.ndarray,
                      urls: Sequence[str], doc_position: np.ndarray,
                      segment_columns: Optional[np.ndarray] = None) -> None:
        """Serve site-major arrays: site ``i`` holds positions
        ``bounds[i]:bounds[i + 1]`` and ``order`` is every site's
        shard-local descending order.  Each site's window becomes a shard
        with the next generation stamp."""
        mapped = isinstance(scores, np.memmap)
        # Plain ndarray views of the same buffers: every memmap slice runs
        # numpy's Python-level subclass hooks, ~10x the cost of a view's.
        ids, scores, order, doc_position = (
            np.asarray(array) for array in (ids, scores, order, doc_position))
        for site_row, (site, start, stop) in enumerate(
                zip(sites, bounds, bounds[1:])):
            self._generation += 1
            self._shards[site] = _Shard(
                site, site_row, ids[start:stop], urls[start:stop],
                scores[start:stop], self._generation,
                None if segment_columns is None
                else segment_columns[start:stop],
                order=order[start:stop], offset=start,
                cache_fragments=not mapped)
        self._base = _Base(ids, scores, order, doc_position, bounds, mapped)
        self._site_rows, self._site_names = None, list(sites)
        self._n_documents += bounds[-1]

    def update_site(self, site: str, doc_ids: Sequence[int],
                    urls: Sequence[str], scores, *,
                    segment_columns=None) -> int:
        """Replace (or create) one site's shard; returns its new generation.

        The replaced shard's documents are removed first, so a shard may
        shrink or grow — e.g. after documents were added to the site through
        the incremental ranker.  *urls* is any sequence aligned with
        *doc_ids* (a :class:`UrlTable` of them reads them by id).  A store with
        declared segments requires a ``(len(doc_ids), n_segments)``
        *segment_columns* block (rows aligned with *doc_ids*); a base-only
        store rejects one.
        """
        scores = np.asarray(scores, dtype=float).ravel()
        ids = np.array(doc_ids, dtype=np.int64).ravel()
        if not (ids.size == len(urls) == scores.size):
            raise ValidationError("doc_ids, urls and scores must align")
        if scores.size and not np.all(np.isfinite(scores)):
            raise ValidationError(f"shard {site!r} has non-finite scores")
        ascending = bool(np.all(ids[1:] > ids[:-1]))
        if not ascending and np.unique(ids).size != ids.size:
            raise ValidationError(f"shard {site!r} has duplicate document ids")
        if ids.size and ids.min() < 0:
            raise ValidationError(f"shard {site!r} has negative document ids")
        if self._segments:
            if segment_columns is None:
                raise ValidationError(
                    f"store serves segments {list(self._segments)!r}; "
                    f"shard {site!r} update must supply segment_columns")
            segment_columns = np.asarray(segment_columns, dtype=float)
            if segment_columns.shape != (ids.size, len(self._segments)):
                raise ValidationError(
                    f"shard {site!r} segment_columns must be "
                    f"({ids.size}, {len(self._segments)}), got "
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
        previous = self._shards.get(site)
        site_row = (len(self._site_names) if previous is None
                    else previous.site_row)
        column = self._column()
        owners = np.full(ids.size, -1, dtype=np.int32)
        known = ids < column.size
        owners[known] = column[ids[known]]
        stolen = (owners >= 0) & (owners != site_row)
        if stolen.any():
            first = int(np.argmax(stolen))
            raise GraphStructureError(
                f"document {int(ids[first])} already belongs to shard "
                f"{self._site_names[owners[first]]!r}")
        kept = int(np.count_nonzero(owners == site_row))
        if kept < ids.size or (previous is not None and kept < len(previous)):
            # Documents join or leave the site: the column moves, as a copy.
            column = np.concatenate((column, np.full(
                max(int(ids.max(initial=-1)) + 1 - column.size, 0), -1,
                dtype=np.int32)))
            if previous is not None:
                column[previous.ids] = -1
            column[ids] = site_row
            self._site_rows = column
        if previous is None:
            self._site_names = self._site_names + [site]
        else:
            self._n_documents -= len(previous)
        self._generation += 1
        self._global_cache = {}
        shard = _Shard(site, site_row, ids, urls, scores, self._generation,
                       segment_columns)
        if ascending:
            shard._sorter = None
        self._shards[site] = shard
        self._n_documents += ids.size
        return shard.generation

    def drop_site(self, site: str) -> None:
        """Remove one site's shard entirely."""
        shard = self._shard(site)
        column = self._column().copy()
        column[shard.ids] = -1
        self._site_rows = column
        self._n_documents -= len(shard)
        del self._shards[site]
        self._generation += 1
        self._global_cache = {}

    def _column(self) -> np.ndarray:
        """The document id -> site row column (the base's, until an update
        installs the store's own)."""
        rows = self._site_rows
        return self._base.site_rows if rows is None else rows

    def rebuilt(self, replacements: Dict[str, Tuple],
                *, drop: Iterable[str] = ()) -> "ShardedScoreStore":
        """A *new* store with the given shards replaced — the back buffer.

        Each replacement is ``(doc_ids, urls, scores)`` or — for a store
        with personalisation segments — ``(doc_ids, urls, scores,
        segment_columns)``, *urls* as :meth:`update_site` takes it.

        This is the double-buffering primitive of the serving layer's
        incremental updates: the (potentially long) rebuild of invalidated
        shards happens on this copy while readers keep querying the old
        store, and the :class:`~repro.serving.service.RankingService`
        then swaps its store pointer under the service lock — the only
        moment queries wait.

        Only the shard dict is copied.  Untouched shards are *shared* with
        this store (a shard is never mutated after construction, so
        sharing is safe), as are the base, the document → site column
        (an update installs a copy rather than writing it) and everything
        else a subclass hangs on the instance; the generation counter
        continues from this store's, preserving the deterministic
        per-shard generation sequence ``update_site`` in place would have
        produced: drops first, then replacements in the order
        *replacements* iterates.
        """
        clone = copy(self)
        clone._shards = dict(self._shards)
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
        its own swappable store pointer at the cost of a shard dict, not
        of the score data.
        """
        return self.rebuilt({})

    # ------------------------------------------------------------------ #
    # Point lookups
    # ------------------------------------------------------------------ #
    def score_of(self, doc_id: int) -> float:
        """Global score of a document id."""
        shard, row = self._located(doc_id)
        return shard.scores.item(row)

    def site_of(self, doc_id: int) -> str:
        """Owning site of a document id."""
        return self._located(doc_id)[0].site

    def document(self, doc_id: int) -> ScoredDocument:
        """The full :class:`ScoredDocument` record of an id."""
        shard, row = self._located(doc_id)
        return shard.document(row)

    def find(self, doc_id: int) -> Optional[ScoredDocument]:
        """:meth:`document`, or ``None`` when the id is not held."""
        located = self._locate(doc_id)
        return None if located is None else located[0].document(located[1])

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
        return self._locate(doc_id) is not None

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
        shard, row = self._located(doc_id)
        return float(shard.segment_columns[row, column])

    @property
    def n_documents(self) -> int:
        """Total documents across all shards."""
        return self._n_documents

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
        of :meth:`global_top` (or, with *site*, :meth:`shard_top`); each
        shard encodes a document once and keeps the text.
        """
        column, winners = self._top_rows(k, site, segment)
        return [shard.fragment(row, column) for shard, row in winners]

    def locations(self, doc_ids: Iterable[int]) -> List[Optional[str]]:
        """The ``"url": …, "site": …`` JSON members of each document id's
        record (``None`` for an id the store does not hold).

        What a ``/query`` hit adds to its numbers: entry ``i`` is the text
        between the braces of ``json.dumps({"url": …, "site": …})`` for
        :meth:`find` of id ``i``, encoded once per document like
        :meth:`top_fragments`.
        """
        located = map(self._locate, doc_ids)
        return [None if entry is None else entry[0].location(entry[1])
                for entry in located]

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
                  ) -> Tuple[Optional[int], Iterable[Tuple[_Shard, int]]]:
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
        if self._base is not None and self._base.mapped:
            shards, shard_rows, rows = self._merged_heads(k, column)
        else:
            shards, shard_rows, rows = self._cached_order(k, column)
        return column, zip(map(shards.__getitem__, shard_rows), rows)

    def _cached_order(self, k: int, column: Optional[int]
                      ) -> Tuple[list, List[int], List[int]]:
        """``(shards, shard_rows, rows)`` of the global top ``k``.

        Winner ``i`` is document ``rows[i]`` of ``shards[shard_rows[i]]``.
        Served from the generation's cached global order, built on first
        use — the strategy of a store whose scores are resident.
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

    def _merged_heads(self, k: int, column: Optional[int]
                      ) -> Tuple[list, List[int], List[int]]:
        """The global top ``k`` from the shard heads alone — the strategy
        of a store whose base is memory-mapped.

        No winner lies beyond row ``k`` of its own shard's order, so the
        candidates are the first ``min(k, n_s)`` entries of every shard:
        one fancy-indexed read of the base's order, id and score arrays
        for all base windows together, the heads of the replacement
        shards, one ``lexsort`` of the candidates that reach the k-th best
        score.  It never sorts — never faults in — a whole score column.
        What the current shards are is worked out once per store
        generation.
        """
        base = self._base
        layout = self._global_cache.get(column)
        if layout is None:
            shards = list(self._shards.values())
            windows = [row for row, shard in enumerate(shards)
                       if shard.offset is not None]
            layout = self._global_cache[column] = (
                shards, np.asarray(windows, dtype=np.int64),
                np.asarray([shards[row].offset for row in windows],
                           dtype=np.int64),
                np.asarray([len(shards[row]) for row in windows],
                           dtype=np.int64),
                [row for row, shard in enumerate(shards)
                 if shard.offset is None])
        shards, windows, offsets, counts, replacements = layout
        heads = np.minimum(counts, min(k, base.ids.size))
        # Candidate c of a window is entry c of its slice of the order.
        first = np.repeat(offsets, heads)
        entry = np.arange(int(heads.sum())) \
            - np.repeat(np.cumsum(heads) - heads, heads)
        head_rows = base.order[first + entry]
        shard_rows = [np.repeat(windows, heads)]
        rows = [head_rows]
        ids = [base.ids[first + head_rows]]
        scores = [base.scores[first + head_rows]]
        for shard_row in replacements:
            shard = shards[shard_row]
            head_rows = shard.order_for(column)[:k]
            shard_ids, shard_scores = shard.id_score_arrays(column)
            shard_rows.append(np.full(head_rows.size, shard_row))
            rows.append(head_rows)
            ids.append(shard_ids[head_rows])
            scores.append(shard_scores[head_rows])
        ids, scores = np.concatenate(ids), np.concatenate(scores)
        # Only candidates at or above the k-th best score can win; the
        # sort (with its doc-id tie-break) sees just those.
        pool = np.arange(scores.size)
        if scores.size > k:
            cut = scores.size - k
            pool = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        winners = pool[np.lexsort((ids[pool], -scores[pool]))[:k]]
        return (shards, np.concatenate(shard_rows)[winners].tolist(),
                np.concatenate(rows)[winners].tolist())

    # ------------------------------------------------------------------ #
    def _shard(self, site: str) -> _Shard:
        try:
            return self._shards[site]
        except KeyError:
            raise GraphStructureError(f"unknown shard {site!r}") from None

    def _locate(self, doc_id: int) -> Optional[Tuple[_Shard, int]]:
        """``(shard, row)`` of a held document, ``None`` otherwise.

        The one lookup path: the document's site row from the store's
        column (or the base's, read through ``doc_position``), then its
        row in that site's current shard — a base window's through
        ``doc_position``, a replacement's by search.
        """
        if not isinstance(doc_id, (int, np.integer)) or doc_id < 0:
            return None
        rows = self._site_rows
        site_row = (self._base.site_row(doc_id) if rows is None
                    else rows.item(doc_id) if doc_id < rows.size else -1)
        if site_row < 0:
            return None
        shard = self._shards[self._site_names[site_row]]
        row = (shard.row_of(doc_id) if shard.offset is None
               else self._base.doc_position.item(doc_id) - shard.offset)
        # A shard holds what its ids say, whatever the columns claim.
        if not 0 <= row < len(shard) or shard.ids.item(row) != doc_id:
            return None
        return shard, row

    def _located(self, doc_id: int) -> Tuple[_Shard, int]:
        located = self._locate(doc_id)
        if located is None:
            raise ValidationError(f"unknown document id {doc_id}")
        return located

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedScoreStore(n_shards={self.n_shards}, "
                f"n_documents={self.n_documents}, "
                f"generation={self.generation})")
