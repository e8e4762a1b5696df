"""Top-k answering over a :class:`~repro.serving.store.ShardedScoreStore`.

A top-k query never sorts per request.  Every shard keeps its documents in
score order, so a per-site answer is the first ``k`` rows of one array;
the store keeps one global descending order per generation (see
:meth:`ShardedScoreStore.global_top`), so a global answer is an O(k) slice
too and :class:`~repro.serving.store.ScoredDocument` records are built for
the ``k`` winners only.  This is the serving-time payoff of the paper's
partition: the per-site order is maintained shard-locally, an update
re-sorts one shard, and the one global step — a single ``lexsort`` of the
concatenated shard scores — is paid once per generation, not per query.

:func:`naive_top_k` is the per-query full-sort baseline the throughput
benchmark compares against (and the tests use as an oracle).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..exceptions import ValidationError
from .store import ScoredDocument, ShardedScoreStore


def _merge_key(document: ScoredDocument) -> Tuple[float, int]:
    # Descending score, ties broken by ascending doc id — matching
    # WebRankingResult.top_k's deterministic order.
    return (-document.score, document.doc_id)


class TopKEngine:
    """Answers global and per-site top-k queries over a sharded store."""

    def __init__(self, store: ShardedScoreStore) -> None:
        self._store = store

    @property
    def store(self) -> ShardedScoreStore:
        """The underlying score store."""
        return self._store

    def top_k(self, k: int, *, site: Optional[str] = None,
              segment: Optional[str] = None) -> List[ScoredDocument]:
        """The best ``k`` documents, best first.

        Parameters
        ----------
        k:
            Number of results (fewer are returned when the corpus — or the
            selected site — is smaller).
        site:
            Restrict the query to one site's shard: a prefix of that
            shard's own order.
        segment:
            Rank by a personalisation segment's score column instead of
            the base ranking; only the order read (and the reported
            scores) change.
        """
        if site is not None:
            return self._store.shard_top(site, k, segment=segment)
        return self._store.global_top(k, segment=segment)

    def top_k_ids(self, k: int, *, site: Optional[str] = None,
                  segment: Optional[str] = None) -> List[int]:
        """Document ids of :meth:`top_k`."""
        return [document.doc_id
                for document in self.top_k(k, site=site, segment=segment)]

    def top_k_urls(self, k: int, *, site: Optional[str] = None,
                   segment: Optional[str] = None) -> List[str]:
        """URLs of :meth:`top_k`."""
        return [document.url
                for document in self.top_k(k, site=site, segment=segment)]


def naive_top_k(store: ShardedScoreStore, k: int, *,
                segment: Optional[str] = None) -> List[ScoredDocument]:
    """Full-sort baseline: gather every document, sort, slice.

    O(N·log N) per query regardless of ``k`` — what serving from a flat
    score vector costs, and what the throughput benchmark shows the cached
    order beating.
    """
    if k < 0:
        raise ValidationError("k must be non-negative")
    everything = [document for site in store.sites()
                  for document in store.iter_shard_descending(site,
                                                              segment=segment)]
    everything.sort(key=_merge_key)
    return everything[:k]
