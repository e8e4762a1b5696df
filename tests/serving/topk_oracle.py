"""Reference implementations the array-native link read path is tested against.

These are the definitions :mod:`repro.serving.topk` and
:mod:`repro.serving.store` implemented before they went array-native: a
global top-k as a lazy :func:`heapq.merge` over one score-ordered list of
:class:`ScoredDocument` records per shard, and ``from_ranking`` as a walk
over every ranked document.  Kept here, outside ``src/``, as the oracle of
``test_topk_properties.py``.  The per-shard lists are sorted from the
store's point lookups, never from its cached orders.
"""

from __future__ import annotations

import heapq
import sys
from itertools import islice
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.serving import ScoredDocument, ShardedScoreStore


def merge_key(document: ScoredDocument) -> Tuple[float, int]:
    """Descending score, ties broken by ascending doc id."""
    return (-document.score, document.doc_id)


def shards_descending(store: ShardedScoreStore,
                      segment: Optional[str] = None
                      ) -> Dict[str, List[ScoredDocument]]:
    """Every shard's documents, best first, from point lookups alone."""
    by_site: Dict[str, List[ScoredDocument]] = {
        site: [] for site in store.sites()}
    for doc_id, score in store.link_scores(segment).items():
        record = store.document(doc_id)
        by_site[record.site].append(
            ScoredDocument(doc_id, record.url, record.site, score))
    for documents in by_site.values():
        documents.sort(key=merge_key)
    return by_site


def oracle_top_k(store: ShardedScoreStore, k: int, *,
                 site: Optional[str] = None,
                 segment: Optional[str] = None) -> List[ScoredDocument]:
    """The old ``TopKEngine.top_k``: k-way heap merge over shard orders."""
    if k < 0:
        raise ValidationError("k must be non-negative")
    shards = shards_descending(store, segment)
    if site is not None:
        return shards[site][:k]
    merged = heapq.merge(*shards.values(), key=merge_key)
    # islice rejects a stop above sys.maxsize (the old path's 500).
    return list(islice(merged, min(k, sys.maxsize)))


def from_ranking_loop(ranking, docgraph) -> ShardedScoreStore:
    """The old ``ShardedScoreStore.from_ranking``: one ``Document`` per id."""
    store = ShardedScoreStore(ranking.segments)
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
