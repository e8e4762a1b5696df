"""Serving scores straight off a ranked generation's files.

:class:`MmapScoreStore` is a :class:`~repro.serving.store.ShardedScoreStore`
whose shards read from the memory-mapped arrays of a
:class:`repro.io.artifacts.RankedGeneration` instead of resident lists.
Everything above it — :class:`~repro.serving.topk.TopKEngine`,
:class:`~repro.serving.service.RankingService`,
:class:`~repro.serving.replicas.ReplicaSet` — works unchanged, because the
store speaks the same shard protocol; what changes is the cost profile:

* booting the store reads only the generation manifest — no score column
  is loaded;
* a global top-k gathers, in one vectorised read, the first
  ``min(k, n_s)`` entries of every shard's precomputed ``order.bin`` and
  their ids and scores, sorts those candidates and decodes the k winning
  URLs — it never builds the resident store's full global order, so it
  faults in only the pages the answer needs and serving RSS stays near
  the interpreter baseline no matter how large the ranking is (benchmark
  E19 asserts this);
* :meth:`clone` / :meth:`rebuilt` — the replication and double-buffering
  primitives — *share* the underlying mapping: every replica serves the
  same physical page-cache pages, so N replicas cost N dictionaries, not
  N score columns.

Incremental updates still work: :meth:`update_site` installs an ordinary
in-RAM shard that masks the mapped one (the generation files are never
written), which is exactly the rolling-rebuild flow
:meth:`ReplicaSet.apply_update` drives.  Point lookups for unmodified
documents resolve through the generation's ``doc_position.bin`` inverse
permutation — O(1), one page fault.

Personalisation segments require score matrices that only the in-memory
pipeline produces, so this store is base-ranking only.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple, Union

import numpy as np

from ..exceptions import ValidationError
from ..io.artifacts import ArtifactStore, RankedGeneration
from .store import ScoredDocument, ShardedScoreStore, _document_payload


class _GenerationMap:
    """The shared memmaps of one generation plus its shard boundary table.

    One instance is shared by a store and every clone/replica derived from
    it — the object identity *is* the "replicas share the mapping"
    guarantee.
    """

    __slots__ = ("generation", "scores", "doc_ids", "doc_position", "order",
                 "url_offsets", "urls", "shard_sites", "shard_offsets")

    def __init__(self, generation: RankedGeneration) -> None:
        self.generation = generation
        self.scores = generation.array("scores")
        self.doc_ids = generation.array("doc_ids")
        self.doc_position = generation.array("doc_position")
        self.order = generation.array("order")
        self.url_offsets = generation.array("url_offsets")
        self.urls = generation.array("urls")
        shards = generation.shards()
        self.shard_sites = [str(shard["site"]) for shard in shards]
        self.shard_offsets = np.asarray(
            [int(shard["offset"]) for shard in shards]
            + [generation.n_documents], dtype=np.int64)

    @property
    def n_documents(self) -> int:
        return self.generation.n_documents

    def url_at(self, position: int) -> str:
        start = int(self.url_offsets[position])
        end = int(self.url_offsets[position + 1])
        return bytes(self.urls[start:end]).decode("utf-8")

    def site_of_position(self, position: int) -> str:
        index = int(np.searchsorted(self.shard_offsets, position,
                                    side="right")) - 1
        return self.shard_sites[index]


class _MmapShard:
    """One site's shard served through the shared generation mapping.

    Duck-typed against :class:`repro.serving.store._Shard`: ``len``,
    ``order_for``, ``document``, ``fragment`` and ``id_score_arrays`` are
    what the store consumes.  The sort order was precomputed at
    generation write time (``order.bin``), so construction is O(1) and
    ordering queries fault in only the pages they touch.
    """

    __slots__ = ("site", "generation", "_map", "_offset", "_count")

    #: Base-ranking only; the store never passes a segment index.
    segment_columns = None

    def __init__(self, site: str, mapping: _GenerationMap, offset: int,
                 count: int, generation: int) -> None:
        self.site = site
        self.generation = generation
        self._map = mapping
        self._offset = int(offset)
        self._count = int(count)

    def __len__(self) -> int:
        return self._count

    @property
    def doc_ids(self) -> List[int]:
        """The shard's document ids (materialised — used by shard swaps)."""
        ids = self._map.doc_ids[self._offset:self._offset + self._count]
        return [int(doc_id) for doc_id in ids]

    def id_score_arrays(self, segment_index: Optional[int] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """The shard's document ids and their scores, position-aligned.

        Faults the shard's whole score column in — only the combined
        text+link rules ask, which a store-served deployment without a
        text corpus never invokes.
        """
        window = slice(self._offset, self._offset + self._count)
        return self._map.doc_ids[window], self._map.scores[window]

    def order_for(self, segment_index: Optional[int] = None) -> np.ndarray:
        """Rows of the shard in descending score order (a mapped view)."""
        if segment_index is not None:
            raise ValidationError(
                "mmap-backed shards serve the base ranking only")
        return self._map.order[self._offset:self._offset + self._count]

    def document(self, row: int,
                 segment_index: Optional[int] = None) -> ScoredDocument:
        """The served record of the document stored at *row*."""
        if segment_index is not None:
            raise ValidationError(
                "mmap-backed shards serve the base ranking only")
        if not 0 <= row < self._count:
            raise IndexError(
                f"row {row} out of range for shard {self.site!r} of "
                f"{self._count} documents")
        index = self._offset + row
        return ScoredDocument(doc_id=int(self._map.doc_ids[index]),
                              url=self._map.url_at(index),
                              site=self.site,
                              score=float(self._map.scores[index]))

    def fragment(self, row: int, segment_index: Optional[int] = None) -> str:
        """``json.dumps`` of :meth:`document`'s payload (never cached:
        the mapped pages are the only copy this store keeps)."""
        return json.dumps(_document_payload(self.document(row,
                                                          segment_index)))


class MmapScoreStore(ShardedScoreStore):
    """A sharded score store serving a :class:`RankedGeneration` from disk.

    Construction wraps an already-validated generation (or a path to one);
    :meth:`from_store` opens an artifact store's *current* generation —
    the ``repro serve --store`` boot path.
    """

    def __init__(self, generation: Union[RankedGeneration, str, os.PathLike]
                 ) -> None:
        if not isinstance(generation, RankedGeneration):
            generation = RankedGeneration(generation)
        super().__init__(())
        self._map = _GenerationMap(generation)
        #: Documents of the shards still served from the mapping.
        self._mapped_documents = 0
        for shard in generation.shards():
            self._generation += 1
            site = str(shard["site"])
            self._shards[site] = _MmapShard(site, self._map,
                                            int(shard["offset"]),
                                            int(shard["count"]),
                                            self._generation)
            self._mapped_documents += int(shard["count"])

    @classmethod
    def from_store(cls, store: Union[ArtifactStore, str, os.PathLike]
                   ) -> "MmapScoreStore":
        """Open an artifact store's current generation for serving."""
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        return cls(store.generation())

    # ------------------------------------------------------------------ #
    @property
    def ranked_generation(self) -> RankedGeneration:
        """The generation backing the mapped shards (shared with clones)."""
        return self._map.generation

    # ------------------------------------------------------------------ #
    def _global_winners(self, k: int, column: Optional[int]
                        ) -> Tuple[list, List[int], List[int]]:
        """The global top ``k`` from the shard heads alone.

        No winner lies beyond row ``k`` of its own shard's order, so the
        candidates are the first ``min(k, n_s)`` entries of every shard:
        one fancy-indexed read of ``order.bin`` and of the id and score
        columns for all mapped shards together, the heads of the in-RAM
        shards that mask mapped ones, one ``lexsort`` of the candidates
        that reach the k-th best score.  What the current shards are is
        worked out once per store generation.
        """
        cache = self._global_cache
        layout = cache.get(None)
        if layout is None:
            shards = list(self._shards.values())
            mapped = [row for row, shard in enumerate(shards)
                      if isinstance(shard, _MmapShard)]
            layout = cache[None] = (
                shards, np.asarray(mapped, dtype=np.int64),
                np.asarray([shards[row]._offset for row in mapped],
                           dtype=np.int64),
                np.asarray([shards[row]._count for row in mapped],
                           dtype=np.int64),
                [row for row, shard in enumerate(shards)
                 if not isinstance(shard, _MmapShard)])
        shards, mapped, offsets, counts, resident = layout
        heads = np.minimum(counts, min(k, self._map.n_documents))
        # Candidate c of a mapped shard is entry c of its order.bin slice.
        base = np.repeat(offsets, heads)
        entry = np.arange(int(heads.sum())) \
            - np.repeat(np.cumsum(heads) - heads, heads)
        head_rows = np.asarray(self._map.order[base + entry], dtype=np.int64)
        shard_rows = [np.repeat(mapped, heads)]
        rows = [head_rows]
        ids = [np.asarray(self._map.doc_ids[base + head_rows])]
        scores = [np.asarray(self._map.scores[base + head_rows])]
        for shard_row in resident:
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
    # _entries only holds the in-RAM replacement shards that update_site
    # installs over mapped ones (the generation files are never written);
    # a miss resolves through the generation's inverse permutation, valid
    # only while the owning shard is still the mapped one.
    # ------------------------------------------------------------------ #
    def _missing_entry(self, doc_id: int
                       ) -> Optional[Tuple[str, str, float]]:
        if isinstance(doc_id, (int, np.integer)) \
                and 0 <= doc_id < self._map.n_documents:
            position = int(self._map.doc_position[doc_id])
            site = self._map.site_of_position(position)
            shard = self._shards.get(site)
            if isinstance(shard, _MmapShard) \
                    and int(self._map.doc_ids[position]) == doc_id:
                return (site, self._map.url_at(position),
                        float(self._map.scores[position]))
        return None

    def _forget_entries(self, shard) -> None:
        if isinstance(shard, _MmapShard):
            self._mapped_documents -= len(shard)
        else:
            super()._forget_entries(shard)

    @property
    def n_documents(self) -> int:
        """Total documents across all shards (O(1): every ``/top`` asks)."""
        return self._mapped_documents + len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MmapScoreStore(generation={self._map.generation.name!r}, "
                f"n_shards={self.n_shards}, "
                f"n_documents={self.n_documents})")


__all__ = ["MmapScoreStore"]
