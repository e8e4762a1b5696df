"""Serving scores straight off a ranked generation's files.

A :class:`repro.io.artifacts.RankedGeneration` holds a ranking in exactly
the site-major layout a :class:`~repro.serving.store.ShardedScoreStore`
base is made of — ids, scores, per-shard sort orders (``order.bin``), the
inverse permutation (``doc_position.bin``) and URLs.
:class:`MmapScoreStore` is that store with its base taken from the
generation's memory-mapped files instead of RAM; everything above it —
:class:`~repro.serving.topk.TopKEngine`,
:class:`~repro.serving.service.RankingService`,
:class:`~repro.serving.replicas.ReplicaSet` — works unchanged.  What
changes is the cost profile:

* booting the store reads only the generation manifest — no score column
  is loaded, nothing is sorted;
* a global top-k merges the heads of the shards' precomputed orders and
  decodes only the winning URLs, so it faults in only the pages the answer
  needs and serving RSS stays near the interpreter baseline no matter how
  large the ranking is (benchmark E19 asserts this);
* :meth:`~ShardedScoreStore.clone` / :meth:`~ShardedScoreStore.rebuilt` —
  the replication and double-buffering primitives — *share* the base:
  every replica serves the same physical page-cache pages, so N replicas
  cost N shard dictionaries, not N score columns.

Incremental updates install ordinary in-RAM replacement shards over the
mapped ones (the generation files are never written), which is exactly
the rolling-rebuild flow :meth:`ReplicaSet.apply_update` drives.

Personalisation segments require score matrices that only the in-memory
pipeline produces, so this store is base-ranking only.
"""

from __future__ import annotations

import os
from typing import Union

from ..io.artifacts import ArtifactStore, RankedGeneration
from .store import ShardedScoreStore


class _MappedUrls:
    """URLs of a range of a generation's site-major positions, decoded by
    :meth:`RankedGeneration.url_at` as they are read."""

    __slots__ = ("generation", "positions")

    def __init__(self, generation: RankedGeneration,
                 positions: range) -> None:
        self.generation = generation
        self.positions = positions

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index):
        position = self.positions[index]
        if isinstance(position, range):  # a slice: a window of positions
            return _MappedUrls(self.generation, position)
        return self.generation.url_at(position)


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
        self._ranked_generation = generation
        shards = generation.shards()
        self._install_base(
            [str(shard["site"]) for shard in shards],
            [int(shard["offset"]) for shard in shards]
            + [generation.n_documents],
            generation.array("doc_ids"), generation.array("scores"),
            generation.array("order"),
            _MappedUrls(generation, range(generation.n_documents)),
            generation.array("doc_position"))

    @classmethod
    def from_store(cls, store: Union[ArtifactStore, str, os.PathLike]
                   ) -> "MmapScoreStore":
        """Open an artifact store's current generation for serving."""
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        return cls(store.generation())

    @property
    def ranked_generation(self) -> RankedGeneration:
        """The generation backing the base (shared with clones)."""
        return self._ranked_generation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MmapScoreStore(generation={self._ranked_generation.name!r}, "
                f"n_shards={self.n_shards}, "
                f"n_documents={self.n_documents})")


__all__ = ["MmapScoreStore"]
