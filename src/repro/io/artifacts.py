"""Ranked-artifact store: persisted ranking generations served from disk.

The serving layer's double-buffering swaps an in-RAM store pointer; this
module is the on-disk counterpart.  An :class:`ArtifactStore` directory
holds immutable *generations* — each one a complete composed ranking in
site-major order, exactly the layout
:func:`repro.web.pipeline.compose_ranking` produces — plus a top-level
``MANIFEST.json`` whose ``current`` field names the generation being
served.  Publishing a new generation writes its files, then flips that one
pointer atomically (:func:`repro.io.serialization.save_json` with
``atomic=True``, which also fsyncs the directory): a crash mid-publish
leaves the previous generation current.

A generation's arrays each live in their own flat file:

``scores.bin``
    float64 composed global scores (normalised), site-major.
``local_scores.bin``
    float64 *unweighted* local DocRank vectors in the same positions —
    the warm-start payload the next out-of-core rank resumes from.
``doc_ids.bin`` / ``doc_position.bin``
    int64 global document ids per position, and the inverse permutation
    (document id → site-major position) for O(1) point lookups.
``order.bin``
    int64 per-shard descending sort orders (shard-local indices),
    precomputed at write time so serving never sorts — and therefore
    never faults a whole score column into memory.
``urls.bin`` / ``url_offsets.bin``
    UTF-8 URL blob plus int64 offsets per position.

:class:`GenerationWriter` streams these files a run of sites at a time —
doc ids, vectors and URL bytes arrive as concatenated arrays and are
copied undecoded, one write per file per call — and indexes them in
windows of whole shards at ``finalize``.

``repro serve --store dir/`` boots an mmap-backed score store
(:mod:`repro.serving.mmapstore`) straight over these files — no
re-ranking, no score column resident in RSS.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..exceptions import NotADistributionError, ValidationError
from .serialization import load_json, save_json

#: ``format`` fields of the two manifest kinds.
STORE_FORMAT = "repro-artifacts"
GENERATION_FORMAT = "repro-artifacts-generation"

#: Current (and only) schema version of both manifests.
FORMAT_VERSION = 1

STORE_MANIFEST = "MANIFEST.json"
GENERATION_MANIFEST = "manifest.json"

#: Array files every generation carries, with their dtypes.
GENERATION_ARRAYS: Dict[str, str] = {
    "scores": "<f8",
    "local_scores": "<f8",
    "doc_ids": "<i8",
    "doc_position": "<i8",
    "order": "<i8",
    "url_offsets": "<i8",
    "urls": "|u1",
}

#: Elements per chunk when the writer streams a whole-array operation
#: (normalisation divide) without materialising the array.
_CHUNK_ELEMENTS = 1 << 20

#: Positions per ``finalize`` indexing window (whole shards; a bigger
#: shard is a window of its own).  Small enough that the window's sort
#: runs in cache: one sort of many small shards beats a sort per shard,
#: one sort of many large ones loses to it.
_INDEX_WINDOW = 1 << 11


def _array_file(name: str) -> str:
    return f"{name}.bin"


class RankedGeneration:
    """Read-only view of one persisted generation.

    ``array(name)`` returns a cached read-only memmap (the serving form:
    one mapping shared by every reader of the generation); ``map_array``
    returns a fresh mapping the caller fully owns (the streaming form —
    dropping it unmaps the pages).  Manifest or file corruption raises
    :class:`~repro.exceptions.ValidationError` at open time.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = os.fspath(path)
        manifest_path = os.path.join(self._path, GENERATION_MANIFEST)
        try:
            manifest = load_json(manifest_path)
        except FileNotFoundError:
            raise ValidationError(
                f"{self._path!r} is not a ranked generation: "
                f"no {GENERATION_MANIFEST}") from None
        except json.JSONDecodeError as error:
            raise ValidationError(
                f"generation manifest {manifest_path!r} is corrupt: {error}"
            ) from None
        if not isinstance(manifest, dict) \
                or manifest.get("format") != GENERATION_FORMAT:
            raise ValidationError(
                f"{manifest_path!r} is not a {GENERATION_FORMAT} manifest")
        if manifest.get("version") != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported generation version "
                f"{manifest.get('version')!r}")
        for key in ("method", "n_documents", "shards", "siterank"):
            if key not in manifest:
                raise ValidationError(
                    f"generation manifest is missing {key!r}")
        n_documents = manifest["n_documents"]
        if not isinstance(n_documents, int) or n_documents <= 0:
            raise ValidationError(
                "generation manifest: n_documents must be positive")
        if not isinstance(manifest["shards"], list) or not manifest["shards"]:
            raise ValidationError(
                "generation manifest: shards must be a non-empty list")
        cursor = 0
        for shard in manifest["shards"]:
            if not isinstance(shard, dict):
                raise ValidationError(
                    "generation manifest: malformed shard entry")
            for key in ("site", "offset", "count"):
                if key not in shard:
                    raise ValidationError(
                        f"generation manifest: shard entry missing {key!r}")
            if shard["offset"] != cursor:
                raise ValidationError(
                    f"generation manifest: shard {shard['site']!r} offset "
                    f"{shard['offset']} does not continue site-major order "
                    f"(expected {cursor})")
            cursor += int(shard["count"])
        if cursor != n_documents:
            raise ValidationError(
                f"generation manifest: shards cover {cursor} documents, "
                f"manifest declares {n_documents}")
        sizes: Dict[str, int] = {}
        for name, dtype in GENERATION_ARRAYS.items():
            file_path = os.path.join(self._path, _array_file(name))
            try:
                sizes[name] = os.path.getsize(file_path)
            except OSError:
                raise ValidationError(
                    f"generation {self._path!r} is missing "
                    f"{_array_file(name)}") from None
            if name in ("scores", "local_scores", "doc_ids",
                        "doc_position", "order"):
                expected = n_documents * np.dtype(dtype).itemsize
                if sizes[name] != expected:
                    raise ValidationError(
                        f"generation array {_array_file(name)} is "
                        f"{sizes[name]} bytes, expected {expected}")
        if sizes["url_offsets"] != (n_documents + 1) * 8:
            raise ValidationError(
                "generation array url_offsets.bin has the wrong size")
        self._manifest = manifest
        self._cached: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        """The generation directory."""
        return self._path

    @property
    def name(self) -> str:
        """Directory basename (the name the store manifest points at)."""
        return os.path.basename(self._path.rstrip(os.sep))

    @property
    def method(self) -> str:
        """Ranking method that produced the generation."""
        return str(self._manifest["method"])

    @property
    def n_documents(self) -> int:
        """Documents in the generation."""
        return int(self._manifest["n_documents"])

    @property
    def iterations(self) -> int:
        """Total power iterations of the producing rank."""
        return int(self._manifest.get("iterations", 0))

    def shards(self) -> List[dict]:
        """Per-site shard table: site, offset, count, site_score, iterations."""
        return list(self._manifest["shards"])

    def siterank(self) -> dict:
        """The SiteRank block of the manifest (sites, scores, iterations)."""
        return dict(self._manifest["siterank"])

    # ------------------------------------------------------------------ #
    def map_array(self, name: str) -> np.ndarray:
        """A fresh caller-owned mapping of one generation array."""
        if name not in GENERATION_ARRAYS:
            raise ValidationError(f"unknown generation array {name!r}")
        dtype = np.dtype(GENERATION_ARRAYS[name])
        file_path = os.path.join(self._path, _array_file(name))
        nbytes = os.path.getsize(file_path)
        if nbytes == 0:
            return np.empty(0, dtype=dtype)
        return np.memmap(file_path, dtype=dtype, mode="r")

    def array(self, name: str) -> np.ndarray:
        """The cached shared mapping of one generation array."""
        cached = self._cached.get(name)
        if cached is None:
            cached = self.map_array(name)
            self._cached[name] = cached
        return cached

    def url_at(self, position: int) -> str:
        """URL of one site-major position (via the shared mapping)."""
        offsets = self.array("url_offsets")
        blob = self.array("urls")
        start, end = int(offsets[position]), int(offsets[position + 1])
        return bytes(blob[start:end]).decode("utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RankedGeneration(path={self._path!r}, "
                f"n_documents={self.n_documents})")


class GenerationWriter:
    """Streamed site-major writer of one generation.

    :meth:`append_sites` writes a run of consecutive sites as they are
    solved — their doc ids, local vectors and undecoded URL bytes arrive
    concatenated, with per-site counts, and each array file takes one
    write per call — so the producer holds no more than it has solved.
    Each site's scores are stored SiteRank-weighted but not yet
    normalised.  ``finalize`` then performs the whole-array steps: the
    single normalisation sum (bitwise the in-memory
    :func:`~repro._validation.normalize_distribution`), the inverse
    permutation and the per-shard sort orders (one scatter and one sort
    per window of whole shards), and the manifest write.
    """

    def __init__(self, path: str | os.PathLike, *, method: str,
                 n_documents: int) -> None:
        if n_documents <= 0:
            raise ValidationError("n_documents must be positive")
        self._path = os.fspath(path)
        os.makedirs(self._path, exist_ok=True)
        self._method = method
        self._n_documents = int(n_documents)
        self._handles = {
            name: open(os.path.join(self._path, _array_file(name)), "wb")
            for name in ("scores", "local_scores", "doc_ids",
                         "urls", "url_offsets")}
        self._handles["url_offsets"].write(
            np.zeros(1, dtype=np.int64).tobytes())
        self._url_cursor = 0
        self._cursor = 0
        self._shards: List[dict] = []
        self._seen_sites: set = set()
        self._finalized = False

    def append_site(self, site: str, doc_ids: Sequence[int],
                    urls: Sequence[str], local_scores: np.ndarray,
                    site_score: float, iterations: int) -> None:
        """Write one site's block (in site order — site-major layout)."""
        ids = np.asarray(doc_ids, dtype=np.int64).ravel()
        encoded = [url.encode("utf-8") for url in urls]
        self.append_sites([site], [ids.size], ids, local_scores,
                          np.frombuffer(b"".join(encoded), dtype=np.uint8),
                          [len(url) for url in encoded], [site_score],
                          [iterations])

    def append_sites(self, sites: Sequence[str], counts: Sequence[int],
                     doc_ids: np.ndarray, local_scores: np.ndarray,
                     url_bytes: np.ndarray, url_lengths: Sequence[int],
                     site_scores: Sequence[float],
                     iterations: Sequence[int]) -> None:
        """Write consecutive sites' blocks at once (site-major layout).

        *doc_ids*, *local_scores* and *url_lengths* hold the sites'
        documents concatenated in site order (*counts* per site),
        *url_bytes* their UTF-8 URLs back to back; *site_scores* and
        *iterations* hold one entry per site.
        """
        if self._finalized:
            raise ValidationError("generation writer is already finalized")
        sites = list(sites)
        fresh: set = set()
        for site in sites:
            if site in self._seen_sites or site in fresh:
                raise ValidationError(f"site {site!r} appended twice")
            fresh.add(site)
        counts = np.asarray(counts, dtype=np.int64).ravel()
        ids = np.asarray(doc_ids, dtype=np.int64).ravel()
        local_scores = np.asarray(local_scores, dtype=float).ravel()
        blob = np.asarray(url_bytes, dtype=np.uint8).ravel()
        lengths = np.asarray(url_lengths, dtype=np.int64).ravel()
        weights = np.asarray(site_scores, dtype=float).ravel()
        if not (len(sites) == counts.size == weights.size == len(iterations)
                and int(counts.sum()) == ids.size == lengths.size
                == local_scores.size and int(lengths.sum()) == blob.size
                and counts.min(initial=0) >= 0
                and lengths.min(initial=0) >= 0):
            named = ", ".join(map(repr, sites[:3])) \
                + (", ..." if len(sites) > 3 else "")
            raise ValidationError(
                f"site {named}: doc_ids, urls and scores must align")
        if not sites:
            return
        ends = self._cursor + np.cumsum(counts)
        if ends[-1] > self._n_documents:
            site = sites[int(np.argmax(ends > self._n_documents))]
            raise ValidationError(
                f"site {site!r} overflows the declared "
                f"{self._n_documents} documents")
        outside = (ids < 0) | (ids >= self._n_documents)
        if outside.any():
            first = self._cursor + int(outside.argmax())
            site = sites[int(np.searchsorted(ends, first, side="right"))]
            raise ValidationError(
                f"site {site!r} has document ids outside "
                f"[0, {self._n_documents})")
        # The same composition op compose_ranking performs per block.
        weighted = np.repeat(weights, counts) * local_scores
        offsets = self._url_cursor + np.cumsum(lengths)
        written = 0
        # Buffered writes of the arrays' bytes (ndarray.tofile re-syncs
        # the file object around every call).
        for name, array in (("scores", weighted),
                            ("local_scores", local_scores),
                            ("doc_ids", ids), ("urls", blob),
                            ("url_offsets", offsets)):
            written += self._handles[name].write(array)
        self._url_cursor += blob.size
        obs.inc("generation_bytes_written_total", written)
        self._seen_sites |= fresh
        self._shards.extend(
            {"site": site, "offset": offset, "count": count,
             "site_score": weight, "iterations": int(iteration)}
            for site, offset, count, weight, iteration in zip(
                sites, (ends - counts).tolist(), counts.tolist(),
                weights.tolist(), iterations))
        self._cursor = int(ends[-1])

    def abort(self) -> None:
        """Close the partial files (the generation is never published)."""
        self._finalized = True
        for handle in self._handles.values():
            handle.close()

    def finalize(self, *, siterank_sites: Sequence[str],
                 siterank_scores: Sequence[float],
                 siterank_iterations: int, siterank_damping: float,
                 iterations: int = 0) -> RankedGeneration:
        """Normalise, index, and write the generation manifest."""
        if self._finalized:
            raise ValidationError("generation writer is already finalized")
        if self._cursor != self._n_documents:
            raise ValidationError(
                f"generation covers {self._cursor} documents, "
                f"declared {self._n_documents}")
        self._finalized = True
        with obs.span("artifacts.finalize"):
            self._index()
        manifest = {
            "format": GENERATION_FORMAT,
            "version": FORMAT_VERSION,
            "method": self._method,
            "n_documents": self._n_documents,
            "iterations": int(iterations),
            "shards": self._shards,
            "siterank": {
                "sites": list(siterank_sites),
                "scores": [float(score) for score in siterank_scores],
                "iterations": int(siterank_iterations),
                "damping": float(siterank_damping),
            },
        }
        save_json(manifest, os.path.join(self._path, GENERATION_MANIFEST),
                  atomic=True)
        return RankedGeneration(self._path)

    def _index(self) -> None:
        """Make the streamed files durable, normalise, write the indexes."""
        for handle in self._handles.values():
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()

        scores_path = os.path.join(self._path, _array_file("scores"))
        scores = np.memmap(scores_path, dtype=np.float64, mode="r+")
        # Bitwise the in-memory normalize_distribution(concatenated):
        # one pairwise sum over the whole contiguous array, then an
        # elementwise divide by that scalar (chunked — same per-element op).
        if float(scores.min()) < 0.0:
            raise NotADistributionError("layered DocRank has negative entries")
        total = float(np.sum(scores))
        if not math.isfinite(total):
            raise NotADistributionError(
                "layered DocRank has a non-finite total; cannot normalise")
        if total <= 0.0:
            raise NotADistributionError(
                "layered DocRank sums to zero; cannot normalise")
        for start in range(0, scores.size, _CHUNK_ELEMENTS):
            chunk = scores[start:start + _CHUNK_ELEMENTS]
            scores[start:start + _CHUNK_ELEMENTS] = chunk / total
        scores.flush()

        doc_ids = np.memmap(os.path.join(self._path, _array_file("doc_ids")),
                            dtype=np.int64, mode="r")
        position = np.memmap(
            os.path.join(self._path, _array_file("doc_position")),
            dtype=np.int64, mode="w+", shape=(self._n_documents,))
        order = np.memmap(os.path.join(self._path, _array_file("order")),
                          dtype=np.int64, mode="w+",
                          shape=(self._n_documents,))
        counts = np.fromiter((shard["count"] for shard in self._shards),
                             dtype=np.int64, count=len(self._shards))
        bounds = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        if bounds[-1] != self._n_documents:
            raise ValidationError("shards do not cover every document")
        # Plain views of the mappings: slicing a memmap costs ~10x more.
        all_ids, normalised = np.asarray(doc_ids), np.asarray(scores)
        positions, orders = np.asarray(position), np.asarray(order)
        for first, last in _shard_windows(counts.tolist(), _INDEX_WINDOW):
            start, stop = int(bounds[first]), int(bounds[last])
            ids = all_ids[start:stop]
            positions[ids] = np.arange(start, stop, dtype=np.int64)
            # The exact _Shard order — descending score, ties by doc id —
            # of every shard in the window at once, i.e.
            # np.lexsort((ids, -scores, shard_key)): a complex argsort
            # compares (-score, id) lexicographically (ids are unique, so
            # the unstable sort is exact), then a stable radix sort on the
            # small shard key groups the shards.  Minus each shard's offset
            # in the window, that is every shard's own lexsort.
            window = counts[first:last]
            shard_key = np.repeat(np.arange(
                window.size, dtype=np.min_scalar_type(window.size)), window)
            ranked = np.argsort(-normalised[start:stop] + 1j * ids)
            ranked = ranked[np.argsort(shard_key[ranked], kind="stable")]
            ranked -= np.repeat(bounds[first:last] - start, window)
            orders[start:stop] = ranked
        position.flush()
        order.flush()


def _shard_windows(counts: Sequence[int], limit: int
                   ) -> List[Tuple[int, int]]:
    """Runs ``[first, last)`` of whole shards holding at most *limit*
    positions each (a shard bigger than *limit* is a run of its own)."""
    windows, first, size = [], 0, 0
    for index, count in enumerate(counts):
        if size and size + count > limit:
            windows.append((first, index))
            first, size = index, 0
        size += count
    windows.append((first, len(counts)))
    return windows


class ArtifactStore:
    """A directory of ranking generations behind one ``current`` pointer."""

    def __init__(self, path: str | os.PathLike, *, create: bool = False
                 ) -> None:
        self._path = os.fspath(path)
        manifest_path = os.path.join(self._path, STORE_MANIFEST)
        if create and not os.path.exists(manifest_path):
            os.makedirs(self._path, exist_ok=True)
            save_json({"format": STORE_FORMAT, "version": FORMAT_VERSION,
                       "current": None, "generations": []},
                      manifest_path, atomic=True)
        self._manifest = self._load()

    def _load(self) -> dict:
        manifest_path = os.path.join(self._path, STORE_MANIFEST)
        try:
            manifest = load_json(manifest_path)
        except FileNotFoundError:
            raise ValidationError(
                f"{self._path!r} is not an artifact store: "
                f"no {STORE_MANIFEST}") from None
        except json.JSONDecodeError as error:
            raise ValidationError(
                f"artifact-store manifest {manifest_path!r} is corrupt: "
                f"{error}") from None
        if not isinstance(manifest, dict) \
                or manifest.get("format") != STORE_FORMAT:
            raise ValidationError(
                f"{manifest_path!r} is not a {STORE_FORMAT} manifest")
        if manifest.get("version") != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported artifact-store version "
                f"{manifest.get('version')!r}")
        if not isinstance(manifest.get("generations"), list):
            raise ValidationError(
                "artifact-store manifest: generations must be a list")
        return manifest

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        """The store directory."""
        return self._path

    @property
    def current(self) -> Optional[str]:
        """Name of the generation being served (``None`` before a publish)."""
        current = self._manifest.get("current")
        return None if current is None else str(current)

    def generations(self) -> List[str]:
        """All published generation names, oldest first."""
        return [str(name) for name in self._manifest["generations"]]

    def reload(self) -> None:
        """Re-read the store manifest (pick up another process's publish)."""
        self._manifest = self._load()

    # ------------------------------------------------------------------ #
    def generation(self, name: Optional[str] = None) -> RankedGeneration:
        """Open one generation (the current one by default)."""
        if name is None:
            name = self.current
            if name is None:
                raise ValidationError(
                    f"artifact store {self._path!r} has no published "
                    f"generation")
        return RankedGeneration(os.path.join(self._path, name))

    def next_generation_name(self) -> str:
        """The name the next :meth:`create_generation` will use."""
        return f"gen-{len(self.generations()) + 1:06d}"

    def create_generation(self, *, method: str, n_documents: int
                          ) -> GenerationWriter:
        """Start writing a new (unpublished) generation."""
        name = self.next_generation_name()
        return GenerationWriter(os.path.join(self._path, name),
                                method=method, n_documents=n_documents)

    def publish(self, name: str) -> None:
        """Flip the ``current`` pointer to *name* — the generation swap.

        Validates the generation first, then rewrites ``MANIFEST.json``
        atomically (write, rename, directory fsync): readers see either
        the old pointer or the new one, never an intermediate state.
        """
        RankedGeneration(os.path.join(self._path, name))  # must be complete
        generations = self.generations()
        if name not in generations:
            generations.append(name)
        self._manifest = {"format": STORE_FORMAT, "version": FORMAT_VERSION,
                          "current": name, "generations": generations}
        save_json(self._manifest, os.path.join(self._path, STORE_MANIFEST),
                  atomic=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ArtifactStore(path={self._path!r}, "
                f"current={self.current!r})")


def open_artifact_store(path: str | os.PathLike) -> ArtifactStore:
    """Open (and validate) an existing artifact store."""
    return ArtifactStore(path)


__all__ = [
    "FORMAT_VERSION",
    "GENERATION_ARRAYS",
    "GENERATION_FORMAT",
    "GENERATION_MANIFEST",
    "STORE_FORMAT",
    "STORE_MANIFEST",
    "ArtifactStore",
    "GenerationWriter",
    "RankedGeneration",
    "open_artifact_store",
]
