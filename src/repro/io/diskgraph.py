"""On-disk, memory-mapped graph store for out-of-core ranking.

A *disk graph* is one versioned directory persisting exactly the buffer
families the engine already works with in RAM:

* per-site local adjacency blocks — the ``(data, indices, indptr)`` CSR
  triples :meth:`repro.web.docgraph.DocGraph.local_adjacency` extracts;
* the aggregated :class:`~repro.web.sitegraph.SiteGraph` (one more CSR
  family plus the site-size vector);
* per-site document-id vectors, optional preference vectors, and the
  document table (URL blob + offsets, site index, dynamic flags).

All arrays live back to back in a single ``blocks.bin``, placed by the
same :class:`~repro.linalg.layout.BumpLayout` codec the shared-memory
:class:`~repro.engine.arena.GraphArena` uses, and a ``manifest.json``
(written atomically via :func:`repro.io.serialization.save_json`) records
each array's dtype, byte offset and element count.  Readers rebuild every
matrix zero-copy with ``np.frombuffer`` views of one ``mmap`` +
:func:`repro.linalg.sparse_utils.csr_from_buffers`: opening a disk graph
faults in manifest-sized metadata only, and ranking it touches one window
of sites at a time.  :meth:`DiskGraph.unit_blocks` maps the byte range
holding a window's arrays *once* and answers every site of the window
from that one mapping; :meth:`DiskGraph.url_bytes` gathers many
documents' URLs as one undecoded UTF-8 blob plus per-document lengths
(one mapping of the URL table, one vectorised gather), which is what the
artifact writer copies into a generation — URLs never become Python
strings on the rank path.

Two build paths exist:

* :func:`write_diskgraph` — persist an in-memory :class:`DocGraph`
  (convenient for tests and for graphs that do fit in RAM);
* :class:`DiskGraphBuilder` — the streaming path behind
  ``repro rank --on-disk``: it ingests an edge list chunk by chunk,
  keeping only O(distinct URL spellings) vertex metadata resident while
  intra-site edges spill to bucketed temporary files, and emits the site
  blocks bucket by bucket at :meth:`~DiskGraphBuilder.finalize` — the
  full web's edge set is never materialised in memory.

The builder holds the same
:class:`~repro.web.registry.DocumentRegistry` a :class:`DocGraph` does
(first-seen ids, URL normalisation, host-based site extraction), so a
streamed build of an edge list is block-for-block identical to writing
the equivalent in-memory DocGraph.
"""

from __future__ import annotations

import json
import mmap
import os
import tempfile
from functools import cached_property
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..exceptions import GraphStructureError, ValidationError
from ..linalg.layout import ALIGNMENT, BumpLayout
from ..linalg.sparse_utils import (
    coo_from_edges,
    csr_direct_sum,
    csr_from_buffers,
)
from ..web.docgraph import DocGraph, Document, block_rows
from ..web.registry import DocumentRegistry
from ..web.sitegraph import SiteGraph, aggregate_sitegraph
from .edgelist import record_ingest
from .serialization import load_json, save_json

#: ``format`` field every disk-graph manifest must carry.
FORMAT_NAME = "repro-diskgraph"

#: Current (and only) manifest schema version.
FORMAT_VERSION = 1

#: File names inside a disk-graph directory.
MANIFEST_FILE = "manifest.json"
BLOCKS_FILE = "blocks.bin"

#: Number of spill buckets the streaming builder hashes sites into; the
#: finalize pass loads one bucket's intra-site edges at a time, so peak
#: builder memory is ~``intra_edges / SPILL_BUCKETS`` edge records.
SPILL_BUCKETS = 64

#: Edges resolved per vectorised routing step, and buffered per bucket
#: before a spill write (keeps the builder from issuing tiny file writes).
SPILL_BUFFER_EDGES = 16384


# --------------------------------------------------------------------- #
# Manifest array specs
# --------------------------------------------------------------------- #

def _spec(dtype: np.dtype, offset: int, count: int) -> Dict[str, object]:
    return {"dtype": np.dtype(dtype).str, "offset": int(offset),
            "count": int(count)}


#: The dtypes :class:`_BlockWriter` writes, per array role.  A manifest
#: naming any other is rejected at open: mapping file bytes as, say,
#: object pointers crashes the interpreter on first touch.
_FLOAT = (np.dtype(np.float64).str,)
_INDEX = (np.dtype(np.int32).str, np.dtype(np.int64).str)
_ID = (np.dtype(np.int64).str,)
_DOCUMENT_DTYPES = {"url_blob": ("|u1",), "url_offsets": _ID,
                    "doc_sites": (np.dtype(np.int32).str,),
                    "is_dynamic": ("|u1",)}


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _check_spec(spec: object, nbytes: int, what: str,
                dtypes: Sequence[str]) -> Dict[str, object]:
    """Validate one manifest array spec: its role's dtype, the file size."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{what}: array spec must be an object")
    for key in ("dtype", "offset", "count"):
        if key not in spec:
            raise ValidationError(f"{what}: array spec is missing {key!r}")
    if spec["dtype"] not in dtypes:
        raise ValidationError(
            f"{what}: dtype {spec['dtype']!r} is not one of {list(dtypes)}")
    offset, count = spec["offset"], spec["count"]
    if not _is_count(offset) or not _is_count(count):
        raise ValidationError(
            f"{what}: offset/count must be non-negative integers")
    end = offset + count * np.dtype(spec["dtype"]).itemsize
    if end > nbytes:
        raise ValidationError(
            f"{what}: array [{offset}, {end}) exceeds the {nbytes}-byte "
            f"block file")
    return spec


class _BlockWriter:
    """Append aligned arrays to a block file via the shared layout codec."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._handle = open(path, "wb")
        self._layout = BumpLayout(name=f"block file {path!r}")
        self._closed = False

    @property
    def nbytes(self) -> int:
        """Bytes the layout has consumed (final block-file size)."""
        return self._layout.used

    def write_array(self, array) -> Dict[str, object]:
        array = np.ascontiguousarray(array)
        offset = self._layout.place(array.nbytes)
        self._handle.seek(offset)
        array.tofile(self._handle)
        return _spec(array.dtype, offset, array.size)

    def write_csr(self, matrix) -> Dict[str, object]:
        csr = matrix.tocsr()
        # Canonical family order (layout.CSR_FAMILY): data, indices, indptr
        # — the same order GraphArena.add_csr writes into a segment.
        return {"shape": [int(csr.shape[0]), int(csr.shape[1])],
                "data": self.write_array(csr.data),
                "indices": self.write_array(csr.indices),
                "indptr": self.write_array(csr.indptr)}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Pad to the layout's end so every manifest offset lies within the
        # file (a trailing empty array may sit past the last written byte),
        # and make the data durable before the manifest points at it.
        self._handle.truncate(self._layout.used)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()


# --------------------------------------------------------------------- #
# Reader
# --------------------------------------------------------------------- #

class DiskGraph:
    """Zero-copy reader over a disk-graph directory.

    Every accessor maps *fresh* the byte range it needs — one mapping per
    call, however many arrays it answers with — and holds no mapping
    itself: when the caller drops the returned arrays the pages are
    unmapped, so streaming over the windows keeps process RSS bounded by
    one window regardless of graph size.  Manifest problems (missing
    files, truncated blocks, unknown versions, corrupt JSON) raise
    :class:`~repro.exceptions.ValidationError` at open time; a corrupt
    URL table raises it when read.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = os.fspath(path)
        manifest_path = os.path.join(self._path, MANIFEST_FILE)
        try:
            manifest = load_json(manifest_path)
        except FileNotFoundError:
            raise ValidationError(
                f"{self._path!r} is not a disk graph: no {MANIFEST_FILE}"
            ) from None
        except json.JSONDecodeError as error:
            raise ValidationError(
                f"disk-graph manifest {manifest_path!r} is corrupt: {error}"
            ) from None
        if not isinstance(manifest, dict) \
                or manifest.get("format") != FORMAT_NAME:
            raise ValidationError(
                f"{manifest_path!r} is not a {FORMAT_NAME} manifest")
        if manifest.get("version") != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported disk-graph version {manifest.get('version')!r} "
                f"(this build reads version {FORMAT_VERSION})")
        for key in ("blocks_file", "n_documents", "n_links", "sites",
                    "sitegraph", "documents"):
            if key not in manifest:
                raise ValidationError(
                    f"disk-graph manifest is missing {key!r}")
        self._blocks_path = os.path.join(self._path,
                                         str(manifest["blocks_file"]))
        try:
            self._blocks_nbytes = os.path.getsize(self._blocks_path)
        except OSError:
            raise ValidationError(
                f"disk graph {self._path!r} is missing its block file "
                f"{manifest['blocks_file']!r}") from None
        if not isinstance(manifest["sites"], list):
            raise ValidationError("disk-graph manifest: sites must be a list")
        self._entries: Dict[str, dict] = {}
        id_ranges = []
        for entry in manifest["sites"]:
            if not isinstance(entry, dict) or "site" not in entry:
                raise ValidationError(
                    "disk-graph manifest: malformed site entry")
            site = str(entry["site"])
            if site in self._entries:
                raise ValidationError(
                    f"disk-graph manifest: duplicate site {site!r}")
            ids = _check_spec(entry.get("doc_ids"), self._blocks_nbytes,
                              f"site {site!r} doc_ids", _ID)
            self._check_csr(entry.get("adjacency"), f"site {site!r}",
                            ids["count"])
            if entry.get("preference") is not None:
                _check_spec(entry["preference"], self._blocks_nbytes,
                            f"site {site!r} preference", _FLOAT)
            if ids["count"]:
                id_ranges.append((ids["offset"],
                                  ids["offset"] + 8 * ids["count"]))
            self._entries[site] = entry
        id_ranges.sort()
        if any(end > start for (_, end), (start, _)
               in zip(id_ranges, id_ranges[1:])):
            raise ValidationError(
                "disk-graph manifest: two sites share a doc-id range")
        sizes = self.site_sizes()
        if not _is_count(manifest["n_documents"]) \
                or sum(sizes.values()) != manifest["n_documents"]:
            raise ValidationError(
                f"disk-graph manifest: n_documents must be the sites' "
                f"{sum(sizes.values())} documents, got "
                f"{manifest['n_documents']!r}")
        sitegraph = manifest["sitegraph"]
        if not isinstance(sitegraph, dict):
            raise ValidationError(
                "disk-graph manifest: sitegraph must be an object")
        self._check_csr(sitegraph.get("adjacency"), "sitegraph", len(sizes))
        site_sizes = sitegraph.get("site_sizes")
        if not isinstance(site_sizes, list) or len(site_sizes) != len(sizes) \
                or not all(map(_is_count, site_sizes)):
            raise ValidationError(
                "disk-graph manifest: sitegraph.site_sizes must list one "
                "document count per site")
        documents = manifest["documents"]
        if not isinstance(documents, dict):
            raise ValidationError(
                "disk-graph manifest: documents must be an object")
        for key, dtypes in _DOCUMENT_DTYPES.items():
            _check_spec(documents.get(key), self._blocks_nbytes,
                        f"documents.{key}", dtypes)
        if documents["url_offsets"]["count"] != manifest["n_documents"] + 1:
            raise ValidationError(
                "disk-graph manifest: documents.url_offsets must hold "
                "n_documents + 1 offsets")
        self._manifest = manifest

    def _check_csr(self, family: object, what: str, n: int) -> None:
        """One square CSR family of *n* rows, as ``write_csr`` lays it out."""
        if not isinstance(family, dict) or family.get("shape") != [n, n]:
            raise ValidationError(
                f"{what}: CSR family must have shape [{n}, {n}]")
        specs = [_check_spec(family.get(name), self._blocks_nbytes,
                             f"{what} {name}", dtypes)
                 for name, dtypes in (("data", _FLOAT), ("indices", _INDEX),
                                      ("indptr", _INDEX))]
        if specs[0]["count"] != specs[1]["count"] \
                or specs[2]["count"] != n + 1:
            raise ValidationError(
                f"{what}: CSR arrays disagree with shape [{n}, {n}]")

    # ------------------------------------------------------------------ #
    # Mapping primitives
    # ------------------------------------------------------------------ #
    def _map_arrays(self, specs: Sequence[Optional[Dict[str, object]]]
                    ) -> Tuple[List[Optional[np.ndarray]],
                               Optional[mmap.mmap], int]:
        """Read-only views of several manifest arrays over ONE mapping.

        Returns the views, the mapping and its file offset.  The mapping
        spans the first array's first byte to the last one's end and lives
        as long as any returned view; ``None`` specs answer ``None`` and
        empty arrays map nothing (no mapping: ``None``).
        """
        live = [spec for spec in specs if spec is not None and spec["count"]]
        views: List[Optional[np.ndarray]] = []
        region, start = None, 0
        if live:
            start = min(int(spec["offset"]) for spec in live)
            stop = max(_end(spec) for spec in live)
            # mmap offsets must sit on the allocation granularity.
            start -= start % mmap.ALLOCATIONGRANULARITY
            descriptor = os.open(self._blocks_path,
                                 os.O_RDONLY | getattr(os, "O_BINARY", 0))
            try:
                region = mmap.mmap(descriptor, stop - start, offset=start,
                                   access=mmap.ACCESS_READ)
            finally:
                os.close(descriptor)
            mapping = np.frombuffer(region, dtype=np.uint8)
            obs.inc("diskgraph_mappings_total")
        for spec in specs:
            if spec is None:
                views.append(None)
                continue
            dtype, count = np.dtype(spec["dtype"]), int(spec["count"])
            if count == 0:
                views.append(np.empty(0, dtype=dtype))
                continue
            begin = int(spec["offset"]) - start
            views.append(mapping[begin:begin + count * dtype.itemsize]
                         .view(dtype))
        return views, region, start

    def _map(self, spec: Dict[str, object]) -> np.ndarray:
        """A fresh read-only mapping of one manifest array."""
        return self._map_arrays([spec])[0][0]

    # ------------------------------------------------------------------ #
    # Graph surface
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        """The disk-graph directory."""
        return self._path

    @property
    def nbytes(self) -> int:
        """Size of the block file on disk."""
        return self._blocks_nbytes

    @property
    def n_documents(self) -> int:
        """Number of documents ``N_D``."""
        return int(self._manifest["n_documents"])

    @property
    def n_links(self) -> int:
        """Number of DocLinks (counting multiplicity, inter-site included)."""
        return int(self._manifest["n_links"])

    @property
    def n_sites(self) -> int:
        """Number of web sites ``N_S``."""
        return len(self._entries)

    def sites(self) -> List[str]:
        """All site identifiers, in first-seen order."""
        return list(self._entries)

    def site_sizes(self) -> Dict[str, int]:
        """``size(s)`` for every site."""
        return {site: int(entry["doc_ids"]["count"])
                for site, entry in self._entries.items()}

    def _entry(self, site: str) -> dict:
        try:
            return self._entries[site]
        except KeyError:
            raise GraphStructureError(f"unknown site {site!r}") from None

    def doc_ids_of(self, site: str) -> np.ndarray:
        """One site's global document ids (fresh int64 memmap)."""
        return self._map(self._entry(site)["doc_ids"])

    def local_block(self, site: str) -> Tuple[object, np.ndarray]:
        """One site's ``(local CSR, doc-id vector)`` over one fresh mapping.

        Dropping the returned objects unmaps the block.  The out-of-core
        engine reads a whole window through :meth:`unit_blocks` instead.
        """
        unit = self.unit_blocks([site])
        return unit.block(0), unit.doc_ids

    def unit_blocks(self, sites: Sequence[str]) -> "UnitBlocks":
        """The layout of one out-of-core window: its sites, one mapping."""
        return UnitBlocks(self, sites)

    def personalized_sites(self) -> List[str]:
        """Sites that persist a preference vector (nothing is mapped)."""
        return [site for site, entry in self._entries.items()
                if entry.get("preference") is not None]

    def local_adjacency(self, site: str) -> Tuple[object, List[int]]:
        """Drop-in for :meth:`DocGraph.local_adjacency` (ids as a list)."""
        matrix, doc_ids = self.local_block(site)
        return matrix, [int(doc_id) for doc_id in doc_ids]

    def preference(self, site: str) -> Optional[np.ndarray]:
        """One site's persisted preference vector, or ``None``."""
        spec = self._entry(site).get("preference")
        return None if spec is None else self._map(spec)

    def sitegraph(self) -> SiteGraph:
        """The aggregated SiteGraph (adjacency zero-copy over the blocks)."""
        entry = self._manifest["sitegraph"]
        family = entry["adjacency"]
        return SiteGraph(sites=self.sites(),
                         adjacency=_csr_over(
                             family, self._map_arrays(_csr_specs(family))[0]),
                         site_sizes=[int(size)
                                     for size in entry["site_sizes"]],
                         include_self_links=bool(
                             entry.get("include_self_links", False)))

    # ------------------------------------------------------------------ #
    # Document table
    # ------------------------------------------------------------------ #
    def _check_doc_id(self, doc_id: int) -> int:
        doc_id = int(doc_id)
        if not 0 <= doc_id < self.n_documents:
            raise GraphStructureError(f"unknown document id {doc_id}")
        return doc_id

    def url_of(self, doc_id: int) -> str:
        """Canonical URL of one document id."""
        return self.urls_of_positions([doc_id])[0]

    def site_of_document(self, doc_id: int) -> str:
        """Site identifier of a document id."""
        doc_id = self._check_doc_id(doc_id)
        doc_sites = self._map(self._manifest["documents"]["doc_sites"])
        return self.sites()[int(doc_sites[doc_id])]

    def document(self, doc_id: int) -> Document:
        """The full :class:`Document` record of one id."""
        doc_id = self._check_doc_id(doc_id)
        dynamic = self._map(self._manifest["documents"]["is_dynamic"])
        return Document(doc_id=doc_id, url=self.url_of(doc_id),
                        site=self.site_of_document(doc_id),
                        is_dynamic=bool(dynamic[doc_id]))

    def urls_of_positions(self, doc_ids: Sequence[int]) -> List[str]:
        """URLs of many document ids: a decode of :meth:`url_bytes`."""
        blob, lengths = self.url_bytes(doc_ids)
        raw = blob.tobytes()
        bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
        return [raw[start:end].decode("utf-8")
                for start, end in zip(bounds, bounds[1:])]

    def url_bytes(self, doc_ids: Sequence[int]
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Many documents' URLs as one UTF-8 ``uint8`` blob + byte lengths.

        One mapping of the URL table and one vectorised gather; the bytes
        are never decoded into strings.  The gathered table is checked as
        a per-URL decode would check it — offsets ascending and inside the
        blob, every URL valid UTF-8 (one decode of the whole blob, and no
        non-empty URL opening on a continuation byte) — and a corrupt one
        raises :class:`~repro.exceptions.ValidationError` naming the graph
        and the first bad document id.
        """
        ids = np.asarray(doc_ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
        self._check_doc_id(ids.min())
        self._check_doc_id(ids.max())
        documents = self._manifest["documents"]
        offsets, blob = self._map_arrays([documents["url_offsets"],
                                          documents["url_blob"]])[0]
        starts, ends = offsets[ids], offsets[ids + 1]
        lengths = ends - starts
        broken = (starts < 0) | (lengths < 0) | (ends > blob.size)
        if broken.any():
            self._corrupt_url(ids, int(broken.argmax()),
                              "its offsets are not ascending inside the blob")
        if np.array_equal(starts[1:], ends[:-1]):
            # Adjacent byte ranges (consecutive ids): one slice.
            gathered = blob[starts[0]:ends[-1]].copy()
        else:
            firsts = np.cumsum(lengths) - lengths
            gathered = blob[np.repeat(starts - firsts, lengths)
                            + np.arange(firsts[-1] + lengths[-1])]
        self._check_utf8(ids, gathered, lengths)
        return gathered, lengths

    def _check_utf8(self, ids: np.ndarray, blob: np.ndarray,
                    lengths: np.ndarray) -> None:
        """Raise unless every URL piece of *blob* decodes on its own.

        The pieces all decode exactly when the whole blob does and no
        non-empty piece opens on a continuation byte (``10xxxxxx``).
        """
        firsts = np.cumsum(lengths) - lengths
        try:
            str(memoryview(blob), "utf-8")
            valid = not np.any(blob[firsts[lengths > 0]] & 0xC0 == 0x80)
        except UnicodeDecodeError:
            valid = False
        if valid:
            return
        # The error path: name the first URL a per-URL decode rejects.
        raw = blob.tobytes()
        for index, (first, length) in enumerate(zip(firsts.tolist(),
                                                     lengths.tolist())):
            try:
                raw[first:first + length].decode("utf-8")
            except UnicodeDecodeError:
                self._corrupt_url(ids, index, "its bytes are not UTF-8")

    def _corrupt_url(self, ids: np.ndarray, index: int, why: str) -> None:
        raise ValidationError(
            f"disk graph {self._path!r}: the URL table is corrupt at "
            f"document {int(ids[index])}: {why}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DiskGraph(path={self._path!r}, "
                f"n_documents={self.n_documents}, n_sites={self.n_sites})")


class UnitBlocks:
    """The block source of one out-of-core window, over ONE mapping.

    Every array of the window's sites — CSR family, document ids,
    preference — is a view of a single mapping of the byte range of
    ``blocks.bin`` that holds them; dropping the object and every task
    built from it unmaps the range, so the round's memory is bounded per
    window, in documents.  It answers what a step-3 layout step reads
    (:mod:`repro.engine.plan`), as :class:`~repro.web.docgraph.SiteBlocks`
    does: ``offsets`` (the sites' row boundaries, in the order asked for),
    ``doc_ids`` (their ids in row order), ``site_doc_ids(index)``,
    ``nnz``, ``block(index)`` and ``packed(indices)``; plus one optional
    vector per site in ``preferences``.
    """

    def __init__(self, graph: DiskGraph, sites: Sequence[str]) -> None:
        entries = [graph._entry(site) for site in sites]
        specs: List[Optional[Dict[str, object]]] = []
        for entry in entries:
            specs += _csr_specs(entry["adjacency"]) + [
                entry["doc_ids"], entry.get("preference")]
        views, self._region, self._start = graph._map_arrays(specs)
        self._specs = specs
        # Five views per site: data, indices, indptr, doc ids, preference.
        # A CSR object is only built for a block handed out alone.
        self._families = [views[at:at + 3] for at in range(0, len(views), 5)]
        self._ids = views[3::5]
        self.preferences = views[4::5]
        self.offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum([entry["doc_ids"]["count"] for entry in entries],
                  out=self.offsets[1:])
        self.nnz = np.array([family[0].size for family in self._families],
                            dtype=np.int64)

    @cached_property
    def doc_ids(self) -> np.ndarray:
        """Every site's document ids in row order (one ``int64`` copy)."""
        return np.concatenate(self._ids)

    def site_doc_ids(self, index: int) -> Tuple[int, ...]:
        """One site's document ids as Python ints, in row order."""
        return tuple(self._ids[index].tolist())

    def block(self, index: int):
        """One site's block as stored: a CSR over the mapped views."""
        size = int(self.offsets[index + 1] - self.offsets[index])
        return csr_from_buffers(*self._families[index], (size, size))

    def packed(self, indices: Sequence[int]
               ) -> Tuple[object, np.ndarray, np.ndarray]:
        """``(matrix, offsets, doc_ids)`` of some sites' blocks, packed.

        The blocks are concatenated into one block-diagonal CSR in fresh
        buffers and canonicalised — one block as much as several — as
        :func:`~repro.linalg.sparse_utils.block_diagonal` canonicalises;
        their mapped pages are then released (:meth:`_release`), so a
        fused site is resident once, as the packed copy.
        """
        rows, offsets = block_rows(self.offsets, indices)
        matrix = csr_direct_sum(
            [self._families[index] for index in indices],
            [(size, size) for size in np.diff(offsets).tolist()])
        # Rows never cross blocks: the packed matrix is canonical exactly
        # when every block is, and summing its duplicates canonicalises
        # each block in place.
        if not matrix.has_canonical_format:
            matrix.sum_duplicates()
        doc_ids = self.doc_ids[rows]
        self._release(indices)
        return matrix, offsets, doc_ids

    def _release(self, indices: Sequence[int]) -> None:
        """Advise the mapped pages of some packed sites' blocks away.

        The mapping lives as long as the window's step, which solves over
        the packed copy; a page read again faults back in from the file.
        """
        if not hasattr(self._region, "madvise"):
            return
        for index in indices:
            family = [spec for spec in self._specs[5 * index:5 * index + 3]
                      if spec["count"]]
            low = min(int(spec["offset"]) for spec in family) - self._start
            low -= low % mmap.PAGESIZE
            high = max(_end(spec) for spec in family) - self._start
            self._region.madvise(mmap.MADV_DONTNEED, low, high - low)


def _end(spec: Dict[str, object]) -> int:
    """The file offset just past a manifest array."""
    return int(spec["offset"]) + int(spec["count"]) * np.dtype(
        spec["dtype"]).itemsize


def _csr_specs(family: Dict[str, object]) -> List[Dict[str, object]]:
    # Canonical family order (layout.CSR_FAMILY): data, indices, indptr.
    return [family["data"], family["indices"], family["indptr"]]


def _csr_over(family: Dict[str, object], views: Sequence[np.ndarray]):
    return csr_from_buffers(*views,
                            tuple(int(size) for size in family["shape"]))


def open_diskgraph(path: str | os.PathLike) -> DiskGraph:
    """Open (and validate) a disk-graph directory."""
    return DiskGraph(path)


# --------------------------------------------------------------------- #
# Shared manifest/block emission
# --------------------------------------------------------------------- #

def _write_store(path: str, writer_fill: Callable[[_BlockWriter], dict]
                 ) -> DiskGraph:
    """Write blocks + manifest with crash-safe ordering.

    Blocks are written to a temporary sibling and renamed into place
    *before* the manifest (itself atomic write-then-rename with a parent
    fsync), so readers only ever see a manifest whose offsets point at
    complete block data — an interrupted write leaves the previous store
    (or no store) behind, never a torn one.
    """
    os.makedirs(path, exist_ok=True)
    fd, tmp_blocks = tempfile.mkstemp(dir=path, prefix=BLOCKS_FILE + ".tmp.")
    os.close(fd)
    writer = _BlockWriter(tmp_blocks)
    try:
        manifest = writer_fill(writer)
        manifest.update({
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "alignment": ALIGNMENT,
            "blocks_file": BLOCKS_FILE,
            "blocks_nbytes": writer.nbytes,
        })
        writer.close()
        os.replace(tmp_blocks, os.path.join(path, BLOCKS_FILE))
    except BaseException:
        try:
            writer.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        try:
            os.unlink(tmp_blocks)
        except OSError:
            pass
        raise
    save_json(manifest, os.path.join(path, MANIFEST_FILE), atomic=True)
    return DiskGraph(path)


def _document_table(writer: _BlockWriter, urls: Sequence[str],
                    site_indices: Sequence[int],
                    dynamic_flags: Sequence[bool]) -> dict:
    encoded = [url.encode("utf-8") for url in urls]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(blob) for blob in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return {
        "url_blob": writer.write_array(blob),
        "url_offsets": writer.write_array(offsets),
        "doc_sites": writer.write_array(
            np.asarray(site_indices, dtype=np.int32)),
        "is_dynamic": writer.write_array(
            np.asarray(dynamic_flags, dtype=np.uint8)),
    }


def write_diskgraph(docgraph: DocGraph, path: str | os.PathLike, *,
                    preferences: Optional[Dict[str, np.ndarray]] = None,
                    include_site_self_links: bool = False) -> DiskGraph:
    """Persist an in-memory :class:`DocGraph` as a disk graph.

    *preferences* optionally maps sites to local preference vectors (the
    per-document personalisation the out-of-core solve should use).
    """
    if docgraph.n_documents == 0:
        raise GraphStructureError("cannot persist an empty DocGraph")
    path = os.fspath(path)
    preferences = preferences or {}
    unknown = set(preferences) - set(docgraph.sites())
    if unknown:
        raise ValidationError(
            f"preferences reference unknown sites: {sorted(unknown)!r}")

    def fill(writer: _BlockWriter) -> dict:
        entries = []
        for site in docgraph.sites():
            local, doc_ids = docgraph.local_adjacency(site)
            entry = {
                "site": site,
                "adjacency": writer.write_csr(local),
                "doc_ids": writer.write_array(
                    np.asarray(doc_ids, dtype=np.int64)),
                "preference": None,
            }
            preference = preferences.get(site)
            if preference is not None:
                vector = np.ascontiguousarray(preference,
                                              dtype=float).ravel()
                if vector.size != len(doc_ids):
                    raise ValidationError(
                        f"preference for site {site!r} has length "
                        f"{vector.size}, expected {len(doc_ids)}")
                entry["preference"] = writer.write_array(vector)
            entries.append(entry)
        sitegraph = aggregate_sitegraph(
            docgraph, include_self_links=include_site_self_links)
        return {
            "n_documents": docgraph.n_documents,
            "n_links": docgraph.n_links,
            "sites": entries,
            "sitegraph": {
                "adjacency": writer.write_csr(sitegraph.adjacency),
                "site_sizes": [int(size) for size in sitegraph.site_sizes],
                "include_self_links": bool(sitegraph.include_self_links),
            },
            "documents": _document_table(
                writer, docgraph.registry.urls, docgraph.registry.doc_site,
                docgraph.registry.dynamic),
        }

    return _write_store(path, fill)


# --------------------------------------------------------------------- #
# Streaming builder
# --------------------------------------------------------------------- #

class DiskGraphBuilder:
    """Build a disk graph from a streamed edge list in bounded memory.

    Only O(distinct URL spellings) vertex metadata stays resident (the
    :class:`~repro.web.registry.DocumentRegistry`: the URL→id map the id
    assignment fundamentally requires — one entry per document plus one
    per non-canonical spelling seen — and per-document site/flag
    columns).  Edges arrive as URL pairs and leave the registry as int64
    id columns; each chunk is routed with array operations — intra-site
    edges spill to :data:`SPILL_BUCKETS` bucketed temporary files,
    inter-site edges collapse into SiteLink counts.  :meth:`finalize`
    then emits the per-site CSR blocks one bucket at a time, so peak
    memory never scales with the edge count.

    Document identity is the registry's, i.e. exactly
    :meth:`DocGraph.add_link`'s (normalised URLs, first-seen dense ids,
    *site_extractor* defaulting to the host), which is what makes a
    streamed build bitwise-interchangeable with :func:`write_diskgraph`
    over the same edges.
    """

    def __init__(self, path: str | os.PathLike, *,
                 site_extractor: Optional[Callable[[str], str]] = None,
                 normalize: bool = True,
                 include_site_self_links: bool = False) -> None:
        self._path = os.fspath(path)
        os.makedirs(self._path, exist_ok=True)
        self._registry = DocumentRegistry(site_extractor=site_extractor,
                                          normalize=normalize)
        self._include_self_links = bool(include_site_self_links)
        self._spill = tempfile.TemporaryDirectory(
            dir=self._path, prefix=".build.")
        # Per bucket: (k, 2) id-pair arrays awaiting a spill write.
        self._buffers: List[List[np.ndarray]] = \
            [[] for _ in range(SPILL_BUCKETS)]
        self._bucket_files: List[Optional[str]] = [None] * SPILL_BUCKETS
        # SiteLink counts keyed by ``source site << 32 | target site``.
        self._sitelink_counts: Dict[int, int] = {}
        self._n_links = 0
        self._finalized = False

    # ------------------------------------------------------------------ #
    @property
    def n_documents(self) -> int:
        """Documents registered so far."""
        return len(self._registry)

    @property
    def n_links(self) -> int:
        """Edges ingested so far (counting multiplicity)."""
        return self._n_links

    @property
    def n_sites(self) -> int:
        """Distinct sites seen so far."""
        return len(self._registry.sites)

    def _require_open(self) -> None:
        if self._finalized:
            raise ValidationError("builder is already finalized")

    # ------------------------------------------------------------------ #
    def add_document(self, url: str, *, site: Optional[str] = None,
                     is_dynamic: Optional[bool] = None) -> int:
        """Register a document (idempotent), as ``DocGraph.add_document``."""
        self._require_open()
        return self._registry.add(url, site=site, is_dynamic=is_dynamic)

    def add_edge(self, source_url: str, target_url: str) -> None:
        """Ingest one DocLink (endpoints registered on first sight)."""
        self.add_edges(((source_url, target_url),))

    def add_edges(self, edges: Iterable[Tuple[str, str]]) -> None:
        """Ingest many ``(source URL, target URL)`` pairs."""
        self._require_open()
        registry, edges = self._registry, iter(edges)
        while True:
            documents, parses = len(registry), registry.n_parses
            sources, targets = registry.add_edges(
                islice(edges, SPILL_BUFFER_EDGES))
            if not sources:
                return
            record_ingest(len(sources), len(registry) - documents,
                          registry.n_parses - parses)
            self._route(np.column_stack((sources, targets)))

    def consume(self, chunks: Iterable[Sequence[Tuple[str, str]]]) -> None:
        """Ingest a chunked stream (``repro.io.edgelist.stream_url_edgelist``)."""
        with obs.span("ingest.diskgraph.consume"):
            for chunk in chunks:
                self.add_edges(chunk)

    # ------------------------------------------------------------------ #
    def _route(self, links: np.ndarray) -> None:
        """Send one ``(k, 2)`` chunk of id pairs to spill buckets / SiteLink
        counts."""
        self._n_links += len(links)
        sites = np.frombuffer(self._registry.doc_site, dtype=np.int64)[links]
        intra = sites[:, 0] == sites[:, 1]
        counted = sites if self._include_self_links else sites[~intra]
        codes, counts = np.unique(counted[:, 0] << 32 | counted[:, 1],
                                  return_counts=True)
        for code, count in zip(codes.tolist(), counts.tolist()):
            self._sitelink_counts[code] = \
                self._sitelink_counts.get(code, 0) + count
        links, buckets = links[intra], sites[intra, 0] % SPILL_BUCKETS
        for bucket in np.unique(buckets).tolist():
            buffer = self._buffers[bucket]
            buffer.append(links[buckets == bucket])
            if sum(map(len, buffer)) >= SPILL_BUFFER_EDGES:
                self._flush_bucket(bucket)

    def _flush_bucket(self, bucket: int) -> None:
        if not self._buffers[bucket]:
            return
        if self._bucket_files[bucket] is None:
            self._bucket_files[bucket] = os.path.join(
                self._spill.name, f"bucket-{bucket:04d}.bin")
        block = np.concatenate(self._buffers[bucket])
        with open(self._bucket_files[bucket], "ab") as handle:
            block.tofile(handle)
        obs.inc("ingest_spill_bytes_total", block.nbytes)
        self._buffers[bucket] = []

    def _bucket_edges(self, bucket: int) -> np.ndarray:
        path = self._bucket_files[bucket]
        if path is None:
            return np.empty((0, 2), dtype=np.int64)
        edges = np.fromfile(path, dtype=np.int64)
        return edges.reshape(-1, 2)

    def finalize(self) -> DiskGraph:
        """Emit site blocks, SiteGraph and document table; return the store."""
        self._require_open()
        registry = self._registry
        if not registry.urls:
            raise GraphStructureError("cannot persist an empty graph")
        self._finalized = True
        for bucket in range(SPILL_BUCKETS):
            self._flush_bucket(bucket)
        doc_site = np.array(registry.doc_site, dtype=np.int64)
        n_sites = len(registry.sites)

        def fill(writer: _BlockWriter) -> dict:
            entries: List[Optional[dict]] = [None] * n_sites
            for bucket in range(SPILL_BUCKETS):
                edges = self._bucket_edges(bucket)
                source_sites = doc_site[edges[:, 0]]
                for site_index in range(bucket, n_sites, SPILL_BUCKETS):
                    doc_ids = np.asarray(registry.docs_by_site[site_index],
                                         dtype=np.int64)
                    local_edges = edges[source_sites == site_index]
                    # Site doc ids ascend (assigned in first-seen order),
                    # so local indices are searchsorted positions — the
                    # same local order DocGraph.local_adjacency uses.
                    local = coo_from_edges(
                        np.searchsorted(doc_ids, local_edges),
                        int(doc_ids.size))
                    entries[site_index] = {
                        "site": registry.sites[site_index],
                        "adjacency": writer.write_csr(local),
                        "doc_ids": writer.write_array(doc_ids),
                        "preference": None,
                    }
            codes = np.array(sorted(self._sitelink_counts), dtype=np.int64)
            site_adjacency = coo_from_edges(
                np.column_stack((codes >> 32, codes & 0xFFFFFFFF)), n_sites,
                weights=[float(self._sitelink_counts[code])
                         for code in codes.tolist()])
            return {
                "n_documents": len(registry),
                "n_links": self._n_links,
                "sites": entries,
                "sitegraph": {
                    "adjacency": writer.write_csr(site_adjacency),
                    "site_sizes": [len(ids) for ids in registry.docs_by_site],
                    "include_self_links": self._include_self_links,
                },
                "documents": _document_table(
                    writer, registry.urls, registry.doc_site,
                    registry.dynamic),
            }

        try:
            with obs.span("ingest.diskgraph.finalize"):
                return _write_store(self._path, fill)
        finally:
            self._spill.cleanup()

    def abort(self) -> None:
        """Discard spill state without writing a store."""
        self._finalized = True
        self._spill.cleanup()


__all__ = [
    "BLOCKS_FILE",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILE",
    "SPILL_BUCKETS",
    "DiskGraph",
    "DiskGraphBuilder",
    "UnitBlocks",
    "open_diskgraph",
    "write_diskgraph",
]
