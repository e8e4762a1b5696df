"""On-disk, memory-mapped graph store for out-of-core ranking.

A *disk graph* is one versioned directory persisting what the engine
works with in RAM: the site-major block layout of the intra-site links
(:meth:`repro.web.docgraph.DocGraph.site_blocks` — its ``matrix``'s
``data`` / ``indices`` / ``indptr``, its ``order`` and its ``n_sites + 1``
``offsets``; document preferences, if any, as one site-major vector and
one flag per site), the aggregated :class:`~repro.web.sitegraph.SiteGraph`
(one more CSR family) and the document table (URL blob + offsets, site
index, dynamic flags).

All arrays live back to back in a single ``blocks.bin``, placed by the
:class:`~repro.linalg.layout.BumpLayout` codec, and a ``manifest.json``
(written atomically via :func:`repro.io.serialization.save_json`) records
scalars, the site names and each array's dtype, byte offset and element
count — nothing per site.  :meth:`DiskGraph.unit_blocks` maps a window
of consecutive sites *once* and answers the
:class:`~repro.web.docgraph.SiteBlocks` a DocGraph's layout is, so one
step-3 scheduler serves both; :meth:`DiskGraph.url_bytes` gathers many
documents' URLs as one undecoded UTF-8 blob plus per-document lengths,
which is what the artifact writer copies into a generation — URLs never
become Python strings on the rank path.

Two build paths exist:

* :func:`write_diskgraph` — persist an in-memory :class:`DocGraph`
  (convenient for tests and for graphs that do fit in RAM);
* :class:`DiskGraphBuilder` — the streaming path behind
  ``repro rank --on-disk``: it ingests an edge list chunk by chunk,
  keeping only O(distinct URL spellings) vertex metadata resident while
  intra-site edges spill to bucketed temporary files, and lays the site
  blocks out bucket by bucket at :meth:`~DiskGraphBuilder.finalize` — the
  full web's edge set is never materialised in memory.

The builder holds the same
:class:`~repro.web.registry.DocumentRegistry` a :class:`DocGraph` does
(first-seen ids, URL normalisation, host-based site extraction), so a
streamed build of an edge list is byte-for-byte a :func:`write_diskgraph`
of the equivalent in-memory DocGraph.
"""

from __future__ import annotations

import json
import mmap
import os
import tempfile
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..exceptions import GraphStructureError, ValidationError
from ..linalg.layout import ALIGNMENT, BumpLayout
from ..linalg.sparse_utils import coo_from_edges, csr_from_buffers
from ..web.docgraph import DocGraph, Document, SiteBlocks
from ..web.registry import DocumentRegistry
from ..web.sitegraph import SiteGraph, aggregate_sitegraph
from .edgelist import record_ingest
from .serialization import load_json, save_json

#: ``format`` field every disk-graph manifest must carry.
FORMAT_NAME = "repro-diskgraph"

#: Current (and only) manifest schema version.  Version 1 kept one CSR
#: family per site; nothing persists a disk graph between runs (``repro
#: rank --on-disk`` rebuilds its graph), so it is not read: rebuild.
FORMAT_VERSION = 2

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
_FLAG = ("|u1",)
_BLOCK_DTYPES = {"data": _FLOAT, "indices": _INDEX, "indptr": _INDEX,
                 "order": _ID, "offsets": _ID, "preference": _FLOAT,
                 "personalized": _FLAG}
_OPTIONAL = ("preference", "personalized")
_CSR_DTYPES = {"data": _FLOAT, "indices": _INDEX, "indptr": _INDEX}
_DOCUMENT_DTYPES = {"url_blob": _FLAG, "url_offsets": _ID,
                    "doc_sites": (np.dtype(np.int32).str,),
                    "is_dynamic": _FLAG}


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
        return self.write_pieces(array.dtype, array.size, [array])

    def write_pieces(self, dtype, count: int,
                     pieces: Iterable[np.ndarray]) -> Dict[str, object]:
        """Place one array of *count* elements and write it piece by piece."""
        dtype = np.dtype(dtype)
        offset = self._layout.place(count * dtype.itemsize)
        self._handle.seek(offset)
        for piece in pieces:
            self._handle.write(np.ascontiguousarray(piece, dtype=dtype))
        return _spec(dtype, offset, count)

    def write_csr(self, matrix) -> Dict[str, object]:
        csr = matrix.tocsr()
        # Canonical family order (layout.CSR_FAMILY): data, indices, indptr.
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
    one window regardless of graph size.  A bad manifest or site offsets
    raise :class:`~repro.exceptions.ValidationError` at open time, bad
    block rows when their window is mapped, a bad URL table when read.
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
                f"(this build reads version {FORMAT_VERSION}): rebuild the "
                f"graph from its edge list")
        for key in ("blocks_file", "n_documents", "n_links", "sites",
                    "blocks", "sitegraph", "documents"):
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
        sites, n = manifest["sites"], manifest["n_documents"]
        if not isinstance(sites, list) \
                or not all(isinstance(site, str) for site in sites) \
                or len(set(sites)) != len(sites) or not _is_count(n):
            raise ValidationError(
                "disk-graph manifest: sites must be a list of distinct names "
                f"and n_documents a count, not {n!r}")
        sitegraph = manifest["sitegraph"]
        family = sitegraph.get("adjacency") \
            if isinstance(sitegraph, dict) else None
        if not isinstance(family, dict) \
                or family.get("shape") != [len(sites)] * 2:
            raise ValidationError(
                "disk-graph manifest: sitegraph.adjacency must be a CSR "
                "family of one row and column per site")
        specs: Dict[str, Dict[str, object]] = {}
        for group, table, roles in (
                ("blocks", manifest["blocks"], _BLOCK_DTYPES),
                ("documents", manifest["documents"], _DOCUMENT_DTYPES),
                ("sitegraph", family, _CSR_DTYPES)):
            if not isinstance(table, dict):
                raise ValidationError(
                    f"disk-graph manifest: {group} must be an object")
            for name, dtypes in roles.items():
                if name not in _OPTIONAL or table.get(name) is not None:
                    specs[f"{group}.{name}"] = _check_spec(
                        table.get(name), self._blocks_nbytes,
                        f"{group}.{name}", dtypes)
        expected = {
            "blocks.order": n, "blocks.indptr": n + 1,
            "blocks.offsets": len(sites) + 1,
            "blocks.indices": specs["blocks.data"]["count"],
            "blocks.preference": n, "blocks.personalized": len(sites),
            "documents.url_offsets": n + 1, "documents.doc_sites": n,
            "documents.is_dynamic": n, "sitegraph.indptr": len(sites) + 1,
            "sitegraph.indices": specs["sitegraph.data"]["count"]}
        for name, spec in specs.items():
            if spec["count"] != expected.get(name, spec["count"]):
                raise ValidationError(
                    f"disk-graph manifest: {name} must hold "
                    f"{expected[name]} entries, not {spec['count']}")
        if ("blocks.preference" in specs) != ("blocks.personalized" in specs) \
                or specs["blocks.indptr"]["dtype"] \
                != specs["blocks.indices"]["dtype"]:
            raise ValidationError(
                "disk-graph manifest: preferences come with their flags, "
                "and indptr and indices share one index dtype")
        # O(sites) arrays, read (not mapped) once.
        self._offsets = self._read(specs["blocks.offsets"])
        self._personalized = self._read(specs["blocks.personalized"]) != 0 \
            if "blocks.personalized" in specs \
            else np.zeros(len(sites), dtype=bool)
        if self._offsets[0] != 0 or self._offsets[-1] != n \
                or np.any(np.diff(self._offsets) < 0):
            raise ValidationError(
                f"disk graph {self._path!r}: blocks.offsets must ascend "
                f"from 0 to the {n} documents")
        self._sites = sites
        self._site_index = {site: index for index, site in enumerate(sites)}
        self._manifest = manifest

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
        region, start = None, 0
        if live:
            start = min(int(spec["offset"]) for spec in live)
            stop = max(int(spec["offset"]) + int(spec["count"])
                       * np.dtype(spec["dtype"]).itemsize for spec in live)
            # mmap offsets must sit on the allocation granularity.
            start -= start % mmap.ALLOCATIONGRANULARITY
            descriptor = os.open(self._blocks_path,
                                 os.O_RDONLY | getattr(os, "O_BINARY", 0))
            try:
                region = mmap.mmap(descriptor, stop - start, offset=start,
                                   access=mmap.ACCESS_READ)
            finally:
                os.close(descriptor)
            obs.inc("diskgraph_mappings_total")
        # One buffer per array: scipy copies a CSR array that is a small
        # view of a larger one.
        return [None if spec is None
                else np.empty(0, dtype=spec["dtype"]) if not spec["count"]
                else np.frombuffer(region, dtype=spec["dtype"],
                                   count=int(spec["count"]),
                                   offset=int(spec["offset"]) - start)
                for spec in specs], region, start

    def _read(self, spec: Dict[str, object]) -> np.ndarray:
        """One manifest array read into RAM (no mapping)."""
        return np.fromfile(self._blocks_path, dtype=spec["dtype"],
                           count=spec["count"], offset=spec["offset"])

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
        return len(self._sites)

    def sites(self) -> List[str]:
        """All site identifiers, in first-seen order."""
        return list(self._sites)

    def site_sizes(self) -> Dict[str, int]:
        """``size(s)`` for every site."""
        return dict(zip(self._sites, np.diff(self._offsets).tolist()))

    def _index(self, site: str) -> int:
        try:
            return self._site_index[site]
        except KeyError:
            raise GraphStructureError(f"unknown site {site!r}") from None

    def _rows(self, name: str, site: str) -> np.ndarray:
        """A fresh mapping of one site's rows of a site-major array."""
        index = self._index(site)
        low, high = self._offsets[index:index + 2].tolist()
        return self._map(self._manifest["blocks"][name])[low:high]

    def doc_ids_of(self, site: str) -> np.ndarray:
        """One site's global document ids (fresh int64 memmap)."""
        return self._rows("order", site)

    def local_block(self, site: str) -> Tuple[object, np.ndarray]:
        """One site's ``(local CSR, doc-id vector)`` over one fresh mapping.

        The block is gathered into fresh buffers.  The out-of-core engine
        reads a whole window through :meth:`unit_blocks` instead.
        """
        blocks, _preferences = self.unit_blocks([site])
        return blocks.block(0), blocks.order

    def unit_blocks(self, sites: Sequence[str]
                    ) -> Tuple[SiteBlocks, List[Optional[np.ndarray]]]:
        """A window of consecutive *sites* over ONE mapping: its
        :class:`~repro.web.docgraph.SiteBlocks` (a gather advises the
        gathered rows' pages away) and one preference view or ``None``
        per site.  One vectorised pass checks the rows before anything
        solves — ``indptr`` ascends inside the entries, every column lies
        in its row's site block, each site's ids ascend inside
        ``[0, n_documents)`` and belong to it — and raises
        :class:`~repro.exceptions.ValidationError` naming the window.
        """
        first = self._index(sites[0]) if len(sites) else 0
        last = first + len(sites)
        if not len(sites) or self._sites[first:last] != list(sites):
            raise ValidationError(
                "a window must be a run of consecutive sites, in order")
        offsets = self._offsets[first:last + 1]
        low, high = int(offsets[0]), int(offsets[-1])
        specs = self._manifest["blocks"]
        flags = self._personalized[first:last]
        views, region, start = self._map_arrays([
            specs["data"], specs["indices"], specs["indptr"], specs["order"],
            specs["preference"] if flags.any() else None,
            self._manifest["documents"]["doc_sites"]])
        data, indices, indptr, order, preference, doc_sites = views
        indptr, order = indptr[low:high + 1], order[low:high]
        where = (f"disk graph {self._path!r}, sites "
                 f"{sites[0]!r}..{sites[-1]!r}")
        if indptr[0] < 0 or indptr[-1] > data.size \
                or np.any(indptr[1:] < indptr[:-1]):
            raise ValidationError(
                f"{where}: blocks.indptr does not ascend inside the entries")
        entry, count = int(indptr[0]), int(indptr[-1] - indptr[0])
        bases = [int(specs[name]["offset"]) - start + entry * array.itemsize
                 for name, array in (("data", data), ("indices", indices))]
        data, indices = (np.frombuffer(region, dtype=array.dtype, count=count,
                                       offset=base) if count else array[:0]
                         for base, array in zip(bases, (data, indices)))
        indptr = indptr - indptr[0]
        bounds = indptr[offsets - low]
        full = np.flatnonzero(np.diff(bounds))
        if full.size and (
                np.any(np.minimum.reduceat(indices, bounds[full])
                       < offsets[full])
                or np.any(np.maximum.reduceat(indices, bounds[full])
                          >= offsets[full + 1])):
            raise ValidationError(
                f"{where}: a column lies outside its row's site block")
        site_of_row = np.repeat(np.arange(first, last), np.diff(offsets))
        if order.size and (
                order.min() < 0 or order.max() >= self.n_documents
                or np.any((np.diff(order) <= 0) & (np.diff(site_of_row) == 0))
                or np.any(doc_sites[order] != site_of_row)):
            raise ValidationError(
                f"{where}: blocks.order must list each site's own "
                f"documents once, ascending")

        def release(low_entry: int, high_entry: int) -> None:
            # Only whole pages inside the range: a page shared with rows
            # not gathered yet would fault straight back in.
            for base, array in zip(bases, (data, indices)):
                begin = -(-(base + low_entry * array.itemsize)
                          // mmap.PAGESIZE) * mmap.PAGESIZE
                end = base + high_entry * array.itemsize
                end -= end % mmap.PAGESIZE
                if end > begin and hasattr(region, "madvise"):
                    region.madvise(mmap.MADV_DONTNEED, begin, end - begin)

        matrix = csr_from_buffers(data, indices, indptr,
                                  (high - low, self.n_documents))
        preferences = [preference[offsets[i]:offsets[i + 1]]
                       if flags[i] else None for i in range(len(sites))]
        return SiteBlocks(matrix, offsets, order,
                          release=release), preferences

    def personalized_sites(self) -> List[str]:
        """Sites that persist a preference vector (nothing is mapped)."""
        return [self._sites[i] for i in np.flatnonzero(self._personalized)]

    def preference(self, site: str) -> Optional[np.ndarray]:
        """One site's persisted preference vector, or ``None``."""
        if not self._personalized[self._index(site)]:
            return None
        return self._rows("preference", site)

    def sitegraph(self) -> SiteGraph:
        """The aggregated SiteGraph (adjacency zero-copy over the blocks)."""
        entry = self._manifest["sitegraph"]
        family = entry["adjacency"]
        views = self._map_arrays([family["data"], family["indices"],
                                  family["indptr"]])[0]
        return SiteGraph(sites=self.sites(),
                         adjacency=csr_from_buffers(
                             *views, (self.n_sites, self.n_sites)),
                         site_sizes=np.diff(self._offsets).tolist(),
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
        return self._sites[int(doc_sites[doc_id])]

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


def open_diskgraph(path: str | os.PathLike) -> DiskGraph:
    """Open (and validate) a disk-graph directory."""
    return DiskGraph(path)


# --------------------------------------------------------------------- #
# Shared manifest/block emission
# --------------------------------------------------------------------- #

def _write_store(path: str, registry: DocumentRegistry, n_links: int,
                 write_blocks: Callable[[_BlockWriter], dict],
                 site_adjacency, include_self_links: bool) -> DiskGraph:
    """Write the site-major *write_blocks*, the SiteGraph, the document
    table and the manifest — both build paths, field for field — with
    crash-safe ordering.

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
        blocks = write_blocks(writer)
        family = writer.write_csr(site_adjacency)
        encoded = [url.encode("utf-8") for url in registry.urls]
        url_offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum([len(blob) for blob in encoded], out=url_offsets[1:])
        manifest = {
            "n_documents": len(registry),
            "n_links": int(n_links),
            "sites": list(registry.sites),
            "blocks": blocks,
            "sitegraph": {"adjacency": family,
                          "include_self_links": bool(include_self_links)},
            "documents": {
                "url_blob": writer.write_array(
                    np.frombuffer(b"".join(encoded), dtype=np.uint8)),
                "url_offsets": writer.write_array(url_offsets),
                "doc_sites": writer.write_array(
                    np.asarray(registry.doc_site, dtype=np.int32)),
                "is_dynamic": writer.write_array(
                    np.asarray(registry.dynamic, dtype=np.uint8)),
            },
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "alignment": ALIGNMENT,
            "blocks_file": BLOCKS_FILE,
            "blocks_nbytes": writer.nbytes,
        }
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


def write_diskgraph(docgraph: DocGraph, path: str | os.PathLike, *,
                    preferences: Optional[Dict[str, np.ndarray]] = None,
                    include_site_self_links: bool = False) -> DiskGraph:
    """Persist an in-memory :class:`DocGraph` as a disk graph.

    The blocks are :meth:`DocGraph.site_blocks` as it stands.
    *preferences* optionally maps sites to local preference vectors (the
    per-document personalisation the out-of-core solve should use).
    """
    if docgraph.n_documents == 0:
        raise GraphStructureError("cannot persist an empty DocGraph")
    preferences = preferences or {}
    site_index = docgraph.registry.site_index
    unknown = set(preferences) - set(site_index)
    if unknown:
        raise ValidationError(
            f"preferences reference unknown sites: {sorted(unknown)!r}")
    layout = docgraph.site_blocks()
    offsets = layout.offsets
    vector = np.zeros(docgraph.n_documents)
    flags = np.zeros(docgraph.n_sites, dtype=np.uint8)
    for site, preference in preferences.items():
        if preference is not None:
            index = site_index[site]
            low, high = offsets[index:index + 2].tolist()
            preference = np.asarray(preference, dtype=float).ravel()
            if preference.size != high - low:
                raise ValidationError(
                    f"preference for site {site!r} has length "
                    f"{preference.size}, expected {high - low}")
            vector[low:high], flags[index] = preference, 1

    def write_blocks(writer: _BlockWriter) -> dict:
        matrix = layout.matrix
        arrays = [("data", matrix.data), ("indices", matrix.indices),
                  ("indptr", matrix.indptr), ("order", layout.order),
                  ("offsets", offsets)]
        if flags.any():
            arrays += [("preference", vector), ("personalized", flags)]
        return {name: writer.write_array(array) for name, array in arrays}

    sitegraph = aggregate_sitegraph(
        docgraph, include_self_links=include_site_self_links)
    return _write_store(os.fspath(path), docgraph.registry, docgraph.n_links,
                        write_blocks, sitegraph.adjacency,
                        sitegraph.include_self_links)


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
    then lays the blocks out one bucket at a time, so peak memory never
    scales with the edge count.

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

    def finalize(self) -> DiskGraph:
        """Write the store and return it.

        One pass over the spill buckets sorts each bucket's intra-site
        edges into canonical rows and spills them back as per-site runs,
        copied into ``blocks.bin`` in site order: memory stays at one
        bucket's edges plus O(documents) row counts.
        """
        self._require_open()
        if not self._registry.urls:
            raise GraphStructureError("cannot persist an empty graph")
        self._finalized = True
        try:
            with obs.span("ingest.diskgraph.finalize"):
                return self._finalize()
        finally:
            self._spill.cleanup()

    def _finalize(self) -> DiskGraph:
        registry = self._registry
        for bucket in range(SPILL_BUCKETS):
            self._flush_bucket(bucket)
        doc_site = np.frombuffer(registry.doc_site, dtype=np.int64)
        n, n_sites = len(registry), len(registry.sites)
        # The numbering SiteBlocks.from_links gives the same documents.
        order = np.argsort(doc_site, kind="stable")
        offsets = np.pad(np.cumsum(np.bincount(doc_site, minlength=n_sites)),
                         (1, 0))
        position = np.empty_like(order)
        position[order] = np.arange(n)
        n_intra = sum(os.path.getsize(path) // 16
                      for path in self._bucket_files if path is not None)
        # The index dtype scipy gives the whole layout's CSR.
        index_dtype = np.dtype(sp.get_index_dtype(maxval=max(n_intra, n)))
        row_counts = np.zeros(n, dtype=np.int64)
        # Where each site's entries start in its bucket's runs.
        run_start = np.zeros(n_sites, dtype=np.int64)
        for bucket, path in enumerate(self._bucket_files):
            if path is None:
                continue
            edges = np.fromfile(path, dtype=np.int64).reshape(-1, 2)
            # The bucket's blocks as canonical entries: sorted (row, column)
            # keys in site-major positions, duplicate links summed.
            keys, weights = np.unique(position[edges[:, 0]] * n
                                      + position[edges[:, 1]],
                                      return_counts=True)
            rows = keys // n
            present, per_row = np.unique(rows, return_counts=True)
            row_counts[present] = per_row
            here = np.arange(bucket, n_sites, SPILL_BUCKETS)
            run_start[here] = np.searchsorted(rows, offsets[here])
            (keys % n).astype(index_dtype).tofile(
                self._run_path("indices", bucket))
            weights.astype(np.float64).tofile(self._run_path("data", bucket))
        indptr = np.pad(np.cumsum(row_counts), (1, 0)).astype(index_dtype)
        site_nnz = np.diff(indptr[offsets]).tolist()

        def runs(name: str, dtype: np.dtype):
            """Every site's entries of *name*, copied in site order."""
            handles = {bucket: open(self._run_path(name, bucket), "rb")
                       for bucket, path in enumerate(self._bucket_files)
                       if path is not None}
            try:
                for site in np.flatnonzero(site_nnz).tolist():
                    handle = handles[site % SPILL_BUCKETS]
                    handle.seek(int(run_start[site]) * dtype.itemsize)
                    yield np.frombuffer(handle.read(
                        site_nnz[site] * dtype.itemsize), dtype=dtype)
            finally:
                for handle in handles.values():
                    handle.close()

        def write_blocks(writer: _BlockWriter) -> dict:
            return {
                "data": writer.write_pieces(
                    np.float64, int(indptr[-1]),
                    runs("data", np.dtype(np.float64))),
                "indices": writer.write_pieces(
                    index_dtype, int(indptr[-1]),
                    runs("indices", index_dtype)),
                "indptr": writer.write_array(indptr),
                "order": writer.write_array(order),
                "offsets": writer.write_array(offsets),
            }

        codes = np.array(sorted(self._sitelink_counts), dtype=np.int64)
        site_adjacency = coo_from_edges(
            np.column_stack((codes >> 32, codes & 0xFFFFFFFF)), n_sites,
            weights=[float(self._sitelink_counts[code])
                     for code in codes.tolist()])
        return _write_store(self._path, registry, self._n_links,
                            write_blocks, site_adjacency,
                            self._include_self_links)

    def _run_path(self, name: str, bucket: int) -> str:
        return os.path.join(self._spill.name, f"run-{name}-{bucket:04d}.bin")

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
    "open_diskgraph",
    "write_diskgraph",
]
