"""Zero-copy shared-memory transport for the engine's graph payloads.

The layered method's step-3 batch is embarrassingly parallel, but a
process pool only realises that parallelism after the task payloads reach
the workers — and until now :class:`~repro.engine.executor.ProcessExecutor`
shipped every site's CSR adjacency (and the SiteGraph) to the pool *by
value*, through pickle.  On a 100k-document web the matrices dominate the
dispatch cost: the workers spend their first milliseconds deserialising
megabytes that already sit, bit for bit, in the parent's memory.

A :class:`GraphArena` removes that copy.  The parent lays the CSR buffers
(``data`` / ``indices`` / ``indptr``) of every matrix of a batch into one
:class:`multiprocessing.shared_memory.SharedMemory` segment and replaces
each embedded matrix with a small picklable :class:`ArenaRef` — segment
name, dtypes, shape and byte offsets.  Workers *attach* to the segment by
name and rebuild the matrices as numpy views over the mapped buffer
(:func:`repro.linalg.sparse_utils.csr_from_buffers`): zero bytes of graph
travel through the pool's pipes, regardless of web size.

Lifecycle is explicit and owned by the dispatching executor:

* ``share_batch`` packs a batch and returns the arena *owner* handle;
* the executor maps the batch and finally calls :meth:`GraphArena.dispose`
  (close + unlink) — segments never outlive the batch that used them, on
  success *or* error, which the arena-lifecycle tests pin down;
* workers attach lazily at task-run time (spawn-safe: attachment is by
  name, nothing is inherited) and keep one segment mapped per process,
  closing the previous batch's mapping when the next batch arrives;
* attaching to a disposed segment raises a clear
  :class:`~repro.exceptions.ValidationError` instead of a bare OS error.

The module also owns the engine's *dispatch accounting*: every transport
(`pickle` or `arena`) reports how many bytes a batch shipped by value, the
number benchmarks and provenance records surface as ``dispatch_bytes``.

Payload types opt into the arena by implementing two methods (duck-typed,
so layers stay decoupled from each other):

``__arena_bytes__()``
    Bytes of payload the arena could absorb (0 when already shared).
``__arena_share__(arena)``
    Return a copy of the payload with its heavy buffers replaced by
    :class:`ArenaRef`\\ s written into *arena*.

:class:`~repro.engine.plan.LocalRankTask` and
:class:`~repro.engine.plan.SiteRankTask` implement the pair.
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ValidationError
from ..linalg.layout import ALIGNMENT, BumpLayout, family_nbytes
from ..linalg.sparse_utils import csr_arena_nbytes, csr_from_buffers
from ..web.docgraph import SiteBlockRef
from ..web.sitegraph import SiteGraph

#: Prefix of every arena segment name; the leak tests (and operators
#: inspecting ``/dev/shm``) identify our segments by it.
SEGMENT_PREFIX = "repro-arena"

#: Fallback dispatch estimate for payloads that refuse to pickle.
TASK_OVERHEAD_BYTES = 512


@dataclass(frozen=True)
class ArenaRef:
    """Address of one array family inside a shared-memory segment.

    A ref is the *only* thing that crosses the process boundary: it names
    the segment and records, per array, the dtype and byte offset needed
    to rebuild a numpy view over the mapped buffer.  ``kind`` selects the
    layout: ``"csr"`` (three arrays: ``data`` / ``indices`` / ``indptr``)
    or ``"vector"`` (one ``data`` array).

    Refs deliberately carry the shape and nnz so cost models
    (:mod:`repro.engine.adaptive`) can price a shared task without
    attaching to the segment.
    """

    segment: str
    kind: str  # "csr" | "vector"
    shape: Tuple[int, ...]
    data_dtype: str
    data_offset: int
    data_count: int
    index_dtype: str = ""
    indices_offset: int = 0
    indptr_offset: int = 0

    @property
    def nnz(self) -> int:
        """Stored non-zeros (for vectors: the element count)."""
        return self.data_count

    def __reduce__(self):
        # Positional form: a ref is what every shared task ships per
        # matrix, so its pickle must not carry nine field-name strings.
        return (ArenaRef, (self.segment, self.kind, self.shape,
                           self.data_dtype, self.data_offset,
                           self.data_count, self.index_dtype,
                           self.indices_offset, self.indptr_offset))


@dataclass(frozen=True)
class SharedSiteGraph:
    """A :class:`~repro.web.sitegraph.SiteGraph` with its adjacency in an arena.

    Carries the cheap metadata (site identifiers, sizes) by value and the
    SiteLink-count matrix by reference; :meth:`resolve` rebuilds the real
    SiteGraph over the attached buffers in a worker.  Exposes the
    ``n_sites`` / ``adjacency.nnz`` surface the engine's cost model reads,
    so a shared SiteRank task prices exactly like an unshared one.
    """

    sites: Tuple[str, ...]
    site_sizes: Tuple[int, ...]
    include_self_links: bool
    adjacency: ArenaRef

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def resolve(self) -> SiteGraph:
        """Attach and rebuild the full SiteGraph (zero-copy adjacency)."""
        return SiteGraph(sites=list(self.sites),
                         adjacency=resolve_csr(self.adjacency),
                         site_sizes=list(self.site_sizes),
                         include_self_links=self.include_self_links)


# --------------------------------------------------------------------- #
# Owner side
# --------------------------------------------------------------------- #

#: Names of segments created by this process and not yet unlinked — the
#: invariant the leak tests assert on: empty after every batch/service
#: lifecycle, including error paths.
_LIVE_SEGMENTS: "set[str]" = set()


class GraphArena:
    """Owner handle of one shared-memory segment holding graph buffers.

    Created by the dispatching side (usually through :func:`share_batch`),
    filled through a bump allocator (:meth:`add_csr` / :meth:`add_vector`),
    and destroyed with :meth:`dispose` once the batch that referenced it
    has completed.  The context-manager form disposes on exit, so an arena
    can never leak past the scope that created it.
    """

    def __init__(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValidationError("arena size must be positive")
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        self._shm = shared_memory.SharedMemory(name=name, create=True,
                                               size=nbytes)
        self._layout = BumpLayout(self._shm.size,
                                  name=f"arena segment {self._shm.name!r}")
        self._disposed = False
        _LIVE_SEGMENTS.add(self._shm.name)

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Name of the underlying shared-memory segment."""
        return self._shm.name

    @property
    def size(self) -> int:
        """Capacity of the segment in bytes."""
        return self._shm.size

    @property
    def used(self) -> int:
        """Bytes consumed by the arrays written so far."""
        return self._layout.used

    # ------------------------------------------------------------------ #
    def _write(self, array: np.ndarray) -> int:
        """Copy *array* into the segment; return its byte offset."""
        if self._disposed:
            raise ValidationError("arena is disposed")
        array = np.ascontiguousarray(array)
        offset = self._layout.place(array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype,
                          buffer=self._shm.buf, offset=offset)
        view[...] = array
        return offset

    def add_csr(self, matrix) -> ArenaRef:
        """Lay one CSR matrix's buffers into the segment; return its ref."""
        csr = matrix.tocsr()
        data_offset = self._write(csr.data)
        indices_offset = self._write(csr.indices)
        indptr_offset = self._write(csr.indptr)
        return ArenaRef(segment=self.name, kind="csr",
                        shape=tuple(int(s) for s in csr.shape),
                        data_dtype=csr.data.dtype.str,
                        data_offset=data_offset,
                        data_count=int(csr.data.size),
                        index_dtype=csr.indices.dtype.str,
                        indices_offset=indices_offset,
                        indptr_offset=indptr_offset)

    def add_vector(self, array) -> ArenaRef:
        """Lay one 1-D array into the segment; return its ref."""
        flat = np.ascontiguousarray(array).ravel()
        offset = self._write(flat)
        return ArenaRef(segment=self.name, kind="vector",
                        shape=(int(flat.size),),
                        data_dtype=flat.dtype.str,
                        data_offset=offset,
                        data_count=int(flat.size))

    def add_sitegraph(self, sitegraph: SiteGraph) -> SharedSiteGraph:
        """Share a SiteGraph: metadata by value, adjacency by reference."""
        return SharedSiteGraph(
            sites=tuple(sitegraph.sites),
            site_sizes=tuple(int(s) for s in sitegraph.site_sizes),
            include_self_links=bool(sitegraph.include_self_links),
            adjacency=self.add_csr(sitegraph.adjacency))

    # ------------------------------------------------------------------ #
    def dispose(self) -> None:
        """Close the mapping and unlink the segment (idempotent).

        After this, fresh attaches raise :class:`ValidationError`; workers
        that already hold a mapping keep valid memory until they close it
        (POSIX keeps the pages alive while any mapping exists).
        """
        if self._disposed:
            return
        self._disposed = True
        _LIVE_SEGMENTS.discard(self._shm.name)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "GraphArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.dispose()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GraphArena(name={self.name!r}, used={self.used}, "
                f"size={self.size})")


def live_segments() -> List[str]:
    """Names of arena segments this process created and has not unlinked.

    The lifecycle tests assert this is empty after every executor batch
    and service shutdown — the programmatic counterpart of checking
    ``/dev/shm`` for stray ``repro-arena-*`` files.
    """
    return sorted(_LIVE_SEGMENTS)


# --------------------------------------------------------------------- #
# Attach side (workers, or the owner resolving its own refs)
# --------------------------------------------------------------------- #

#: Per-process cache of attached segments.  Workers of a long-lived pool
#: see one arena per batch; keeping exactly the segments that still
#: resolve (and closing stale ones on the next attach) bounds the mapped
#: memory to roughly one batch.
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()


_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without registering it for tracking.

    The segment's *owner* is solely responsible for unlinking it; letting
    an attach register with the ``resource_tracker`` (which CPython < 3.13
    does unconditionally, bpo-39959) would make worker exits unlink — or
    warn about — segments they never owned.  3.13+ exposes ``track=False``
    for exactly this; earlier interpreters need the registration silenced
    for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    with _ATTACH_LOCK:
        original = resource_tracker.register

        def _skip_shared_memory(res_name, rtype):
            if rtype != "shared_memory":  # pragma: no cover - other types
                original(res_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _open_segment(name: str) -> shared_memory.SharedMemory:
    try:
        return _attach_untracked(name)
    except FileNotFoundError:
        raise ValidationError(
            f"arena segment {name!r} does not exist (it was closed/unlinked "
            f"by its owner); ArenaRefs are only valid while the dispatching "
            f"executor's batch is in flight") from None


def _segment(name: str) -> shared_memory.SharedMemory:
    cached = _ATTACHED.get(name)
    if cached is not None:
        _ATTACHED.move_to_end(name)
        return cached
    # A new segment means a new batch: drop mappings of previous batches
    # so worker memory stays bounded.  A mapping still referenced by live
    # numpy views refuses to close (BufferError) and is simply kept.
    for stale in list(_ATTACHED):
        try:
            _ATTACHED[stale].close()
        except BufferError:  # pragma: no cover - views still alive
            continue
        del _ATTACHED[stale]
    shm = _open_segment(name)
    _ATTACHED[name] = shm
    return shm


def _view(shm: shared_memory.SharedMemory, dtype: str, offset: int,
          count: int) -> np.ndarray:
    array = np.ndarray((count,), dtype=np.dtype(dtype), buffer=shm.buf,
                       offset=offset)
    # The buffers are shared between processes: make accidental in-place
    # mutation (which would corrupt every other task of the batch) an
    # immediate error instead of a heisenbug.
    array.flags.writeable = False
    return array


def resolve_csr(ref: ArenaRef):
    """Rebuild a CSR matrix as zero-copy views over an arena segment."""
    if ref.kind != "csr":
        raise ValidationError(f"expected a csr ref, got kind={ref.kind!r}")
    shm = _segment(ref.segment)
    n_rows = ref.shape[0]
    data = _view(shm, ref.data_dtype, ref.data_offset, ref.data_count)
    indices = _view(shm, ref.index_dtype, ref.indices_offset, ref.data_count)
    indptr = _view(shm, ref.index_dtype, ref.indptr_offset, n_rows + 1)
    return csr_from_buffers(data, indices, indptr, ref.shape)


def resolve_vector(ref: ArenaRef) -> np.ndarray:
    """Rebuild a 1-D array as a zero-copy view over an arena segment."""
    if ref.kind != "vector":
        raise ValidationError(f"expected a vector ref, got kind={ref.kind!r}")
    shm = _segment(ref.segment)
    return _view(shm, ref.data_dtype, ref.data_offset, ref.data_count)


def resolve_matrix(adjacency):
    """Pass through real matrices; attach :class:`ArenaRef` ones and cut
    :class:`~repro.web.docgraph.SiteBlockRef` ones out of their layout."""
    if isinstance(adjacency, ArenaRef):
        return resolve_csr(adjacency)
    if isinstance(adjacency, SiteBlockRef):
        return adjacency.tocsr()
    return adjacency


# --------------------------------------------------------------------- #
# Optional-vector payloads (preference / start / id / score vectors)
# --------------------------------------------------------------------- #
# Task payloads carry optional vectors that may arrive as None, as any
# array-like (list, float32 array, ...), or — once shared — as an
# ArenaRef.  These three helpers are the single implementation of the
# budget / share / resolve triple every payload type uses, so the byte
# accounting can never drift from what share_vector actually writes.

def _vector_payload(vector) -> np.ndarray:
    """The exact float64 array :func:`share_vector` would write."""
    return np.ascontiguousarray(np.asarray(vector, dtype=float)).ravel()


def vector_arena_nbytes(*vectors) -> int:
    """Arena bytes of optional vector payloads (0 for None / already shared).

    Budgets the *written* form — the float64 cast of whatever array-like
    the caller holds — plus one :data:`ALIGNMENT` slack per vector, so a
    float32 or plain-list input can never overflow the segment it sized.
    """
    return family_nbytes(*(_vector_payload(v).nbytes for v in vectors
                           if v is not None
                           and not isinstance(v, ArenaRef)))


def share_vector(arena: GraphArena, vector):
    """Write an optional vector into *arena* (None / refs pass through)."""
    if vector is None or isinstance(vector, ArenaRef):
        return vector
    return arena.add_vector(_vector_payload(vector))


def resolve_vector_payload(vector):
    """Pass through real (or absent) vectors; attach :class:`ArenaRef` ones."""
    if isinstance(vector, ArenaRef):
        return resolve_vector(vector)
    return vector


# --------------------------------------------------------------------- #
# Batch packing + dispatch accounting
# --------------------------------------------------------------------- #

def arena_bytes(item) -> int:
    """Bytes of *item*'s payload an arena could absorb (0 when none)."""
    measure = getattr(item, "__arena_bytes__", None)
    return int(measure()) if measure is not None else 0


def share_batch(items: Sequence) -> Tuple[list, Optional[GraphArena]]:
    """Pack a batch's heavy buffers into one arena.

    Returns ``(shared_items, arena)`` — the items with their matrices
    replaced by :class:`ArenaRef`\\ s, plus the owner handle the caller
    must :meth:`~GraphArena.dispose` after the batch completes.  When no
    item has anything to share the original list is returned with
    ``arena=None`` and nothing is allocated.
    """
    items = list(items)
    total = sum(arena_bytes(item) for item in items)
    if total == 0:
        return items, None
    arena = GraphArena(total)
    try:
        shared = [item.__arena_share__(arena)
                  if getattr(item, "__arena_share__", None) is not None
                  else item
                  for item in items]
    except BaseException:
        arena.dispose()
        raise
    return shared, arena


def dispatch_bytes(items: Sequence) -> int:
    """Bytes pickle serialises to ship *items* to worker processes.

    Measured exactly (one ``pickle.dumps`` per item — the same work the
    pool performs to dispatch them, so the measurement is at most a
    doubling of a cost the batch pays anyway, and for arena-shared items
    the payloads are tiny refs).  This is the number surfaced as
    ``dispatch_bytes`` in provenance records, simulation reports and the
    transport benchmarks.
    """
    total = 0
    for item in items:
        try:
            total += len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:  # pragma: no cover - unpicklable payloads
            total += TASK_OVERHEAD_BYTES
    return total


__all__ = [
    "ALIGNMENT",
    "ArenaRef",
    "GraphArena",
    "SEGMENT_PREFIX",
    "SharedSiteGraph",
    "TASK_OVERHEAD_BYTES",
    "arena_bytes",
    "csr_arena_nbytes",
    "dispatch_bytes",
    "live_segments",
    "resolve_csr",
    "resolve_matrix",
    "resolve_vector",
    "resolve_vector_payload",
    "share_batch",
    "share_vector",
    "vector_arena_nbytes",
]
