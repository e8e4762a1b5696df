"""Buffer-family layout codec of the on-disk graph store's blocks.

The on-disk graph store (:mod:`repro.io.diskgraph`) persists the
``(data, indices, indptr)`` CSR buffer families and flat vectors of a web,
laid back to back into one contiguous byte span with every array start
aligned.  This module is the single home of that offset arithmetic — a
:class:`BumpLayout` places arrays in a ``blocks.bin`` file, and the sizing
helpers budget the aligned form so a span sized from them can never
overflow.

Keeping the codec in :mod:`repro.linalg` (a leaf package) lets the io
layer import it without cycles.
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import ValidationError

#: Byte alignment of every array start inside a laid-out span.
ALIGNMENT = 16

#: Canonical write order of a CSR buffer family inside a span; the disk
#: format emits the three arrays in this order.
CSR_FAMILY = ("data", "indices", "indptr")


def align_offset(offset: int, alignment: int = ALIGNMENT) -> int:
    """Round *offset* up to the next multiple of *alignment*."""
    if alignment <= 0:
        raise ValidationError("alignment must be positive")
    return (offset + alignment - 1) // alignment * alignment


def family_nbytes(*payload_nbytes: int, alignment: int = ALIGNMENT) -> int:
    """Span bytes needed for a family of array payloads.

    Each payload is budgeted as its byte size plus one *alignment* of
    slack (the worst-case padding a :class:`BumpLayout` can insert before
    it), so a span sized with this helper always fits the family
    regardless of where the cursor currently sits.
    """
    return sum(int(nbytes) + alignment for nbytes in payload_nbytes)


class BumpLayout:
    """Bump allocator assigning aligned offsets inside one byte span.

    The layout is pure arithmetic: it never touches memory, it only
    answers "where does the next *nbytes*-sized array start?".  Callers
    copy their bytes to the returned offset — into a shared-memory buffer,
    a file, or anything else byte-addressable.

    With a *capacity* the layout also enforces bounds, raising
    :class:`~repro.exceptions.ValidationError` before the caller would
    write past the end of the span.
    """

    def __init__(self, capacity: Optional[int] = None, *,
                 alignment: int = ALIGNMENT, name: str = "layout") -> None:
        if alignment <= 0:
            raise ValidationError("alignment must be positive")
        if capacity is not None and capacity < 0:
            raise ValidationError("capacity must be non-negative")
        self._alignment = alignment
        self._capacity = capacity
        self._name = name
        self._cursor = 0

    @property
    def alignment(self) -> int:
        """Byte alignment of every placed array."""
        return self._alignment

    @property
    def capacity(self) -> Optional[int]:
        """Span size in bytes, or ``None`` when unbounded."""
        return self._capacity

    @property
    def used(self) -> int:
        """Bytes consumed so far (end offset of the last placed array)."""
        return self._cursor

    def place(self, nbytes: int) -> int:
        """Reserve *nbytes* at the next aligned offset; return that offset."""
        if nbytes < 0:
            raise ValidationError("array size must be non-negative")
        offset = align_offset(self._cursor, self._alignment)
        end = offset + int(nbytes)
        if self._capacity is not None and end > self._capacity:
            raise ValidationError(
                f"{self._name} overflow: need {end} bytes, "
                f"have {self._capacity}")
        self._cursor = end
        return offset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BumpLayout(used={self.used}, capacity={self.capacity}, "
                f"alignment={self.alignment})")


__all__ = [
    "ALIGNMENT",
    "CSR_FAMILY",
    "BumpLayout",
    "align_offset",
    "family_nbytes",
]
