"""Tests for repro.linalg.layout — the shared buffer-family codec."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.linalg import (
    ALIGNMENT,
    CSR_FAMILY,
    BumpLayout,
    align_offset,
    family_nbytes,
)


class TestAlignOffset:
    def test_already_aligned_is_unchanged(self):
        assert align_offset(0) == 0
        assert align_offset(32) == 32

    def test_rounds_up_to_next_multiple(self):
        assert align_offset(1) == ALIGNMENT
        assert align_offset(ALIGNMENT + 1) == 2 * ALIGNMENT

    def test_custom_alignment(self):
        assert align_offset(5, 4) == 8
        assert align_offset(8, 4) == 8

    def test_rejects_non_positive_alignment(self):
        with pytest.raises(ValidationError):
            align_offset(3, 0)


class TestFamilyNbytes:
    def test_budgets_payload_plus_slack(self):
        assert family_nbytes(100) == 100 + ALIGNMENT
        assert family_nbytes(10, 20, 30) == 60 + 3 * ALIGNMENT

    def test_budget_always_fits_the_layout(self):
        """A span sized by family_nbytes can never overflow — any cursor."""
        sizes = [1, 17, 64, 3, 1000, 0, 5]
        layout = BumpLayout(family_nbytes(*sizes))
        for nbytes in sizes:
            layout.place(nbytes)  # must not raise

    def test_csr_family_order_is_stable(self):
        # The disk format relies on this exact order.
        assert CSR_FAMILY == ("data", "indices", "indptr")


class TestBumpLayout:
    def test_offsets_are_aligned_and_non_overlapping(self):
        layout = BumpLayout()
        previous_end = 0
        for nbytes in (3, 17, 1, 64, 5):
            offset = layout.place(nbytes)
            assert offset % ALIGNMENT == 0
            assert offset >= previous_end
            previous_end = offset + nbytes
        assert layout.used == previous_end

    def test_matches_numpy_array_placement(self):
        """Placing real array sizes reproduces a packed, aligned span."""
        arrays = [np.arange(n, dtype=dtype)
                  for n, dtype in ((7, np.float64), (13, np.int64),
                                   (5, np.int32))]
        layout = BumpLayout()
        offsets = [layout.place(array.nbytes) for array in arrays]
        span = bytearray(layout.used)
        for offset, array in zip(offsets, arrays):
            span[offset:offset + array.nbytes] = array.tobytes()
        for offset, array in zip(offsets, arrays):
            loaded = np.frombuffer(span, dtype=array.dtype,
                                   count=array.size, offset=offset)
            np.testing.assert_array_equal(loaded, array)

    def test_capacity_overflow_raises_before_writing(self):
        layout = BumpLayout(capacity=32, name="test span")
        layout.place(16)
        with pytest.raises(ValidationError, match="test span overflow"):
            layout.place(32)

    def test_zero_byte_placement_is_allowed(self):
        layout = BumpLayout(capacity=0)
        assert layout.place(0) == 0
        assert layout.used == 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValidationError):
            BumpLayout().place(-1)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValidationError):
            BumpLayout(alignment=0)
        with pytest.raises(ValidationError):
            BumpLayout(capacity=-1)

    def test_custom_alignment_respected(self):
        layout = BumpLayout(alignment=4)
        layout.place(2)
        assert layout.place(2) == 4
