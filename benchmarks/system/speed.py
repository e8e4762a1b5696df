"""A fixed reference kernel that tells how fast the box is right now.

The benchmark box is a small shared VM whose speed moves by 20-30 % for
minutes at a time (a pure-Python loop and a sparse mat-vec slow down
together with every workload), far more than the 10 % a regression bound
has to resolve.  The reference pass below does a fixed amount of work of
the two kinds the program does — interpreter-bound dictionary and string
work, memory-bound CSR mat-vecs — and is timed between the rounds of a
run.  A run's timings are then reported at *reference speed*: multiplied
by ``NOMINAL_SECONDS / measured reference seconds``, so a run on a slowed
box reads as it would have on the nominal one.  The reference does not
depend on the seed, the workload or the code under test.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy as np
import scipy.sparse as sp

#: Duration of one reference pass on the nominal box (what this box does
#: when nothing disturbs it).  It only fixes the scale of the corrected
#: numbers; the comparison of two commits does not depend on it.
NOMINAL_SECONDS = 0.032

_N = 20_000


class SpeedProbe:
    """Times the reference pass; keeps every sample of the run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        rows = np.repeat(np.arange(_N), 5)
        cols = rng.integers(0, _N, size=rows.size)
        self._matrix = sp.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(_N, _N))
        self._vector = np.full(_N, 1.0 / _N)
        self._keys = [f"http://s{index % 977:05d}.ref.test/p{index}"
                      for index in range(_N)]
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the reference pass once; returns (and records) its seconds."""
        started = perf_counter()
        table = {}
        for key in self._keys:
            table[key] = len(table)
        total = 0
        for key in self._keys:
            total += table[key]
        for index in range(300_000):
            total += index * index
        vector = self._vector
        for _ in range(120):
            vector = self._matrix @ vector
            vector = vector / (np.abs(vector).sum() + 1.0)
        seconds = perf_counter() - started
        self.samples.append(seconds)
        return seconds

    def factor(self, begin: int, end: int) -> float:
        """The multiplier that turns a time measured while samples
        ``begin..end-1`` were taken into a reference-speed time."""
        return NOMINAL_SECONDS / statistics.median(self.samples[begin:end])
