"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer of the program (spans inside ``src/`` are a later change).  A
span has a name (the layer = module name, or ``pass.*`` for a pipeline
pass that groups layers), start, end and the span that caused it; spans
stay in memory and are written out once, at exit.
"""

from __future__ import annotations

import json
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records nested spans per thread."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time the enclosed block as one span, a child of the open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"id": 0, "name": name, "workload": self.workload,
                  "parent": stack[-1]["id"] if stack else None,
                  "start": 0.0, "end": 0.0}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()

    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> List[float]:
        """Durations (seconds) of every span called *name*."""
        return [span["end"] - span["start"] for span in self.spans
                if span["name"] == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(self.durations(name))

    def median_ms(self, name: str) -> float:
        """Median duration, in milliseconds, of the spans called *name*."""
        values = self.durations(name)
        return statistics.median(values) * 1000.0 if values else 0.0

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name: duration minus the children's share."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
        return totals

    def coverage(self, name: str) -> float:
        """Share of the *name* spans' time that their child spans cover."""
        total = self.total(name)
        if total <= 0.0:
            return 0.0
        return 1.0 - self.self_seconds().get(name, 0.0) / total

    def export(self, path: str, *, seed: Optional[int] = None) -> None:
        """Write every span as JSON (times are ``perf_counter`` seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": "system-bench-trace/1",
                       "workload": self.workload, "seed": seed,
                       "spans": self.spans}, handle)
