"""The process-local :class:`MetricsRegistry`: counters, gauges, histograms.

This is the storage half of :mod:`repro.obs`.  Everything is plain Python
and stdlib-only — one lock, three dicts — because the registry sits on the
engine's dispatch path and the serving layer's request path:

* **counters** are monotonic floats (``inc``), keyed by metric name plus a
  sorted label tuple;
* **gauges** are set-or-add floats (``set_gauge`` / ``add_gauge``) for
  point-in-time values such as in-flight requests;
* **histograms** are fixed-bucket (``observe``): each metric family owns
  one bucket boundary tuple, chosen by name suffix (``_seconds``,
  ``_iterations``, ``_bytes``, ``_flops``) or declared explicitly, and the
  p50/p90/p99 summaries are interpolated from the cumulative bucket counts
  at snapshot time, never maintained per observation.

Scrape-time *collectors* — callables returning ``(kind, name, labels,
value)`` samples — let subsystems that already keep their own counters
(the serving cache, the score store) appear in snapshots and in the
Prometheus exposition without double accounting.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: A metric identity: name plus sorted ``(label, value)`` pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: A collector sample: ``(kind, name, labels, value)`` with *kind* one of
#: ``"counter"`` / ``"gauge"``.
Sample = Tuple[str, str, Dict[str, str], float]

#: Default latency buckets (seconds), Prometheus-style.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Buckets for iteration/sweep counts.
ITERATION_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

#: Buckets for byte sizes (dispatch payloads).
BYTES_BUCKETS: Tuple[float, ...] = (
    256, 1024, 4096, 16384, 65536, 262144,
    1_048_576, 4_194_304, 16_777_216, 67_108_864)

#: Buckets for priced flop estimates (the adaptive cost model's range).
FLOPS_BUCKETS: Tuple[float, ...] = (
    1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11)

#: Buckets for small cardinalities (tasks per batch, blocks per sweep).
COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)

#: Buckets for retrieval candidate-set and solver problem sizes (decades,
#: up to whole corpora).
CANDIDATE_BUCKETS: Tuple[float, ...] = (
    10, 100, 1000, 10_000, 100_000, 1_000_000, 10_000_000)

#: Suffix-driven default bucket choice (checked in order).
_SUFFIX_BUCKETS: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("_seconds", LATENCY_BUCKETS),
    ("_iterations", ITERATION_BUCKETS),
    ("_bytes", BYTES_BUCKETS),
    ("_flops", FLOPS_BUCKETS),
    ("_candidates", CANDIDATE_BUCKETS),
    ("_rows", CANDIDATE_BUCKETS),
    ("_nnz", CANDIDATE_BUCKETS),
)


def default_buckets(name: str) -> Tuple[float, ...]:
    """Bucket boundaries used for a histogram that was never declared."""
    for suffix, buckets in _SUFFIX_BUCKETS:
        if name.endswith(suffix):
            return buckets
    return COUNT_BUCKETS


class _Histogram:
    """Fixed-bucket histogram: cumulative-friendly counts plus sum."""

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        #: Per-bucket counts; the final slot is the ``+Inf`` bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        # Prometheus ``le`` semantics: a value equal to a bound belongs to
        # that bound's bucket, which is what bisect_left yields.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile by linear interpolation in its bucket."""
        if self.total == 0:
            return 0.0
        rank = q * self.total
        cumulative = 0
        for index, count in enumerate(self.counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count > 0:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                if index >= len(self.bounds):
                    # The +Inf bucket has no upper bound to interpolate to.
                    return self.bounds[-1] if self.bounds else 0.0
                upper = self.bounds[index]
                fraction = (rank - previous) / count
                return lower + (upper - lower) * fraction
        return self.bounds[-1] if self.bounds else 0.0


def _key(name: str, labels: Dict[str, str]) -> MetricKey:
    if not labels:
        return name, ()
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _labels_dict(key: MetricKey) -> Dict[str, str]:
    return dict(key[1])


class MetricsRegistry:
    """Thread-safe process-local store of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, _Histogram] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        self._collectors: List[Callable[[], Iterable[Sample]]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        """Add *value* (default 1) to a monotonic counter."""
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge to *value*."""
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def add_gauge(self, name: str, delta: float, **labels: str) -> None:
        """Add *delta* to a gauge (for in-flight style up/down counts)."""
        key = _key(name, labels)
        with self._lock:
            self._gauges[key] = self._gauges.get(key, 0.0) + delta

    def declare_histogram(self, name: str,
                          buckets: Tuple[float, ...]) -> None:
        """Fix a histogram family's bucket boundaries explicitly."""
        bounds = tuple(float(b) for b in buckets)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must strictly increase")
        with self._lock:
            self._buckets[name] = bounds

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one observation into a histogram."""
        key = _key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                bounds = self._buckets.get(name) or default_buckets(name)
                histogram = self._histograms[key] = _Histogram(bounds)
            histogram.observe(float(value))

    # ------------------------------------------------------------------ #
    # Scrape-time collectors
    # ------------------------------------------------------------------ #
    def add_collector(self, fn: Callable[[], Iterable[Sample]]) -> None:
        """Register a callable sampled at snapshot/exposition time."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def remove_collector(self, fn: Callable[[], Iterable[Sample]]) -> None:
        """Unregister a collector (no-op when absent)."""
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def _collected(self) -> List[Sample]:
        with self._lock:
            collectors = list(self._collectors)
        samples: List[Sample] = []
        for fn in collectors:
            samples.extend(fn())
        return samples

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def counter_value(self, name: str, **labels: str) -> float:
        """Current value of one counter (0.0 when never incremented)."""
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: str) -> float:
        """Current value of one gauge (0.0 when never set)."""
        with self._lock:
            return self._gauges.get(_key(name, labels), 0.0)

    def snapshot(self, *, include_collected: bool = True) -> Dict[str, list]:
        """A JSON-serialisable view of every metric.

        Histograms carry their count/sum plus interpolated p50/p90/p99
        summaries and the cumulative bucket table.
        """
        with self._lock:
            counters = [{"name": key[0], "labels": _labels_dict(key),
                         "value": value}
                        for key, value in sorted(self._counters.items())]
            gauges = [{"name": key[0], "labels": _labels_dict(key),
                       "value": value}
                      for key, value in sorted(self._gauges.items())]
            histograms = []
            for key, histogram in sorted(self._histograms.items()):
                cumulative = 0
                buckets = []
                for bound, count in zip(histogram.bounds, histogram.counts):
                    cumulative += count
                    buckets.append([bound, cumulative])
                histograms.append({
                    "name": key[0], "labels": _labels_dict(key),
                    "count": histogram.total, "sum": histogram.sum,
                    "p50": histogram.quantile(0.50),
                    "p90": histogram.quantile(0.90),
                    "p99": histogram.quantile(0.99),
                    "buckets": buckets,
                })
        if include_collected:
            for kind, name, labels, value in self._collected():
                entry = {"name": name, "labels": dict(labels),
                         "value": float(value)}
                (counters if kind == "counter" else gauges).append(entry)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def reset(self) -> None:
        """Drop every recorded value (collectors stay registered)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------ #
    # Prometheus text exposition
    # ------------------------------------------------------------------ #
    def to_prometheus(self, *, prefix: str = "repro_") -> str:
        """Render every metric in the Prometheus text exposition format."""
        lines: List[str] = []
        snap = self.snapshot()
        seen_types: Dict[str, str] = {}

        def full(name: str) -> str:
            return name if name.startswith(prefix) else prefix + name

        def emit_type(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types[name] = kind
                lines.append(f"# HELP {name} repro {kind}")
                lines.append(f"# TYPE {name} {kind}")

        for entry in snap["counters"]:
            name = full(entry["name"])
            emit_type(name, "counter")
            lines.append(f"{name}{_render_labels(entry['labels'])} "
                         f"{_render_value(entry['value'])}")
        for entry in snap["gauges"]:
            name = full(entry["name"])
            emit_type(name, "gauge")
            lines.append(f"{name}{_render_labels(entry['labels'])} "
                         f"{_render_value(entry['value'])}")
        for entry in snap["histograms"]:
            name = full(entry["name"])
            emit_type(name, "histogram")
            for bound, cumulative in entry["buckets"]:
                labels = dict(entry["labels"])
                labels["le"] = _render_value(float(bound))
                lines.append(f"{name}_bucket{_render_labels(labels)} "
                             f"{cumulative}")
            inf_labels = dict(entry["labels"])
            inf_labels["le"] = "+Inf"
            lines.append(f"{name}_bucket{_render_labels(inf_labels)} "
                         f"{entry['count']}")
            lines.append(f"{name}_sum{_render_labels(entry['labels'])} "
                         f"{_render_value(entry['sum'])}")
            lines.append(f"{name}_count{_render_labels(entry['labels'])} "
                         f"{entry['count']}")
        return "\n".join(lines) + "\n" if lines else ""


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format rules."""
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{escape_label_value(value)}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _render_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


# --------------------------------------------------------------------- #
# Exposition validation (used by the CI scrape smoke test)
# --------------------------------------------------------------------- #
_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\",?)*\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))"
    r"(?: [0-9]+)?$")


def validate_exposition(text: str) -> None:
    """Raise ``ValueError`` when *text* is not valid Prometheus exposition.

    Checks the properties a scraper depends on: every non-comment line
    parses as ``name{labels} value``, metric names are legal, label values
    are properly quoted/escaped, ``# TYPE`` declarations are well-formed
    and precede their samples, and the payload ends with a newline.
    """
    if not text:
        raise ValueError("empty exposition payload")
    if not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    declared: Dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            if not _METRIC_NAME_RE.fullmatch(parts[2]):
                raise ValueError(
                    f"line {lineno}: bad metric name {parts[2]!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary",
                        "untyped"):
                    raise ValueError(
                        f"line {lineno}: bad TYPE declaration {line!r}")
                declared[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in declared:
                family = name[:-len(suffix)]
                break
        if declared and family not in declared and name not in declared:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no TYPE declaration")


__all__ = [
    "MetricsRegistry",
    "Sample",
    "LATENCY_BUCKETS",
    "ITERATION_BUCKETS",
    "BYTES_BUCKETS",
    "FLOPS_BUCKETS",
    "COUNT_BUCKETS",
    "default_buckets",
    "escape_label_value",
    "validate_exposition",
]
