"""The declarative, serialisable :class:`RankingConfig`.

One frozen dataclass describes a whole ranking deployment — which method to
run, its numeric knobs, the engine backend, the warm-start policy, and the
serving / distributed options — so the same object can drive a one-shot
pipeline run, an incremental ranker, a peer simulation, or a query service,
and can be written to disk (JSON or TOML) and handed to
``repro rank --config``.

Every field is validated at construction: a config object that exists is a
config object that can run.  The one check deferred to run time is whether
``method`` names a *registered* method — plugins may register methods after
a config mentioning them was created — which :meth:`RankingConfig.require_method`
performs on demand.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Union

from ..exceptions import ValidationError
from ..io.config_io import load_config_mapping, save_config_mapping
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..markov.irreducibility import DEFAULT_DAMPING

#: Engine backends a config may name; ``"auto"`` defers to the cost model.
EXECUTOR_CHOICES = ("serial", "threaded", "auto")

#: Query/link combination rules of the serving layer.
RULE_CHOICES = ("linear", "rrf")

#: Deployment flavours of the distributed protocol.
ARCHITECTURE_CHOICES = ("flat", "super-peer")

#: Site-to-peer assignment policies of the distributed protocol.
PARTITION_POLICY_CHOICES = ("round-robin", "balanced", "one-per-site")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


#: Keys a personalisation segment may carry.
_SEGMENT_KEYS = ("sites", "documents", "background")


def _validate_personalization(spec: Any) -> None:
    """Validate the declarative ``personalization`` section.

    Structure only — site names and document URLs are resolved against the
    DocGraph at fit time; weights are checked here for the NaN / negative
    failures the preference builders would reject anyway, so a config that
    exists is a config that can run.
    """
    import math

    _require(isinstance(spec, dict) and bool(spec),
             "personalization must be a non-empty mapping of segment "
             "names to segment specs")
    for name, segment in spec.items():
        _require(isinstance(name, str) and bool(name),
                 f"segment names must be non-empty strings, got {name!r}")
        _require(isinstance(segment, dict),
                 f"segment {name!r} must be a mapping, "
                 f"got {type(segment).__name__}")
        unknown = sorted(set(segment) - set(_SEGMENT_KEYS))
        _require(not unknown,
                 f"segment {name!r} has unknown key"
                 f"{'s' if len(unknown) > 1 else ''}: {', '.join(unknown)}; "
                 f"known keys: {', '.join(_SEGMENT_KEYS)}")
        for group in ("sites", "documents"):
            weights = segment.get(group)
            if weights is None:
                continue
            _require(isinstance(weights, dict),
                     f"segment {name!r} {group} must be a mapping of "
                     f"identifiers to weights")
            for key, weight in weights.items():
                _require(isinstance(key, str) and bool(key),
                         f"segment {name!r} {group} keys must be "
                         f"non-empty strings, got {key!r}")
                _require(isinstance(weight, (int, float))
                         and not isinstance(weight, bool)
                         and math.isfinite(weight) and weight >= 0,
                         f"segment {name!r} {group}[{key!r}] must be a "
                         f"finite non-negative number, got {weight!r}")
        background = segment.get("background", 0.0)
        _require(isinstance(background, (int, float))
                 and not isinstance(background, bool)
                 and math.isfinite(background) and background >= 0,
                 f"segment {name!r} background must be a finite "
                 f"non-negative number, got {background!r}")


@dataclass(frozen=True)
class RankingConfig:
    """Everything needed to rank a web graph, in one immutable value.

    Attributes
    ----------
    method:
        Registered ranking method (``"layered"``, ``"flat"``,
        ``"blockrank"``, ``"hits"``, or any plugin name; ``"pagerank"`` is
        accepted as an alias of ``"flat"``).
    damping:
        Damping factor of the (local) rank computations.
    site_damping:
        Damping factor of the SiteRank (defaults to *damping*).
    tol, max_iter:
        Convergence tolerance and iteration budget of the power methods.
    include_site_self_links:
        Whether intra-site links count in the SiteGraph aggregation.
    executor:
        Engine backend: ``"serial"`` (reference), ``"threaded"``, or
        ``"auto"`` (cost-model selection per batch).
    n_jobs:
        Worker count for pooled backends (``None`` = one per CPU), or
        ``"auto"`` as a shorthand for ``executor="auto"``.
    warm_start:
        Whether a :class:`~repro.api.Ranker` carries
        :class:`~repro.engine.WarmStartState` across fits (and can persist
        it with ``save_state`` / ``load_state``).
    cache_size, rule, weight:
        Serving options: result-cache capacity and the query/link
        combination rule and its λ.
    n_peers, architecture, partition_policy:
        Distributed-deployment options consumed by
        :meth:`~repro.api.Ranker.distributed`.
    personalization:
        Optional declarative personalisation segments: a mapping from
        segment name to ``{"sites": {site: weight}, "documents":
        {url: weight}, "background": float}``.  The layered method solves
        all segments as one fused multi-vector pass and the serving layer
        answers ``segment=``-qualified queries from the resulting score
        columns.  ``None`` (the default) disables personalisation.
    """

    method: str = "layered"
    damping: float = DEFAULT_DAMPING
    site_damping: Optional[float] = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    include_site_self_links: bool = False
    executor: str = "serial"
    n_jobs: Optional[Union[int, str]] = None
    warm_start: bool = False
    cache_size: int = 1024
    rule: str = "linear"
    weight: float = 0.5
    n_peers: int = 8
    architecture: str = "flat"
    partition_policy: str = "balanced"
    personalization: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        from .._validation import ensure_damping

        _require(isinstance(self.method, str) and bool(self.method),
                 "method must be a non-empty string")
        _require(isinstance(self.damping, (int, float)),
                 f"damping must be a number, got {self.damping!r}")
        ensure_damping(self.damping, name="damping")
        if self.site_damping is not None:
            _require(isinstance(self.site_damping, (int, float)),
                     f"site_damping must be a number, got {self.site_damping!r}")
            ensure_damping(self.site_damping, name="site_damping")
        _require(isinstance(self.tol, (int, float)) and 0.0 < self.tol < 1.0,
                 f"tol must be in (0, 1), got {self.tol!r}")
        _require(isinstance(self.max_iter, int)
                 and not isinstance(self.max_iter, bool)
                 and self.max_iter >= 1,
                 f"max_iter must be a positive integer, got {self.max_iter!r}")
        _require(isinstance(self.include_site_self_links, bool),
                 "include_site_self_links must be a boolean")
        # The process pool lost to serial on every web measured and was
        # removed; a config that still names it fails rather than being
        # silently remapped to another backend.
        _require(self.executor != "process",
                 "executor='process' is no longer supported: the process "
                 "backend was removed; use executor='threaded'")
        _require(self.executor in EXECUTOR_CHOICES,
                 f"executor must be one of {EXECUTOR_CHOICES}, "
                 f"got {self.executor!r}")
        if self.n_jobs is not None:
            from ..engine.executor import normalize_n_jobs

            normalize_n_jobs(self.n_jobs)
            # Contradictory combinations fail loudly instead of silently
            # winning one way or the other: a worker count on the serial
            # backend would be ignored, and n_jobs='auto' would override
            # an explicitly chosen pooled backend.
            _require(self.n_jobs == "auto" or self.executor != "serial"
                     or self.n_jobs == 1,
                     f"n_jobs={self.n_jobs} has no effect with "
                     f"executor='serial'; pick executor='threaded' or "
                     f"'auto'")
            _require(self.n_jobs != "auto"
                     or self.executor in ("serial", "auto"),
                     f"n_jobs='auto' selects the adaptive backend and "
                     f"cannot be combined with executor="
                     f"{self.executor!r}; set executor='auto' with an "
                     f"integer n_jobs to cap the adaptive pools")
        _require(isinstance(self.warm_start, bool),
                 "warm_start must be a boolean")
        _require(isinstance(self.cache_size, int)
                 and not isinstance(self.cache_size, bool)
                 and self.cache_size >= 1,
                 f"cache_size must be a positive integer, "
                 f"got {self.cache_size!r}")
        _require(self.rule in RULE_CHOICES,
                 f"rule must be one of {RULE_CHOICES}, got {self.rule!r}")
        _require(isinstance(self.weight, (int, float))
                 and 0.0 <= self.weight <= 1.0,
                 f"weight must be in [0, 1], got {self.weight!r}")
        _require(isinstance(self.n_peers, int)
                 and not isinstance(self.n_peers, bool) and self.n_peers >= 1,
                 f"n_peers must be a positive integer, got {self.n_peers!r}")
        _require(self.architecture in ARCHITECTURE_CHOICES,
                 f"architecture must be one of {ARCHITECTURE_CHOICES}, "
                 f"got {self.architecture!r}")
        _require(self.partition_policy in PARTITION_POLICY_CHOICES,
                 f"partition_policy must be one of {PARTITION_POLICY_CHOICES}, "
                 f"got {self.partition_policy!r}")
        if self.personalization is not None:
            _validate_personalization(self.personalization)

    @property
    def segment_names(self) -> tuple:
        """Declared personalisation segment names, in declaration order."""
        if not self.personalization:
            return ()
        return tuple(self.personalization.keys())

    def require_method(self):
        """The registered method callable this config names.

        Raises :class:`ValidationError` (listing what is available) when
        the method is unknown — the run-time half of validation, deferred
        so plugins can register methods after configs referencing them
        were built.
        """
        from .registry import get_method

        return get_method(self.method)

    # ------------------------------------------------------------------ #
    # Derived values
    # ------------------------------------------------------------------ #
    @property
    def effective_site_damping(self) -> float:
        """``site_damping``, defaulted to ``damping``."""
        return self.damping if self.site_damping is None else self.site_damping

    @property
    def wants_auto_backend(self) -> bool:
        """Whether the engine should pick the backend per batch."""
        return self.executor == "auto" or self.n_jobs == "auto"

    def replace(self, **changes: Any) -> "RankingConfig":
        """A copy of this config with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The config as a plain ``{field: value}`` dict (all scalars)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, mapping: Dict[str, Any]) -> "RankingConfig":
        """Build (and validate) a config from a plain mapping.

        Unknown keys are rejected rather than ignored: a typo like
        ``dampling = 0.9`` must fail loudly, not silently fall back to the
        default.  The retired ``batch_sites`` key, which older files carry,
        loads when it asks for what the engine always does (``true``: fuse
        small sites) and is dropped; ``false`` asked for the per-site
        opt-out, which is gone, so it fails.
        """
        if not isinstance(mapping, dict):
            raise ValidationError(
                f"config must be a mapping, got {type(mapping).__name__}")
        mapping = dict(mapping)
        if "batch_sites" in mapping:
            retired = mapping.pop("batch_sites")
            if retired is not True:
                raise ValidationError(
                    f"batch_sites={str(retired).lower()} is no longer "
                    f"supported: the per-site opt-out was removed and small "
                    f"sites are always fused")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValidationError(
                f"unknown config key{'s' if len(unknown) > 1 else ''}: "
                f"{', '.join(unknown)}; known keys: {', '.join(sorted(known))}")
        return cls(**mapping)

    def save(self, path: str | os.PathLike) -> None:
        """Write the config to *path* (``.json`` or ``.toml`` by suffix)."""
        save_config_mapping(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RankingConfig":
        """Read and validate a config file (``.json`` or ``.toml``)."""
        return cls.from_dict(load_config_mapping(path))

    def to_toml(self) -> str:
        """The config as a TOML document (``None`` fields omitted)."""
        from ..io.config_io import dumps_toml

        return dumps_toml(self.to_dict())
