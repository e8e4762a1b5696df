"""JSON serialisation of rankings and experiment reports.

The benchmark harness writes its measured rows to JSON (under
``benchmarks/results/``) so that quoted numbers trace to concrete artefacts
and downstream tooling (plotting, regression tracking) can consume them
without re-running the benchmarks.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..exceptions import ValidationError
from ..web.pipeline import WebRankingResult


def _jsonable(value: Any) -> Any:
    """Convert numpy / dataclass values into plain JSON-compatible types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(item) for item in value]
    return value


def ranking_to_dict(result: WebRankingResult, *, top_k: int | None = None,
                    ) -> Dict[str, Any]:
    """Convert a :class:`WebRankingResult` into a JSON-serialisable dict.

    Parameters
    ----------
    top_k:
        When given, only the best *top_k* entries are included (keeps the
        files small for large graphs); the full score vector is omitted in
        that case.
    """
    if top_k is not None:
        if top_k <= 0:
            raise ValidationError("top_k must be positive")
        order = result.top_k(top_k)
        return {
            "method": result.method,
            "n_documents": result.n_documents,
            "iterations": result.iterations,
            "top": [
                {"doc_id": doc_id,
                 "url": result.urls[result.doc_ids.index(doc_id)],
                 "score": result.score_of(doc_id)}
                for doc_id in order
            ],
        }
    return {
        "method": result.method,
        "n_documents": result.n_documents,
        "iterations": result.iterations,
        "doc_ids": list(result.doc_ids),
        "urls": list(result.urls),
        "scores": result.scores.tolist(),
    }


def save_json(payload: Any, path: str | os.PathLike, *,
              atomic: bool = False, indent: Optional[int] = 2) -> None:
    """Write any library object (dataclasses / numpy included) as JSON.

    With ``atomic=True`` the payload is written to a sibling temporary
    file, flushed to disk, and renamed over *path* in one
    :func:`os.replace` step — so a crash mid-save can never leave a torn
    file behind: readers see either the complete previous contents or the
    complete new ones.  The parent directory is fsynced after the rename,
    making the *rename itself* durable: without it a power loss can roll
    the directory entry back to the old file even though the new bytes
    were synced.  State files that a restarted process must be able to
    trust (:func:`save_warm_state`, ``repro serve --state``, the disk-graph
    and artifact-store manifests) use this.  ``indent=None`` writes the
    payload on one line (the job ledger's header).
    """
    if not atomic:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_jsonable(payload), handle, indent=indent, sort_keys=True)
            handle.write("\n")
        return
    path = os.fspath(path)
    # The temporary must live in the target's directory (os.replace is
    # only atomic within one filesystem) and carry a unique name
    # (mkstemp), so concurrent savers of the same path each write their
    # own complete file and the last rename wins — never an interleaving.
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=os.path.basename(path) + ".tmp.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(_jsonable(payload), handle, indent=indent, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    # Durability of the rename: the directory entry for *path* lives in
    # the directory's own blocks, which os.fsync on the file does not
    # touch.  Some platforms refuse to fsync a directory fd (or to open
    # one at all) — there the rename is still atomic, just not
    # power-loss-durable, so degrade silently.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir opens
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(dir_fd)


def load_json(path: str | os.PathLike) -> Any:
    """Read a JSON file written by :func:`save_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_warm_state(state, path: str | os.PathLike) -> None:
    """Persist a :class:`~repro.engine.warm.WarmStartState` as JSON.

    A restarted process can :func:`load_warm_state` the file and resume
    power iterations from the previous run's converged vectors — the
    ``repro serve --state`` startup path and
    :meth:`repro.api.Ranker.save_state` both write this format.

    The write is write-then-rename (``atomic=True``): a crash mid-save
    leaves the previous state file intact instead of a torn one the next
    startup would refuse to parse.
    """
    save_json(state.to_dict(), path, atomic=True)


def load_warm_state(path: str | os.PathLike):
    """Read a :func:`save_warm_state` file back into a ``WarmStartState``."""
    from ..engine.warm import WarmStartState

    payload = load_json(path)
    if not isinstance(payload, dict):
        raise ValidationError(
            f"warm-state file {os.fspath(path)!r} must contain a JSON object")
    return WarmStartState.from_dict(payload)


def experiment_rows_to_markdown(rows: List[Dict[str, Any]],
                                columns: List[str]) -> str:
    """Render benchmark rows as a GitHub-flavoured markdown table.

    Used by the benchmark harness to print paper-style tables.
    """
    if not columns:
        raise ValidationError("columns must not be empty")
    header = "| " + " | ".join(columns) + " |"
    separator = "| " + " | ".join("---" for _ in columns) + " |"
    lines = [header, separator]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.4g}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
