"""Durable job ledger of the cluster coordinator.

The ledger is the coordinator's crash recovery: a JSON-lines file of one
header (format version, graph digest, solver parameters, sites) and then
one line per assignment message, per result (with the site's converged
vector; JSON floats round-trip exactly through ``repr``) and at the
round's end — each appended and fsynced before its call returns, so a
round writes each vector once.  A restarted coordinator replays the file:
done sites come back *bitwise*, only pending sites are scheduled, and a
torn last line (a crash mid-append) is cut off, so its site is recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..engine.warm import WarmStartState
from ..exceptions import ProtocolError
from ..io import save_json

#: Job states a site moves through.  ``pending`` covers both "never
#: assigned" and "assigned but no result yet" — the ``peer`` field tells
#: them apart; a coordinator restart re-assigns either kind.
STATE_PENDING = "pending"
STATE_DONE = "done"

LEDGER_VERSION = 2


def score_digest(scores: Sequence[float]) -> str:
    """A short digest of a result vector (ledger bookkeeping, not proof)."""
    array = np.asarray(scores, dtype=float)
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


class JobLedger:
    """Assignment → state → result-digest registry for one ranking round.

    Parameters
    ----------
    path:
        The ledger file, or ``None`` for a purely in-memory ledger (the
        simulator, and the coordinator without ``--ledger``: same
        bookkeeping, no durability).
    graph_digest:
        :func:`repro.io.docgraph_digest` of the web being ranked.
    params:
        Solver parameters of the round (damping, tol, max_iter, …); a
        resume under different parameters must not reuse old vectors, so
        a mismatch discards the previous state.
    sites:
        Every site of the round.
    """

    def __init__(self, path: Optional[str | os.PathLike], *,
                 graph_digest: str, params: Dict[str, object],
                 sites: Sequence[str]) -> None:
        self.path = None if path is None else os.fspath(path)
        self.graph_digest = graph_digest
        self.params = {key: params[key] for key in sorted(params)}
        self.jobs: Dict[str, Dict[str, object]] = {
            site: {"state": STATE_PENDING, "peer": None,
                   "iterations": None, "digest": None}
            for site in sites
        }
        self.warm = WarmStartState()
        self.resumed_sites: List[str] = []

    @classmethod
    def open(cls, path: Optional[str | os.PathLike], *, graph_digest: str,
             params: Dict[str, object],
             sites: Sequence[str]) -> "JobLedger":
        """Open (resuming) or create the ledger for a round.

        An existing ledger is resumed only when its header describes the
        same graph, the same parameters and the same site set, *and* the
        previous round did not complete; anything else (another format
        version included) starts fresh — a completed ledger means the
        caller wants a new round, a mismatched one would poison the
        results.  An unreadable header or an unreadable line before the
        last is a :class:`~repro.exceptions.ProtocolError`.
        """
        ledger = cls(path, graph_digest=graph_digest, params=params,
                     sites=sites)
        if ledger.path is None or (os.path.exists(ledger.path)
                                   and ledger._replay()):
            return ledger
        ledger = cls(path, graph_digest=graph_digest, params=params,
                     sites=sites)
        save_json({"version": LEDGER_VERSION, "graph_digest": graph_digest,
                   "params": ledger.params, "sites": list(ledger.jobs)},
                  ledger.path, atomic=True, indent=None)
        return ledger

    # ------------------------------------------------------------------ #
    def record_assignment(self, sites: Sequence[str], peer: str) -> None:
        """Note which peer now owns the pending *sites* (one message)."""
        for site in sites:
            self._job(site)["peer"] = peer
        self._append({"assign": peer, "sites": list(sites)})

    def record_result(self, site: str, peer: str, doc_ids: Sequence[int],
                      scores: Sequence[float], iterations: int) -> None:
        """Mark a site done; its line carries the vector that proves it."""
        self._done(site, peer, doc_ids, scores, int(iterations))
        self._append({"result": site, "peer": peer,
                      "iterations": int(iterations),
                      "doc_ids": [int(doc) for doc in doc_ids],
                      "scores": [float(score) for score in scores]})

    def mark_complete(self) -> None:
        """Seal the round; the next :meth:`open` starts fresh."""
        self._append({"completed": True})

    # ------------------------------------------------------------------ #
    def pending_sites(self) -> List[str]:
        """Sites still needing a local DocRank, in ledger (site) order."""
        return [site for site, job in self.jobs.items()
                if job["state"] == STATE_PENDING]

    def done_sites(self) -> List[str]:
        """Sites whose result is durable, in ledger (site) order."""
        return [site for site, job in self.jobs.items()
                if job["state"] == STATE_DONE]

    def owner_of(self, site: str) -> Optional[str]:
        """The peer currently recorded against a site (may be ``None``)."""
        return self._job(site)["peer"]  # type: ignore[return-value]

    def iterations_of(self, site: str) -> int:
        """Recorded power iterations of a done site."""
        job = self._job(site)
        if job["state"] != STATE_DONE:
            raise ProtocolError(f"site {site!r} has no recorded result")
        return int(job["iterations"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    def _replay(self) -> bool:
        """Replay the file into this ledger; ``False`` to start fresh."""
        with open(self.path, "rb") as handle:
            data = handle.read()
        lines = data.split(b"\n")
        try:
            header = json.loads(lines[0])
        except ValueError:
            try:  # a version-1 ledger is one indented JSON document
                header = json.loads(data)
            except ValueError as error:
                raise ProtocolError(
                    f"corrupt job ledger {self.path}: {error}") from None
        if (not isinstance(header, dict)
                or header.get("version") != LEDGER_VERSION
                or header.get("graph_digest") != self.graph_digest
                or header.get("params") != self.params
                or set(header.get("sites", ())) != set(self.jobs)):
            return False
        for number, line in enumerate(lines[1:-1], start=2):
            try:
                record = json.loads(line)
                if record.get("completed"):
                    return False
                if "assign" in record:
                    for site in record["sites"]:
                        self._job(site)["peer"] = record["assign"]
                else:
                    self._done(record["result"], record["peer"],
                               record["doc_ids"], record["scores"],
                               int(record["iterations"]))
            except (ValueError, KeyError, TypeError, AttributeError,
                    ProtocolError) as error:
                raise ProtocolError(f"corrupt job ledger {self.path} line "
                                    f"{number}: {error}") from None
        if len(lines) > 1 and lines[-1]:
            # A torn last append: cut it off, so its site stays pending.
            with open(self.path, "r+b") as handle:
                handle.truncate(len(data) - len(lines[-1]))
        self.resumed_sites = self.done_sites()
        return True

    def _done(self, site: str, peer: str, doc_ids: Sequence[int],
              scores: Sequence[float], iterations: int) -> None:
        job = self._job(site)
        self.warm.record_local(site, doc_ids, np.asarray(scores, dtype=float))
        job.update(state=STATE_DONE, peer=peer, iterations=iterations,
                   digest=score_digest(scores))

    def _append(self, record: Dict[str, object]) -> None:
        """Append one line, durable before the call returns."""
        if self.path is None:
            return
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _job(self, site: str) -> Dict[str, object]:
        try:
            return self.jobs[site]
        except KeyError:
            raise ProtocolError(
                f"ledger has no job for site {site!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"JobLedger(path={self.path!r}, "
                f"done={len(self.done_sites())}/{len(self.jobs)})")
