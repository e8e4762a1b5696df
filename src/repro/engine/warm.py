"""Warm starts: the one way a start vector reaches an engine task.

Power iteration converges from any starting distribution, but the number of
iterations it needs is governed by the distance between the start vector and
the stationary vector.  After a small change to a site's link structure the
new local DocRank is close to the old one, so seeding the solver with the
previous stationary vector makes refreshes converge in a fraction of the
cold-start iterations — the practical payoff the incremental-update
benchmark (E14) measures.

The **warm-source protocol** is two questions the task builders of
:mod:`repro.engine.plan` ask: ``local_start(site, doc_ids)`` and
``siterank_start(sites)``, each answering a start vector (an ``(n, K)``
matrix for K-column tasks) or ``None`` for a cold start.
:class:`WarmSource` answers both from previous ``(ids, values)`` pairs
through :func:`align_warm_start`, which does the bookkeeping that makes a
cached vector safe to reuse: document sets drift between refreshes (pages
are added), so the previous probability mass is mapped by id and any new
document starts from the uniform share before renormalisation.  Three
things hold such pairs: :class:`WarmStartState` (recorded by plan
executions, persistable), :class:`~repro.engine.outofcore.GenerationWarmStart`
(a published generation's files) and the incremental ranker's factor cache
(wrapped in a plain :class:`WarmSource`, no copies).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ValidationError


def align_warm_start(previous_doc_ids: Sequence[int],
                     previous_vector: np.ndarray,
                     doc_ids: Sequence[int]) -> Optional[np.ndarray]:
    """Re-align a previously converged vector onto a (possibly changed) id set.

    Parameters
    ----------
    previous_doc_ids:
        Document ids the cached vector was computed over, in vector order.
    previous_vector:
        The cached stationary distribution, or an ``(n, K)`` matrix of K
        of them (aligned column by column, all or nothing).
    doc_ids:
        Document ids of the upcoming computation, in vector order.

    Returns
    -------
    A probability distribution over *doc_ids* that reuses the cached mass
    (documents unknown to the cache receive the uniform share ``1/n``), or
    ``None`` when nothing can be reused — the caller then cold-starts.
    """
    doc_ids = list(doc_ids)
    if not doc_ids:
        return None
    previous_vector = np.asarray(previous_vector, dtype=float)
    if previous_vector.ndim != 2:
        previous_vector = previous_vector.ravel()
    if len(previous_doc_ids) != len(previous_vector):
        return None
    if list(previous_doc_ids) == doc_ids:
        # Unchanged document set: reuse the converged values as-is.
        return previous_vector.copy()
    if previous_vector.ndim == 2:
        columns = [align_warm_start(previous_doc_ids, column, doc_ids)
                   for column in previous_vector.T]
        if any(column is None for column in columns):
            return None
        return np.stack(columns, axis=1)
    mass_of = {doc_id: float(value)
               for doc_id, value in zip(previous_doc_ids, previous_vector)}
    if not any(doc_id in mass_of for doc_id in doc_ids):
        return None
    uniform = 1.0 / len(doc_ids)
    start = np.asarray([mass_of.get(doc_id, uniform) for doc_id in doc_ids],
                       dtype=float)
    total = start.sum()
    if total <= 0.0 or not np.isfinite(total):
        return None
    return start / total


#: Previously converged values with the ids they were computed over.
Previous = Tuple[Sequence, np.ndarray]


class WarmSource:
    """Start vectors aligned from previous ``(ids, values)`` pairs.

    *local* maps sites to their pair, *siterank* is the SiteRank's; both
    are held by reference.  Subclasses that keep the pairs elsewhere
    override :meth:`previous_local` / :meth:`previous_siterank`.
    """

    def __init__(self, local: Optional[Mapping[str, Previous]] = None,
                 siterank: Optional[Previous] = None) -> None:
        self._site_vectors = {} if local is None else local
        self._siterank = siterank

    def previous_local(self, site: str) -> Optional[Previous]:
        """One site's previous ``(doc_ids, values)``, or ``None``."""
        return self._site_vectors.get(site)

    def previous_siterank(self) -> Optional[Previous]:
        """The previous ``(sites, values)`` of the SiteRank, or ``None``."""
        return self._siterank

    def local_start(self, site: str,
                    doc_ids: Sequence[int]) -> Optional[np.ndarray]:
        """Start vector for one site's local DocRank (``None`` → cold start)."""
        previous = self.previous_local(site)
        return None if previous is None else align_warm_start(*previous,
                                                              doc_ids)

    def siterank_start(self, sites: Sequence[str]) -> Optional[np.ndarray]:
        """Start vector for the SiteRank (``None`` → cold start).

        Site identifiers play the role document ids play for the local
        vectors: mass is carried over by identifier, new sites get the
        uniform share.
        """
        previous = self.previous_siterank()
        return None if previous is None else align_warm_start(*previous,
                                                              sites)


class WarmStartState(WarmSource):
    """Cached stationary vectors a :class:`~repro.engine.plan.RankingPlan` resumes from.

    The state holds one vector per site (keyed by the site identifier,
    together with the document ids it was computed over) plus the SiteRank
    vector (with its site list).  It is deliberately value-only — no graph
    references — so a single state object can be carried across plan
    executions, shipped between processes, or discarded wholesale.
    """

    # ------------------------------------------------------------------ #
    # Recording converged vectors
    # ------------------------------------------------------------------ #
    def record_local(self, site: str, doc_ids: Sequence[int],
                     vector: np.ndarray) -> None:
        """Remember one site's converged local DocRank."""
        self._site_vectors[site] = (tuple(doc_ids),
                                    np.asarray(vector, dtype=float).copy())

    def record_siterank(self, sites: Sequence[str],
                        vector: np.ndarray) -> None:
        """Remember the converged SiteRank."""
        self._siterank = (tuple(sites),
                          np.asarray(vector, dtype=float).copy())

    def forget_site(self, site: str) -> None:
        """Drop one site's cached vector (no-op when absent)."""
        self._site_vectors.pop(site, None)

    def local_vector(self, site: str
                     ) -> Optional[Tuple[Tuple[int, ...], np.ndarray]]:
        """The exact cached ``(doc_ids, vector)`` of one site, unaligned.

        Unlike :meth:`local_start` this performs no re-alignment or
        renormalisation — it is the recovery accessor the cluster ledger
        uses to restore a persisted result bitwise.
        """
        cached = self._site_vectors.get(site)
        if cached is None:
            return None
        doc_ids, vector = cached
        return doc_ids, vector.copy()

    # ------------------------------------------------------------------ #
    # Persistence (see repro.io.save_warm_state / load_warm_state)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable snapshot of every cached vector.

        The snapshot is value-only (ids and floats), so a restarted
        process can rebuild the state with :meth:`from_dict` and resume
        power iterations from the previous run's vectors.
        """
        return {
            "sites": {
                site: {"doc_ids": list(doc_ids), "vector": vector.tolist()}
                for site, (doc_ids, vector) in self._site_vectors.items()
            },
            "siterank": None if self._siterank is None else {
                "sites": list(self._siterank[0]),
                "vector": self._siterank[1].tolist(),
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WarmStartState":
        """Rebuild a state from a :meth:`to_dict` snapshot."""
        if not isinstance(payload, dict) or not isinstance(
                payload.get("sites"), dict):
            raise ValidationError(
                "warm-start snapshot must be a dict with a 'sites' table")
        state = cls()
        for site, entry in payload["sites"].items():
            try:
                doc_ids = [int(doc_id) for doc_id in entry["doc_ids"]]
                vector = np.asarray(entry["vector"], dtype=float)
            except (KeyError, TypeError, ValueError) as error:
                raise ValidationError(
                    f"malformed warm-start entry for site {site!r}: {error}"
                ) from None
            if len(doc_ids) != vector.size:
                raise ValidationError(
                    f"warm-start entry for site {site!r} has "
                    f"{len(doc_ids)} doc_ids but {vector.size} values")
            state.record_local(site, doc_ids, vector)
        siterank = payload.get("siterank")
        if siterank is not None:
            try:
                sites = [str(site) for site in siterank["sites"]]
                vector = np.asarray(siterank["vector"], dtype=float)
            except (KeyError, TypeError, ValueError) as error:
                raise ValidationError(
                    f"malformed warm-start SiteRank entry: {error}") from None
            if len(sites) != vector.size:
                raise ValidationError(
                    "warm-start SiteRank entry has mismatched lengths")
            state.record_siterank(sites, vector)
        return state

    # ------------------------------------------------------------------ #
    @property
    def n_sites(self) -> int:
        """Number of sites with a cached local vector."""
        return len(self._site_vectors)

    @property
    def has_siterank(self) -> bool:
        """Whether a SiteRank vector is cached."""
        return self._siterank is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WarmStartState(n_sites={self.n_sites}, "
                f"has_siterank={self.has_siterank})")
