"""The unified :class:`RankingResult` every facade run returns.

All four deployment modes already produce a
:class:`~repro.web.pipeline.WebRankingResult`; this wrapper adds what the
facade is in a position to know and the raw result is not — the exact
config that produced the scores, the wall-clock of the run, and a
provenance record (method, executor, warm start, the web's size and the
package version) — so a result can be logged, compared, and
re-produced without reverse-engineering call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from ..web.pipeline import WebRankingResult
from .config import RankingConfig


@dataclass
class RankingResult:
    """A ranking plus the configuration and provenance that produced it.

    The score-reading surface delegates to the wrapped
    :class:`~repro.web.pipeline.WebRankingResult`, so anything that
    consumed the 1.x result type (metrics, serialisation, the serving
    store) keeps working on ``result.ranking``.
    """

    ranking: WebRankingResult
    config: RankingConfig
    wall_seconds: float = 0.0
    provenance: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock seconds per phase, keyed by the canonical phase names of
    #: :mod:`repro.obs` (``plan.build`` / ``plan.execute`` /
    #: ``plan.compose`` plus ``fit.total`` for the whole call).
    #: ``wall_seconds`` is the back-compat alias of ``timings["fit.total"]``.
    timings: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Delegated score-reading surface
    # ------------------------------------------------------------------ #
    @property
    def scores(self) -> np.ndarray:
        """The global ranking distribution."""
        return self.ranking.scores

    @property
    def doc_ids(self) -> List[int]:
        """Document ids aligned with :attr:`scores`."""
        return self.ranking.doc_ids

    @property
    def urls(self) -> List[str]:
        """URLs aligned with :attr:`scores`."""
        return self.ranking.urls

    @property
    def method(self) -> str:
        """Method tag of the underlying ranking."""
        return self.ranking.method

    @property
    def iterations(self) -> int:
        """Total power iterations of the run."""
        return self.ranking.iterations

    @property
    def n_documents(self) -> int:
        """Number of ranked documents."""
        return self.ranking.n_documents

    def score_of(self, doc_id: int) -> float:
        """Global score of one document id."""
        return self.ranking.score_of(doc_id)

    def scores_by_doc_id(self) -> np.ndarray:
        """Scores re-indexed by document id."""
        return self.ranking.scores_by_doc_id()

    def top_k(self, k: int, *, segment: str | None = None) -> List[int]:
        """The ``k`` best document ids, best first.

        *segment* ranks by that personalisation segment's score column
        instead of the base distribution.
        """
        return self.ranking.top_k(k, segment=segment)

    def top_k_urls(self, k: int, *, segment: str | None = None) -> List[str]:
        """The ``k`` best document URLs, best first."""
        return self.ranking.top_k_urls(k, segment=segment)

    @property
    def segments(self) -> tuple:
        """Personalisation segment names of the run (``()`` when none)."""
        return self.ranking.segments

    def segment_scores(self, segment: str) -> np.ndarray:
        """The named segment's score column, aligned with :attr:`doc_ids`."""
        return self.ranking.segment_scores(segment)

    # ------------------------------------------------------------------ #
    def to_dict(self, *, top_k: int | None = None) -> Dict[str, Any]:
        """A JSON-serialisable record: scores + config + provenance.

        *top_k* truncates the score listing as in
        :func:`repro.io.ranking_to_dict`.
        """
        from ..io.serialization import ranking_to_dict

        return {
            "ranking": ranking_to_dict(self.ranking, top_k=top_k),
            "config": self.config.to_dict(),
            "wall_seconds": self.wall_seconds,
            "timings": dict(self.timings),
            "provenance": dict(self.provenance),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RankingResult(method={self.method!r}, "
                f"n_documents={self.n_documents}, "
                f"iterations={self.iterations}, "
                f"wall_seconds={self.wall_seconds:.3f})")
