"""The 5-step Layered Method for DocRank (Section 3.2) and the flat baseline.

This is the user-facing entry point of the web application layer: given a
:class:`~repro.web.docgraph.DocGraph` it

1. (input) takes the global DocGraph ``G_D``,
2. aggregates the global SiteGraph ``G_S`` (SiteLink counts only),
3. computes every site's local DocRank ``π_D(s)`` (decentralisable),
4. computes the SiteRank ``π_S`` of the SiteGraph,
5. composes the final global DocRank
   ``DocRank(G_D) = (π_S(s_1)·π_D(s_1)', …, π_S(s_NS)·π_D(s_NS)')'``.

The result is returned as a :class:`WebRankingResult` aligned with the
DocGraph's document ids, so it can be compared entry-by-entry with the flat
PageRank baseline (the API facade's ``method="flat"``).

The correspondence with :mod:`repro.core` is direct: the DocGraph induces a
:class:`~repro.core.lmm.LayeredMarkovModel` whose phases are the sites
(:func:`lmm_from_docgraph`), and the pipeline is Approach 4 applied to that
model — a fact the integration tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .. import obs
from .._validation import ensure_doc_id, ensure_top_k, normalize_distribution
from ..exceptions import GraphStructureError, ValidationError
from ..core.lmm import LayeredMarkovModel, Phase
from ..linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from ..linalg.stochastic import transition_matrix
from ..markov.irreducibility import DEFAULT_DAMPING
from ..pagerank.pagerank import pagerank
from ..pagerank.personalized import preference_from_weights
from .docgraph import DocGraph
from .docrank import LocalDocRank, LocalRanks, SiteColumns, best_positions
from .sitegraph import SiteGraph, aggregate_sitegraph
from .siterank import SiteRankResult


@dataclass
class WebRankingResult:
    """A global ranking over all documents of a DocGraph.

    Attributes
    ----------
    doc_ids:
        Document ids in score order position (i.e. ``scores[i]`` is the
        score of document ``doc_ids[i]``); for the layered method this is
        site-major order, for the flat baseline it is plain id order.
    urls:
        URLs aligned with *doc_ids*.
    scores:
        The global ranking distribution.
    method:
        ``"layered"`` or ``"pagerank"`` (or a personalised variant).
    siterank:
        The SiteRank used (layered method only).
    local_docranks:
        The per-site local DocRanks (layered method only), a mapping
        ``site -> LocalDocRank``; a fit's is a
        :class:`~repro.web.docrank.LocalRanks`, whose entries are views
        built on access.
    iterations:
        Total power iterations: for the layered method the sum over sites
        plus the SiteRank iterations, for the flat baseline the global run.
    timings:
        Wall-clock seconds per phase, keyed by the canonical phase names
        of :mod:`repro.obs` (``plan.build`` for steps 1–2,
        ``plan.execute`` for steps 3–4, ``plan.compose`` for step 5,
        ``plan.segments`` for the fused per-segment pass).
        Empty for rankings built outside the layered pipeline.
    segments:
        Names of the personalisation segments solved alongside the base
        ranking (empty when personalisation is off).
    segment_columns:
        ``(n_documents, K)`` matrix of per-segment scores aligned with
        *doc_ids* (one column per entry of *segments*); ``None`` when
        personalisation is off.
    """

    doc_ids: List[int]
    urls: List[str]
    scores: np.ndarray
    method: str
    siterank: Optional[SiteRankResult] = None
    local_docranks: Optional[Mapping[str, LocalDocRank]] = None
    iterations: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    segments: Tuple[str, ...] = ()
    segment_columns: Optional[np.ndarray] = None
    #: ``{doc_id: position}``, built by the first :meth:`score_of` call
    #: (a fit never makes one).
    _position: Optional[Dict[int, int]] = field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not (len(self.doc_ids) == len(self.urls) == self.scores.size):
            raise ValidationError("doc_ids, urls and scores must align")
        self.segments = tuple(self.segments)
        if self.segment_columns is not None:
            self.segment_columns = np.asarray(self.segment_columns,
                                              dtype=float)
            if self.segment_columns.shape != (len(self.doc_ids),
                                              len(self.segments)):
                raise ValidationError(
                    "segment_columns must be (n_documents, n_segments)")
        elif self.segments:
            raise ValidationError(
                "segments named but no segment_columns given")

    @property
    def n_documents(self) -> int:
        """Number of ranked documents."""
        return len(self.doc_ids)

    def score_of(self, doc_id: int) -> float:
        """Global score of a document id."""
        ensure_doc_id(doc_id)
        if self._position is None:
            self._position = {doc: i for i, doc in enumerate(self.doc_ids)}
        try:
            return float(self.scores[self._position[doc_id]])
        except KeyError:
            raise ValidationError(f"unknown document id {doc_id}") from None

    def scores_by_doc_id(self) -> np.ndarray:
        """Scores re-indexed by document id (position ``i`` = document ``i``)."""
        doc_ids = np.asarray(self.doc_ids, dtype=np.int64)
        vector = np.zeros(int(doc_ids.max()) + 1 if doc_ids.size else 0)
        vector[doc_ids] = self.scores
        return vector

    def segment_index(self, segment: str) -> int:
        """Position of a named segment's score column."""
        try:
            return self.segments.index(segment)
        except ValueError:
            raise ValidationError(
                f"unknown segment {segment!r}; available: "
                f"{list(self.segments)!r}") from None

    def segment_scores(self, segment: str) -> np.ndarray:
        """One segment's score column, aligned with :attr:`doc_ids`."""
        if self.segment_columns is None:
            raise ValidationError("ranking has no personalisation segments")
        return self.segment_columns[:, self.segment_index(segment)]

    def _ranking_scores(self, segment: Optional[str]) -> np.ndarray:
        if segment is None:
            return self.scores
        return self.segment_scores(segment)

    def top_k(self, k: int, *, segment: Optional[str] = None) -> List[int]:
        """The ``k`` best document ids, best first (per segment if named).

        Ties keep score order position; *k* is a non-negative integer and
        may exceed the documents ranked.
        """
        positions = best_positions(self._ranking_scores(segment),
                                   ensure_top_k(k))
        return [self.doc_ids[i] for i in positions.tolist()]

    def top_k_urls(self, k: int, *,
                   segment: Optional[str] = None) -> List[str]:
        """The ``k`` best document URLs, best first — the paper's Figure 3/4 lists."""
        positions = best_positions(self._ranking_scores(segment),
                                   ensure_top_k(k))
        return [self.urls[i] for i in positions.tolist()]


def compose_local_ranks(docgraph: DocGraph, site_result: SiteRankResult,
                        local: LocalRanks, *, method: str,
                        iterations: int = 0,
                        site_scores: Optional[np.ndarray] = None,
                        local_docranks: Optional[Mapping] = None
                        ) -> WebRankingResult:
    """Step 5: the ``π_S(s) · π_D(s)`` weighting, one multiply for the web.

    *local* holds every site's local DocRank site-major; each site's range
    is weighted by its SiteRank score (*site_scores*, aligned with
    ``local.sites``; by default ``site_result.scores``, whose sites must
    then be ``local.sites``).  The result carries *local_docranks*, by
    default *local* itself.
    """
    if site_scores is None:
        if list(site_result.sites) != list(local.sites):
            raise ValidationError(
                "the SiteRank and the local DocRanks cover different sites")
        site_scores = site_result.scores
    weighted = local.scores * np.repeat(site_scores, local.sizes)
    # The composition is a probability distribution by Theorem 1; renormalise
    # only to absorb floating point drift.
    scores = normalize_distribution(weighted, name="layered DocRank")
    doc_ids = list(local.doc_ids)
    urls = list(map(docgraph.registry.urls.__getitem__, doc_ids))
    return WebRankingResult(
        doc_ids=doc_ids, urls=urls, scores=scores, method=method,
        siterank=site_result, iterations=iterations,
        local_docranks=local if local_docranks is None else local_docranks)


def compose_ranking(docgraph: DocGraph, sites: List[str],
                    site_result: SiteRankResult,
                    local: Mapping[str, LocalDocRank], *,
                    method: str, iterations: int = 0) -> WebRankingResult:
    """Step 5 over per-site results, in *sites* order.

    Concatenates them into one :func:`compose_local_ranks` call.  Shared
    by the incremental ranker and the distributed coordinators' flat
    aggregation, so every layer composes in the same (site-major) order
    with the same floating point operations as a fit.  (The
    super-peer architecture deliberately composes on the peers and only
    reassembles shards at the coordinator.)
    """
    return compose_local_ranks(
        docgraph, site_result,
        LocalRanks.from_ranks([local[site] for site in sites]),
        method=method, iterations=iterations,
        site_scores=np.array([site_result.score_of(site) for site in sites]),
        local_docranks=local)


#: Pseudo-site key under which the SiteRank block rides a fused segment
#: batch.  NUL is illegal in URLs/host names, so it can never collide with
#: a real site identifier.
SITERANK_BLOCK = "\x00siterank"


@dataclass(frozen=True)
class SegmentPreferences:
    """K personalisation segments lowered to solver-ready preference columns.

    Built once from the declarative ``personalization`` config section by
    :func:`build_segment_preferences`; consumed by the fused multi-vector
    segment pass (:func:`solve_segment_columns`) and by the incremental
    ranker's refresh batches.

    Attributes
    ----------
    names:
        Segment names, in declaration order (the column order everywhere).
    site_columns:
        ``(n_sites, K)`` SiteRank teleport columns, in SiteGraph site
        order.
    document_columns:
        Per-site ``(n_local_docs, K)`` local teleport columns, only for
        sites some segment actually weights; untouched sites solve with
        uniform columns.
    """

    names: Tuple[str, ...]
    site_columns: np.ndarray
    document_columns: Dict[str, np.ndarray]

    @property
    def n_segments(self) -> int:
        """Number of segments K."""
        return len(self.names)


def build_segment_preferences(docgraph: DocGraph, sitegraph: SiteGraph,
                              spec: Mapping[str, Mapping]
                              ) -> SegmentPreferences:
    """Lower a declarative ``personalization`` mapping to preference columns.

    *spec* maps segment names to ``{"sites": {site: weight},
    "documents": {url: weight}, "background": float}`` — the shape
    :class:`repro.api.RankingConfig` validates.  Site weights become the
    segment's SiteRank teleport column; document weights become local
    teleport columns within their owning sites (sharing
    :func:`repro.pagerank.personalized.preference_from_weights` and its
    NaN / negative-weight validation).  Omitted parts stay uniform.
    """
    if not spec:
        raise ValidationError("personalization must name at least one "
                              "segment")
    names = tuple(spec.keys())
    sites = list(sitegraph.sites)
    site_pos = {site: index for index, site in enumerate(sites)}
    n_sites = len(sites)
    site_columns = np.empty((n_sites, len(names)), dtype=float)
    # site -> (n_local, K) built lazily, plus each site's doc_id -> local row.
    document_columns: Dict[str, np.ndarray] = {}
    local_rows: Dict[str, Dict[int, int]] = {}

    for column, name in enumerate(names):
        segment = spec[name] or {}
        background = float(segment.get("background", 0.0))
        site_weights = segment.get("sites") or {}
        if site_weights:
            indexed = {}
            for site, weight in site_weights.items():
                if site not in site_pos:
                    raise ValidationError(
                        f"segment {name!r} weights unknown site {site!r}")
                indexed[site_pos[site]] = weight
            site_columns[:, column] = preference_from_weights(
                n_sites, indexed, background=background)
        else:
            site_columns[:, column] = 1.0 / n_sites

        by_site: Dict[str, Dict[int, float]] = {}
        for url, weight in (segment.get("documents") or {}).items():
            document = docgraph.document_by_url(url)
            by_site.setdefault(document.site, {})[document.doc_id] = weight
        for site, weights in by_site.items():
            if site not in local_rows:
                doc_ids = docgraph.documents_of_site(site)
                local_rows[site] = {doc_id: row
                                    for row, doc_id in enumerate(doc_ids)}
                document_columns[site] = np.full(
                    (len(doc_ids), len(names)),
                    1.0 / len(doc_ids))
            rows = local_rows[site]
            document_columns[site][:, column] = preference_from_weights(
                len(rows), {rows[doc_id]: weight
                            for doc_id, weight in weights.items()},
                background=background)
    return SegmentPreferences(names=names, site_columns=site_columns,
                              document_columns=dict(document_columns))


def ensure_site_columns(result) -> SiteColumns:
    """Adapt an engine result to column form.

    A ``n_vectors == 1`` task deliberately runs the verbatim single-vector
    solver (so the base ranking stays byte-identical) and yields a
    :class:`~repro.web.docrank.LocalDocRank`; the segment machinery is
    written against :class:`~repro.web.docrank.SiteColumns`, so the
    degenerate K=1 case is wrapped here.
    """
    if isinstance(result, SiteColumns):
        return result
    return SiteColumns(site=result.site, doc_ids=result.doc_ids,
                       columns=result.scores[:, None],
                       iterations=result.iterations)


def solve_segment_columns(docgraph: DocGraph, sitegraph: SiteGraph,
                          segments: SegmentPreferences,
                          damping: float = DEFAULT_DAMPING, *,
                          site_damping: Optional[float] = None,
                          tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER,
                          executor=None, n_jobs: Optional[int] = None,
                          ) -> Tuple[np.ndarray, int]:
    """Solve all K segments' score columns in fused multi-vector batches.

    Every site becomes one K-column block of the DocGraph's site-major
    layout, batched like a fit's
    (:func:`repro.engine.plan.solve_segment_layout`); the SiteRank solve
    rides the last batch as just another block (it
    shares the damping factor whenever ``site_damping`` is unset, and the
    batcher fuses it whenever it is small enough).  One matrix sweep per
    batch advances all K segments — the SpMV → SpMM amortisation
    benchmark E17 measures — and the columns are weighted with one
    multiply by the repeated SiteRank columns.

    Returns the ``(n_documents, K)`` score matrix in the site-major
    document order of :func:`compose_ranking`, plus the iteration total.
    """
    from ..engine.plan import solve_segment_layout

    values, iterations, (site_values, site_iterations) = solve_segment_layout(
        docgraph, sitegraph, segments, damping, site_damping=site_damping,
        tol=tol, max_iter=max_iter, executor=executor, n_jobs=n_jobs)
    # A block solved as one column (every preference uniform, or K = 1)
    # carries it for every segment.
    site_scores = np.broadcast_to(
        site_values.reshape(len(sitegraph.sites), -1),
        (len(sitegraph.sites), segments.n_segments))
    matrix = values.reshape(values.shape[0], -1) * np.repeat(
        site_scores, np.diff(docgraph.site_blocks().offsets), axis=0)
    totals = matrix.sum(axis=0)
    matrix = matrix / np.where(totals > 0.0, totals, 1.0)
    return matrix, int(site_iterations + iterations.sum())


def _layered_docrank(docgraph: DocGraph, damping: float = DEFAULT_DAMPING, *,
                     site_damping: Optional[float] = None,
                     site_preference: Optional[np.ndarray] = None,
                     document_preferences: Optional[Dict[str, np.ndarray]] = None,
                     include_site_self_links: bool = False,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     executor=None, n_jobs: Optional[int] = None,
                     warm=None,
                     personalization: Optional[Mapping] = None,
                     ) -> WebRankingResult:
    """Run the full 5-step Layered Method for DocRank on a DocGraph.

    The method is executed as a :class:`repro.engine.RankingPlan`: step 3's
    fused batches (cut from the DocGraph's site-major layout) and
    dedicated large-site tasks run with step 4's SiteRank task as one
    concurrent batch, and step 5 composes the site-major result at the
    batch's barrier with one multiply (:func:`compose_local_ranks`).  On
    a process backend the run builds one shared-memory
    :class:`~repro.engine.arena.GraphArena` for the batch — the packed
    matrices and the SiteGraph are laid into it once, workers attach
    zero-copy, and the arena is unlinked at the barrier — so dispatch
    cost does not scale with the web's size.

    Parameters
    ----------
    damping:
        Damping factor of the per-site local DocRanks (the ``α`` of the
        gatekeeper construction).
    site_damping:
        Damping factor of the SiteRank computation (defaults to *damping*).
    site_preference:
        Optional site-layer personalisation distribution (over sites in
        DocGraph site order).
    document_preferences:
        Optional per-site document-layer personalisation vectors.
    include_site_self_links:
        Whether intra-site links count in the SiteGraph aggregation (see
        :func:`repro.web.sitegraph.aggregate_sitegraph`).
    executor / n_jobs:
        Execution backend for the concurrent batch, resolved by
        :func:`repro.engine.resolve_executor`; serial when both omitted,
        a process pool of ``n_jobs`` workers when ``n_jobs > 1``.
    warm:
        Optional :class:`repro.engine.WarmStartState` to resume power
        iterations from (and record the converged vectors into).
    personalization:
        Optional declarative segment mapping (the shape
        :class:`repro.api.RankingConfig` validates).  The base ranking is
        computed exactly as without it; the K segments are then solved as
        one fused multi-vector pass and attached as score columns.
    """
    from ..engine.plan import RankingPlan

    if docgraph.n_documents == 0:
        raise GraphStructureError("cannot rank an empty DocGraph")

    # Steps 1–2 (input + SiteGraph aggregation) happen at plan build time;
    # steps 3–4 run concurrently inside execute(); step 5 composes below.
    build_started = perf_counter()
    plan = RankingPlan.from_docgraph(
        docgraph, damping, site_damping=site_damping,
        site_preference=site_preference,
        document_preferences=document_preferences,
        include_site_self_links=include_site_self_links,
        tol=tol, max_iter=max_iter)
    build_seconds = perf_counter() - build_started
    execution = plan.execute(executor=executor, n_jobs=n_jobs, warm=warm)

    method = "layered"
    if site_preference is not None or document_preferences:
        method = "layered-personalized"
    compose_started = perf_counter()
    with obs.span(obs.PHASE_PLAN_COMPOSE):
        result = compose_local_ranks(docgraph, execution.siterank,
                                     execution.local, method=method,
                                     iterations=execution.total_iterations)
    result.timings = {
        obs.PHASE_PLAN_BUILD: build_seconds,
        obs.PHASE_PLAN_EXECUTE: execution.wall_seconds,
        obs.PHASE_PLAN_COMPOSE: perf_counter() - compose_started,
    }

    if personalization:
        segments_started = perf_counter()
        with obs.span(obs.PHASE_PLAN_SEGMENTS):
            segments = build_segment_preferences(docgraph, plan.sitegraph,
                                                 personalization)
            columns, segment_iterations = solve_segment_columns(
                docgraph, plan.sitegraph, segments, damping,
                site_damping=site_damping, tol=tol, max_iter=max_iter,
                executor=executor, n_jobs=n_jobs)
        result.segments = segments.names
        result.segment_columns = columns
        result.iterations += segment_iterations
        result.timings[obs.PHASE_PLAN_SEGMENTS] = (
            perf_counter() - segments_started)
    return result


def _flat_pagerank_ranking(docgraph: DocGraph,
                           damping: float = DEFAULT_DAMPING, *,
                           preference: Optional[np.ndarray] = None,
                           tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER) -> WebRankingResult:
    """The flat (classical PageRank) baseline over the same DocGraph.

    This is the ranking the paper's Figure 3 reports and that Figure 4's
    layered ranking is compared against.
    """
    if docgraph.n_documents == 0:
        raise GraphStructureError("cannot rank an empty DocGraph")
    result = pagerank(docgraph.adjacency(), damping=damping,
                      preference=preference, tol=tol, max_iter=max_iter)
    doc_ids = list(range(docgraph.n_documents))
    urls = docgraph.urls()
    return WebRankingResult(doc_ids=doc_ids, urls=urls, scores=result.scores,
                            method="pagerank", iterations=result.iterations)


def lmm_from_docgraph(docgraph: DocGraph, *,
                      include_site_self_links: bool = False,
                      site_damping: float = DEFAULT_DAMPING,
                      ) -> LayeredMarkovModel:
    """Build the :class:`LayeredMarkovModel` induced by a DocGraph.

    Phases are the web sites; each phase's sub-state transition matrix is the
    row-normalised local link matrix (dangling pages jump uniformly within
    the site); the phase transition matrix is the *primitive* transition
    matrix ``M̂(G_S)`` of the SiteGraph, which is what Theorem 2 requires.

    The integration tests use this to check that
    the layered pipeline coincides with
    :func:`repro.core.layered_method.approach_4` on the induced model.
    """
    from ..markov.irreducibility import maximal_irreducibility

    sitegraph = aggregate_sitegraph(docgraph,
                                    include_self_links=include_site_self_links)
    site_transition = transition_matrix(sitegraph.adjacency,
                                        dangling="uniform")
    primitive_site_matrix = maximal_irreducibility(site_transition,
                                                   site_damping)
    phases, urls = [], docgraph.registry.urls
    for site in sitegraph.sites:
        local_adjacency, doc_ids = docgraph.local_adjacency(site)
        local_transition = transition_matrix(local_adjacency,
                                             dangling="uniform")
        dense = (local_transition.toarray()
                 if hasattr(local_transition, "toarray")
                 else np.asarray(local_transition, dtype=float))
        phases.append(Phase(name=site, transition=dense,
                            sub_state_names=[urls[d] for d in doc_ids]))
    return LayeredMarkovModel(phases=phases,
                              phase_transition=primitive_site_matrix)
