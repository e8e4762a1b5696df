"""The hand-built engine tasks the planner's builders replaced.

Before :func:`repro.engine.plan.site_tasks_for`,
:func:`~repro.engine.plan.siterank_task_for` and ``segment_tasks_for``
(since replaced by the layout steps' per-site views and
:func:`~repro.engine.plan.segment_siterank_task_for`) became the only task
constructors, the incremental ranker, the segment pass and the
out-of-core runner each assembled their ``LocalRankTask`` /
``SiteRankTask`` objects and re-aligned their warm vectors by hand.
Those constructors live on here, outside ``src/``, as the oracle of
``test_task_builders.py`` — including the one-vector
``align_warm_start`` they all called column by column.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine.plan import LocalRankTask, SiteRankTask
from repro.web.pipeline import SITERANK_BLOCK


def oracle_align(previous_ids: Sequence, previous_vector: np.ndarray,
                 ids: Sequence) -> Optional[np.ndarray]:
    """The one-vector alignment, as it stood."""
    ids = list(ids)
    if not ids:
        return None
    previous_vector = np.asarray(previous_vector, dtype=float).ravel()
    if len(previous_ids) != previous_vector.size:
        return None
    if list(previous_ids) == ids:
        return previous_vector.copy()
    mass_of = {key: float(value)
               for key, value in zip(previous_ids, previous_vector)}
    if not any(key in mass_of for key in ids):
        return None
    uniform = 1.0 / len(ids)
    start = np.asarray([mass_of.get(key, uniform) for key in ids],
                       dtype=float)
    total = start.sum()
    if total <= 0.0 or not np.isfinite(total):
        return None
    return start / total


def oracle_align_columns(previous_ids: Sequence, previous_matrix: np.ndarray,
                         ids: Sequence) -> Optional[np.ndarray]:
    """K one-vector alignments stacked, all or nothing."""
    columns = [oracle_align(previous_ids, previous_matrix[:, index], ids)
               for index in range(previous_matrix.shape[1])]
    if any(column is None for column in columns):
        return None
    return np.stack(columns, axis=1)


# --------------------------------------------------------------------- #
# IncrementalLayeredRanker._local_task / _siterank_task /
# _segment_local_task / _segment_site_task
# --------------------------------------------------------------------- #
def oracle_local_task(docgraph, site: str, previous, damping: float,
                      tol: float, max_iter: int) -> LocalRankTask:
    """One site's base task, seeded from its cached ``LocalDocRank``."""
    adjacency, doc_ids = docgraph.local_block(site)
    start = (oracle_align(previous.doc_ids, previous.scores, doc_ids)
             if previous is not None else None)
    return LocalRankTask(site=site, adjacency=adjacency,
                         doc_ids=tuple(doc_ids), damping=damping,
                         tol=tol, max_iter=max_iter, start=start)


def oracle_siterank_task(sitegraph, previous, site_damping: float,
                         tol: float, max_iter: int,
                         preference=None) -> SiteRankTask:
    """The SiteRank task, seeded from the cached ``SiteRankResult``."""
    start = (oracle_align(previous.sites, previous.scores, sitegraph.sites)
             if previous is not None else None)
    return SiteRankTask(sitegraph=sitegraph, damping=site_damping,
                        preference=preference, tol=tol, max_iter=max_iter,
                        start=start)


def oracle_segment_local_task(docgraph, site: str, segments, previous,
                              damping: float, tol: float,
                              max_iter: int) -> LocalRankTask:
    """One site's K-column task, seeded from its cached ``SiteColumns``."""
    adjacency, doc_ids = docgraph.local_block(site)
    start = None
    if previous is not None and previous.n_vectors == segments.n_segments:
        start = oracle_align_columns(previous.doc_ids, previous.columns,
                                     doc_ids)
    return LocalRankTask(
        site=site, adjacency=adjacency, doc_ids=tuple(doc_ids),
        damping=damping, preference=segments.document_columns.get(site),
        tol=tol, max_iter=max_iter, start=start,
        n_vectors=segments.n_segments)


def oracle_segment_site_task(sitegraph, segments, previous_state,
                             site_damping: float, tol: float,
                             max_iter: int) -> LocalRankTask:
    """The ``SITERANK_BLOCK`` pseudo-site, seeded from ``(sites, matrix)``."""
    sites = list(sitegraph.sites)
    start = None
    if previous_state is not None:
        previous_sites, previous_matrix = previous_state
        if previous_matrix.shape[1] == segments.n_segments:
            start = oracle_align_columns(previous_sites, previous_matrix,
                                         sites)
    return LocalRankTask(
        site=SITERANK_BLOCK, adjacency=sitegraph.adjacency,
        doc_ids=tuple(range(len(sites))), damping=site_damping,
        preference=segments.site_columns, tol=tol, max_iter=max_iter,
        start=start, n_vectors=segments.n_segments)


# --------------------------------------------------------------------- #
# solve_segment_columns (cold: n_vectors patched on afterwards)
# --------------------------------------------------------------------- #
def oracle_pipeline_segment_tasks(docgraph, sitegraph, segments,
                                  damping: float, site_damping: float,
                                  tol: float, max_iter: int
                                  ) -> List[LocalRankTask]:
    tasks = [replace(oracle_local_task(docgraph, site, None, damping, tol,
                                       max_iter),
                     preference=segments.document_columns.get(site),
                     n_vectors=segments.n_segments)
             for site in sitegraph.sites]
    tasks.append(oracle_segment_site_task(sitegraph, segments, None,
                                          site_damping, tol, max_iter))
    return tasks


# --------------------------------------------------------------------- #
# rank_outofcore's member loop
# --------------------------------------------------------------------- #
def oracle_generation_start(generation, site: str,
                            doc_ids: Sequence[int]) -> Optional[np.ndarray]:
    """``GenerationWarmStart.local_start``: one shard's ids and vector."""
    shards = {str(shard["site"]): shard for shard in generation.shards()}
    if site not in shards:
        return None
    offset, count = int(shards[site]["offset"]), int(shards[site]["count"])
    return oracle_align(
        generation.map_array("doc_ids")[offset:offset + count].tolist(),
        np.array(generation.map_array("local_scores")[offset:offset + count],
                 dtype=float),
        doc_ids)


def oracle_outofcore_unit_tasks(graph, sites: Sequence[str],
                                preferences: Dict[str, np.ndarray],
                                generation, damping: float, tol: float,
                                max_iter: int) -> List[LocalRankTask]:
    tasks = []
    for member in sites:
        adjacency, member_ids = graph.local_block(member)
        doc_ids = tuple(member_ids.tolist())
        start = (oracle_generation_start(generation, member, list(doc_ids))
                 if generation is not None else None)
        tasks.append(LocalRankTask(
            site=member, adjacency=adjacency, doc_ids=doc_ids,
            damping=damping, preference=preferences.get(member),
            tol=tol, max_iter=max_iter, start=start))
    return tasks


# --------------------------------------------------------------------- #
# Field-by-field comparison
# --------------------------------------------------------------------- #
def _assert_same_array(got, want, what: str) -> None:
    if want is None or got is None:
        assert got is None and want is None, what
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what  # bitwise, NaN-safe


def _assert_same_matrix(got, want, what: str) -> None:
    got, want = got.tocsr(), want.tocsr()
    assert got.shape == want.shape, what
    for part in ("indptr", "indices", "data"):
        _assert_same_array(getattr(got, part), getattr(want, part),
                           f"{what}.{part}")


def assert_same_task(got, want) -> None:
    """Every field equal; arrays and materialised adjacency bitwise."""
    assert type(got) is type(want)
    what = f"{type(want).__name__}({getattr(want, 'site', 'siterank')!r})"
    for name in ("damping", "tol", "max_iter"):
        assert getattr(got, name) == getattr(want, name), f"{what}.{name}"
    _assert_same_array(got.start, want.start, f"{what}.start")
    _assert_same_array(got.preference, want.preference,
                       f"{what}.preference")
    if isinstance(want, SiteRankTask):
        assert list(got.sitegraph.sites) == list(want.sitegraph.sites)
        _assert_same_matrix(got.sitegraph.adjacency,
                            want.sitegraph.adjacency, f"{what}.adjacency")
        return
    assert (got.site, got.n_vectors) == (want.site, want.n_vectors), what
    assert isinstance(got.doc_ids, tuple) and got.doc_ids == want.doc_ids
    assert all(type(doc_id) is int for doc_id in got.doc_ids), what
    _assert_same_matrix(got.adjacency, want.adjacency, f"{what}.adjacency")
