"""The per-site generation writer the unit-at-a-time writer replaced.

Before :meth:`repro.io.artifacts.GenerationWriter.append_sites`, the
out-of-core round decoded every URL of a site to ``str``
(``DiskGraph.urls_of_positions``), handed the site to ``append_site``,
which re-encoded and wrote each URL with its own ``write`` call, and
``finalize`` scattered ``doc_position`` and lexsorted ``order`` one shard
at a time.  That loop, writer and URL reader live on here, copied
unchanged apart from being lifted out of their classes, as the byte-level
oracle of ``test_generation_oracle.py``: a generation written by
:func:`oracle_rank` must equal :func:`repro.engine.rank_outofcore`'s file
for file, ``manifest.json`` included.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine import outofcore
from repro.engine.outofcore import GenerationWarmStart
from repro.engine.plan import (
    BatchedSiteTask,
    collect_site_results,
    site_tasks_for,
    siterank_task_for,
)
from repro.exceptions import NotADistributionError, ValidationError
from repro.io.artifacts import (
    FORMAT_VERSION,
    GENERATION_FORMAT,
    GENERATION_MANIFEST,
    RankedGeneration,
    _array_file,
)
from repro.io.serialization import save_json
from repro.linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from repro.markov.irreducibility import DEFAULT_DAMPING

_CHUNK_ELEMENTS = 1 << 20


def oracle_urls(graph, doc_ids: Sequence[int]) -> List[str]:
    """``DiskGraph.urls_of_positions`` as it stood: one decode per URL."""
    ids = np.asarray(doc_ids, dtype=np.int64).ravel()
    if ids.size == 0:
        return []
    graph._check_doc_id(ids.min())
    graph._check_doc_id(ids.max())
    documents = graph._manifest["documents"]
    offsets = graph._map(documents["url_offsets"])
    # A plain view: slicing a memmap per document costs more than the
    # read it performs.
    blob = np.asarray(graph._map(documents["url_blob"]))
    starts, ends = offsets[ids].tolist(), offsets[ids + 1].tolist()
    if starts[1:] == ends[:-1]:
        # Adjacent byte ranges (consecutive ids): one read.
        base = starts[0]
        raw = blob[base:ends[-1]].tobytes()
        return [raw[start - base:end - base].decode("utf-8")
                for start, end in zip(starts, ends)]
    return [blob[start:end].tobytes().decode("utf-8")
            for start, end in zip(starts, ends)]


class OracleGenerationWriter:
    """``GenerationWriter`` as it stood: one site per append."""

    def __init__(self, path: str | os.PathLike, *, method: str,
                 n_documents: int) -> None:
        if n_documents <= 0:
            raise ValidationError("n_documents must be positive")
        self._path = os.fspath(path)
        os.makedirs(self._path, exist_ok=True)
        self._method = method
        self._n_documents = int(n_documents)
        self._handles = {
            name: open(os.path.join(self._path, _array_file(name)), "wb")
            for name in ("scores", "local_scores", "doc_ids",
                         "urls", "url_offsets")}
        self._handles["url_offsets"].write(
            np.zeros(1, dtype=np.int64).tobytes())
        self._url_cursor = 0
        self._cursor = 0
        self._shards: List[dict] = []
        self._seen_sites: set = set()
        self._finalized = False

    def append_site(self, site: str, doc_ids: Sequence[int],
                    urls: Sequence[str], local_scores: np.ndarray,
                    site_score: float, iterations: int) -> None:
        """Write one site's block (in site order — site-major layout)."""
        if self._finalized:
            raise ValidationError("generation writer is already finalized")
        if site in self._seen_sites:
            raise ValidationError(f"site {site!r} appended twice")
        local_scores = np.asarray(local_scores, dtype=float).ravel()
        ids = np.asarray(doc_ids, dtype=np.int64).ravel()
        if not (ids.size == len(urls) == local_scores.size):
            raise ValidationError(
                f"site {site!r}: doc_ids, urls and scores must align")
        if self._cursor + ids.size > self._n_documents:
            raise ValidationError(
                f"site {site!r} overflows the declared "
                f"{self._n_documents} documents")
        if ids.size and (int(ids.min()) < 0
                         or int(ids.max()) >= self._n_documents):
            raise ValidationError(
                f"site {site!r} has document ids outside "
                f"[0, {self._n_documents})")
        # The same composition op compose_ranking performs per block.
        weighted = float(site_score) * local_scores
        weighted.tofile(self._handles["scores"])
        local_scores.tofile(self._handles["local_scores"])
        ids.tofile(self._handles["doc_ids"])
        offsets = np.empty(len(urls), dtype=np.int64)
        for index, url in enumerate(urls):
            blob = url.encode("utf-8")
            self._handles["urls"].write(blob)
            self._url_cursor += len(blob)
            offsets[index] = self._url_cursor
        offsets.tofile(self._handles["url_offsets"])
        self._seen_sites.add(site)
        self._shards.append({"site": site, "offset": self._cursor,
                             "count": int(ids.size),
                             "site_score": float(site_score),
                             "iterations": int(iterations)})
        self._cursor += int(ids.size)

    def abort(self) -> None:
        """Close the partial files (the generation is never published)."""
        self._finalized = True
        for handle in self._handles.values():
            handle.close()

    def finalize(self, *, siterank_sites: Sequence[str],
                 siterank_scores: Sequence[float],
                 siterank_iterations: int, siterank_damping: float,
                 iterations: int = 0) -> RankedGeneration:
        """Normalise, index, and write the generation manifest."""
        if self._finalized:
            raise ValidationError("generation writer is already finalized")
        if self._cursor != self._n_documents:
            raise ValidationError(
                f"generation covers {self._cursor} documents, "
                f"declared {self._n_documents}")
        self._finalized = True
        for handle in self._handles.values():
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()

        scores_path = os.path.join(self._path, _array_file("scores"))
        scores = np.memmap(scores_path, dtype=np.float64, mode="r+")
        # Bitwise the in-memory normalize_distribution(concatenated):
        # one pairwise sum over the whole contiguous array, then an
        # elementwise divide by that scalar (chunked — same per-element op).
        if float(scores.min()) < 0.0:
            raise NotADistributionError("layered DocRank has negative entries")
        total = float(np.sum(scores))
        if total <= 0.0:
            raise NotADistributionError(
                "layered DocRank sums to zero; cannot normalise")
        for start in range(0, scores.size, _CHUNK_ELEMENTS):
            chunk = scores[start:start + _CHUNK_ELEMENTS]
            scores[start:start + _CHUNK_ELEMENTS] = chunk / total
        scores.flush()

        doc_ids = np.memmap(os.path.join(self._path, _array_file("doc_ids")),
                            dtype=np.int64, mode="r")
        position = np.memmap(
            os.path.join(self._path, _array_file("doc_position")),
            dtype=np.int64, mode="w+", shape=(self._n_documents,))
        order = np.memmap(os.path.join(self._path, _array_file("order")),
                          dtype=np.int64, mode="w+",
                          shape=(self._n_documents,))
        covered = 0
        for shard in self._shards:
            start, count = shard["offset"], shard["count"]
            ids = np.asarray(doc_ids[start:start + count])
            position[ids] = np.arange(start, start + count, dtype=np.int64)
            covered += count
            # The exact _Shard order: descending score, ties by doc id.
            block = np.asarray(scores[start:start + count])
            order[start:start + count] = np.lexsort((ids, -block))
        if covered != self._n_documents:
            raise ValidationError("shards do not cover every document")
        position.flush()
        order.flush()
        del scores, doc_ids, position, order

        manifest = {
            "format": GENERATION_FORMAT,
            "version": FORMAT_VERSION,
            "method": self._method,
            "n_documents": self._n_documents,
            "iterations": int(iterations),
            "shards": self._shards,
            "siterank": {
                "sites": list(siterank_sites),
                "scores": [float(score) for score in siterank_scores],
                "iterations": int(siterank_iterations),
                "damping": float(siterank_damping),
            },
        }
        save_json(manifest, os.path.join(self._path, GENERATION_MANIFEST),
                  atomic=True)
        return RankedGeneration(self._path)


def oracle_rank(graph, path: str | os.PathLike,
                damping: float = DEFAULT_DAMPING, *,
                site_damping: Optional[float] = None,
                site_preference: Optional[np.ndarray] = None,
                tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                warm: Optional[RankedGeneration] = None) -> RankedGeneration:
    """``rank_outofcore``'s per-site loop as it stood, into *path*.

    The schedule comes from ``outofcore.plan_solve_units`` looked up at
    call time, so a test that narrows ``fuse_schedule`` narrows both
    sides.  Nothing is published: the generation directory is the output.
    """
    seed = GenerationWarmStart(warm) if warm is not None else None
    common = {"tol": tol, "max_iter": max_iter, "warm": seed}
    sites = graph.sites()

    site_result = siterank_task_for(
        graph.sitegraph(), damping if site_damping is None else site_damping,
        preference=site_preference, **common).run()

    preferences: Dict[str, np.ndarray] = {}
    for site in sites:
        preference = graph.preference(site)
        if preference is not None:
            preferences[site] = preference
    method = ("layered-personalized"
              if site_preference is not None or preferences else "layered")

    unit_of = {site: unit
               for unit in outofcore.plan_solve_units(sites,
                                                      graph.site_sizes())
               for site in unit.sites}
    writer = OracleGenerationWriter(path, method=method,
                                    n_documents=graph.n_documents)
    solved: Dict[str, object] = {}
    iterations = site_result.iterations
    for site in sites:
        if site not in solved:
            unit = unit_of[site]
            payload = site_tasks_for(graph, damping, sites=unit.sites,
                                     preferences=preferences, **common)
            if unit.kind == "fused":
                payload = [BatchedSiteTask.from_tasks(payload)]
            solved.update(collect_site_results(
                payload, [task.run() for task in payload]))
            del payload
        rank = solved.pop(site)
        writer.append_site(site, rank.doc_ids,
                           oracle_urls(graph, rank.doc_ids),
                           rank.scores, site_result.score_of(site),
                           rank.iterations)
        iterations += rank.iterations
    return writer.finalize(
        siterank_sites=site_result.sites,
        siterank_scores=site_result.scores,
        siterank_iterations=site_result.iterations,
        siterank_damping=site_result.damping,
        iterations=iterations)
