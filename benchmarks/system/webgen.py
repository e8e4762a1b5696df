"""Seeded input generator of the system benchmark: webs, queries, updates.

The program under test only ever sees what this module writes or yields —
a URL edge-list file, request paths and update URL pairs.  Everything is
numpy-vectorised (``repro.graphgen.generate_synthetic_web`` spends ~90 s
on a 100k-document web, which would eat the run and pollute
``peak_rss_mib``) and the edge list is streamed to disk in chunks.

The *shape* of a web (document, link and site counts, the multiset of
site sizes) is a pure function of its :class:`WebSpec`; the seed only
decides which links exist.  Runs with different seeds therefore measure
the same amount of work, which keeps the across-seed spread of a metric
close to its run-to-run noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Edge-list lines written per chunk (bounds the generator's memory).
WRITE_CHUNK_EDGES = 65_536

#: Words of ``repro.ir.corpus.synthesize_corpus`` texts (its topic and
#: background vocabularies), so every query term retrieves candidates.
QUERY_WORDS = (
    "research database publication project grant "
    "teaching course lecture exam student "
    "admission application enrol bachelor master "
    "laboratory experiment measurement instrument sensor "
    "library archive journal catalogue collection "
    "campus building map restaurant transport "
    "software documentation api release download "
    "news event press announcement anniversary "
    "university page information contact home web site link search welcome"
).split()


@dataclass(frozen=True)
class WebSpec:
    """Shape of a generated web.

    ``pareto_shape`` is the tail index of the site-size law (sizes are its
    quantiles scaled to sum to ``n_documents``, so they do not depend on
    the seed); ``0`` means equal-sized sites.  ``tiny_sites`` of the sites
    stand outside the law with ``TINY_SITE_DOCUMENTS`` pages each.
    ``inter_share`` is the share of links that cross sites.
    """

    n_documents: int
    n_sites: int
    n_links: int
    pareto_shape: float = 1.6
    tiny_sites: int = 0
    inter_share: float = 0.05


TINY_SITE_DOCUMENTS = 20


def site_sizes(spec: WebSpec) -> np.ndarray:
    """Documents per site: deterministic, every site >= 2, sums exactly."""
    if spec.tiny_sites:
        tiny = np.full(spec.tiny_sites, TINY_SITE_DOCUMENTS, dtype=np.int64)
        rest = WebSpec(spec.n_documents - int(tiny.sum()),
                       spec.n_sites - spec.tiny_sites, spec.n_links,
                       spec.pareto_shape)
        return np.concatenate((tiny, site_sizes(rest)))
    n_sites = spec.n_sites
    if spec.n_documents < 2 * n_sites:
        raise ValueError("need at least two documents per site")
    if spec.pareto_shape > 0:
        quantiles = (np.arange(n_sites) + 0.5) / n_sites
        raw = (1.0 - quantiles) ** (-1.0 / spec.pareto_shape)
    else:
        raw = np.ones(n_sites)
    spare = spec.n_documents - 2 * n_sites
    sizes = 2 + np.floor(raw / raw.sum() * spare).astype(np.int64)
    # Hand the rounding remainder to the largest sites, one document each.
    remainder = spec.n_documents - int(sizes.sum())
    sizes[n_sites - remainder:] += 1
    return sizes


def site_host(site: int) -> str:
    """Host name (= site identifier) of generated site *site*."""
    return f"s{site:05d}.bench.test"


@dataclass
class GeneratedWeb:
    """What :func:`write_web` produced, for building requests and checks."""

    spec: WebSpec
    path: str
    sizes: np.ndarray       #: documents per site
    starts: np.ndarray      #: first global document index of each site
    n_links: int

    def url(self, document: int) -> str:
        """URL of a global document index (documents are site-major)."""
        site = int(np.searchsorted(self.starts, document, side="right")) - 1
        return f"http://{site_host(site)}/p{document - int(self.starts[site])}"


def _early_biased(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    """A local index per entry of *sizes*, favouring a site's first pages."""
    return np.floor(sizes * rng.random(sizes.size) ** 2).astype(np.int64)


def write_web(spec: WebSpec, seed: int, path: str) -> GeneratedWeb:
    """Generate a web and stream it to *path* as a URL edge list.

    Every site is a random recursive tree (each page is linked from an
    earlier page of its site, so every document occurs in the file and is
    reachable) whose pages all link back to the site's first page, plus
    random intra-site links towards early pages and ``inter_share`` links
    into other sites.  The home links keep a site's chain well mixed for
    every seed: without them a seed now and then closes a few pages into
    a near-absorbing loop, that site needs 100 power iterations where its
    neighbours need 28, and a rank round costs 15 % more for that seed.
    Tree links come first in site-major order, so ``DocGraph`` ids equal
    global document indices.
    """
    rng = np.random.default_rng([seed, spec.n_documents, spec.n_sites])
    sizes = site_sizes(spec)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    site_of_doc = np.repeat(np.arange(spec.n_sites), sizes)
    local = np.arange(spec.n_documents) - starts[site_of_doc]

    children = np.flatnonzero(local > 0)
    parents = (starts[site_of_doc[children]]
               + np.floor(rng.random(children.size)
                          * local[children]).astype(np.int64))

    homes = starts[site_of_doc[children]]

    n_extra = spec.n_links - 2 * children.size
    if n_extra < 0:
        raise ValueError("n_links is below the tree + home link count")
    n_inter = int(round(spec.n_links * spec.inter_share))
    sources = rng.integers(0, spec.n_documents, size=n_extra)
    target_sites = site_of_doc[sources].copy()
    crossing = rng.permutation(n_extra)[:n_inter]
    target_sites[crossing] = (target_sites[crossing] + 1 + rng.integers(
        0, spec.n_sites - 1, size=n_inter)) % spec.n_sites
    targets = starts[target_sites] + _early_biased(rng, sizes[target_sites])

    all_sources = np.concatenate((parents, children, sources))
    all_targets = np.concatenate((children, homes, targets))
    urls = np.array([f"http://{site_host(site)}/p{index}"
                     for site, size in enumerate(sizes.tolist())
                     for index in range(size)], dtype=object)
    with open(path, "w", encoding="utf-8") as handle:
        for begin in range(0, all_sources.size, WRITE_CHUNK_EDGES):
            chunk = slice(begin, begin + WRITE_CHUNK_EDGES)
            lines = urls[all_sources[chunk]] + "\t" + urls[all_targets[chunk]]
            handle.write("\n".join(lines.tolist()))
            handle.write("\n")
    return GeneratedWeb(spec=spec, path=path, sizes=sizes, starts=starts,
                        n_links=int(all_sources.size))


#: One ``/query`` request in this many repeats a text sent earlier in the
#: same stream; the rest are texts the service has never seen.
TEXT_REPEAT_EVERY = 5
#: Streams the word-triple universe is divided into; a stream holds
#: ``len(QUERY_WORDS) ** 3 // TEXT_SLOTS`` (~6000) never-seen texts.
TEXT_SLOTS = 32


def text_query_paths(seed: int, slot: int, count: int = 0, *,
                     k: int = 10) -> List[str]:
    """One client's ``/query`` stream, three vocabulary words per text.

    *slot* numbers the (round, client) pair; *count* requests are made
    (default: as many as the slot holds, far more than a round can send).
    Slots are disjoint slices of one seeded permutation of all ordered
    word triples, so no text of a stream was sent in another: the result
    cache is cold by construction.  Every ``TEXT_REPEAT_EVERY``-th request
    repeats an earlier text of its stream, which fixes the share of cache
    hits at 20 % of any prefix.  (Drawing texts from a Zipf law instead
    would leave the hit share of a ~100-request round to chance, and a hit
    is ~30x cheaper than a miss: throughput would follow the seed, and
    with about half the requests hitting, the median latency would sit on
    the boundary between hits and misses.)
    """
    n_words = len(QUERY_WORDS)
    per_slot = n_words ** 3 // TEXT_SLOTS
    if not 0 <= slot < TEXT_SLOTS:
        raise ValueError(f"text slot {slot} outside 0..{TEXT_SLOTS - 1}")
    fresh = np.random.default_rng([seed, 1]).permutation(
        n_words ** 3)[slot * per_slot:(slot + 1) * per_slot]
    if count == 0:
        count = per_slot + per_slot // (TEXT_REPEAT_EVERY - 1)
    rng = np.random.default_rng([seed, 1, slot])
    paths: List[str] = []
    sent = 0
    for position in range(count):
        if position % TEXT_REPEAT_EVERY == TEXT_REPEAT_EVERY - 1:
            code = int(fresh[rng.integers(0, sent)])
        else:
            code = int(fresh[sent])
            sent += 1
        a, rest = divmod(code, n_words * n_words)
        b, c = divmod(rest, n_words)
        paths.append(f"/query?q={QUERY_WORDS[a]}+{QUERY_WORDS[b]}"
                     f"+{QUERY_WORDS[c]}&k={k}")
    return paths


def link_query_paths(web: GeneratedWeb, seed: int, slot: int,
                     count: int) -> List[str]:
    """Link-only read mix: 90 % ``/top`` (half global, half per-site, K
    uniform in 50..250 so about half the requests miss the cache) and
    10 % ``/score`` point lookups."""
    rng = np.random.default_rng([seed, 2, slot])
    kinds = rng.random(count)
    ks = rng.integers(50, 251, size=count)
    sites = rng.integers(0, web.spec.n_sites, size=count)
    docs = rng.integers(0, web.spec.n_documents, size=count)
    paths = []
    for kind, k, site, doc in zip(kinds.tolist(), ks.tolist(),
                                  sites.tolist(), docs.tolist()):
        if kind < 0.10:
            paths.append(f"/score?doc={doc}")
        elif kind < 0.55:
            paths.append(f"/top?k={k}")
        else:
            paths.append(f"/top?k={k}&site={site_host(site)}")
    return paths


def update_links(web: GeneratedWeb, seed: int,
                 count: int) -> List[Tuple[str, str, int]]:
    """``(source URL, target URL, target document id)`` triples between
    existing pages of one site each — the intra-site ``add_link`` updates
    of the update stream.

    Sites are drawn uniformly, except that the first update always goes
    to the largest site: re-ranking it is what sets the process's peak
    memory, and left to the draw only one seed in three would do it
    (``peak_rss_mib`` then reads ~129 or ~142 MiB depending on the seed).
    """
    rng = np.random.default_rng([seed, 3])
    sites = rng.integers(0, web.spec.n_sites, size=count)
    sites[0] = int(np.argmax(web.sizes))
    sizes = web.sizes[sites]
    sources = web.starts[sites] + np.floor(rng.random(count) * sizes).astype(
        np.int64)
    targets = web.starts[sites] + _early_biased(rng, sizes)
    return [(web.url(a), web.url(b), b)
            for a, b in zip(sources.tolist(), targets.tolist())]
