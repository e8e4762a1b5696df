"""Reading and writing web graphs as edge lists.

Two plain-text formats are supported:

* **URL edge list** — one ``source-URL <whitespace> target-URL`` pair per
  line; comments start with ``#``.  This is the natural interchange format
  for crawls and is how users plug their own graphs into the library.
  Files are UTF-8 (a leading byte-order mark is skipped); lines are read
  and split a bounded chunk at a time, and the chunks resolve to document
  ids in bulk (:meth:`repro.web.registry.DocumentRegistry.add_edges`).
* **Integer edge list** — ``source-id target-id`` pairs with a separate URL
  table, produced by :func:`write_docgraph` for round-tripping DocGraphs
  losslessly (site assignments included).
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from itertools import chain, count, islice, starmap
from typing import Callable, Iterable, Iterator, List, Optional, TextIO, Tuple

from .. import obs
from ..exceptions import ValidationError
from ..web.docgraph import DocGraph

#: Default number of edges per chunk yielded by :func:`stream_url_edges`.
STREAM_CHUNK_EDGES = 8192


def _split_lines(lines: List[str], first: int) -> List[Tuple[str, str]]:
    """The edges of consecutive *lines*, numbered from *first*."""
    # Tuples, not the lists split() makes: the cyclic collector untracks
    # a tuple of strings at its first pass, while lists it keeps walking
    # in ever older generations (full collections cost ~60 ms an ingest).
    rows = list(map(tuple, map(str.split, lines)))
    if set(map(len, rows)) == {2} and "#" not in " ".join(lines):
        return rows
    for number, row in enumerate(rows, start=first):
        if row and row[0][0] != "#" and len(row) != 2:
            raise ValidationError(
                f"line {number}: expected 2 fields, got {len(row)}")
    return [row for row in rows if row and row[0][0] != "#"]


def iter_url_edges(lines: Iterable[str]) -> Iterator[Tuple[str, str]]:
    """Yield ``(source, target)`` URL pairs from edge-list lines.

    Blank lines and ``#`` comments are skipped; a line with other than two
    whitespace-separated fields raises.  Lines are split a chunk of
    :data:`STREAM_CHUNK_EDGES` at a time.
    """
    return chain.from_iterable(stream_url_edges(lines))


def stream_url_edges(lines: Iterable[str], *,
                     chunk_edges: int = STREAM_CHUNK_EDGES,
                     ) -> Iterator[List[Tuple[str, str]]]:
    """Yield URL edge pairs in bounded chunks, never holding the whole file.

    The streaming counterpart of :func:`iter_url_edges` for out-of-core
    builds (:class:`repro.io.diskgraph.DiskGraphBuilder`): *lines* is
    consumed lazily — never more lines than the chunk still lacks edges,
    so at most *chunk_edges* parsed edges and lines are resident at any
    moment and an edge list larger than RAM streams through in constant
    memory.  Validation is identical to :func:`iter_url_edges` (same line
    numbering in errors).
    """
    if chunk_edges <= 0:
        raise ValidationError("chunk_edges must be positive")
    lines, chunk, first = iter(lines), [], 1
    while batch := list(islice(lines, chunk_edges - len(chunk))):
        chunk += _split_lines(batch, first)
        first += len(batch)
        if len(chunk) == chunk_edges:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


@contextmanager
def _open_url_edgelist(path: str | os.PathLike) -> Iterator[TextIO]:
    """*path* as UTF-8 text, a leading byte-order mark skipped; a byte that
    is not UTF-8 raises :class:`ValidationError` naming its line."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            yield handle
        except UnicodeDecodeError as error:
            with open(path, "rb") as raw:
                number = next(number for number, line in enumerate(raw, 1)
                              if line.decode("utf-8", "ignore").encode()
                              != line)
            raise ValidationError(f"{os.fspath(path)}: line {number}: not "
                                  f"UTF-8 text ({error.reason})") from None


def stream_url_edgelist(path: str | os.PathLike, *,
                        chunk_edges: int = STREAM_CHUNK_EDGES,
                        ) -> Iterator[List[Tuple[str, str]]]:
    """Open *path* and stream its URL edges in bounded chunks.

    A generator wrapper around :func:`stream_url_edges` that owns the file
    handle: the file is opened lazily on first iteration and closed when
    the generator is exhausted or garbage-collected.
    """
    with _open_url_edgelist(path) as handle:
        yield from stream_url_edges(handle, chunk_edges=chunk_edges)


def record_ingest(edges: int, documents: int, url_parses: int) -> None:
    """Count one ingest call or chunk (never called per edge).

    Every edge costs two URL lookups; ``ingest_url_parses_total`` over
    ``ingest_url_lookups_total`` is the share the registry's memo missed.
    """
    obs.inc("ingest_edges_total", edges)
    obs.inc("ingest_documents_total", documents)
    obs.inc("ingest_url_lookups_total", 2 * edges)
    obs.inc("ingest_url_parses_total", url_parses)


def read_url_edgelist(path: str | os.PathLike, *,
                      site_extractor: Optional[Callable[[str], str]] = None,
                      ) -> DocGraph:
    """Load a DocGraph from a URL edge-list file."""
    with obs.span("ingest.edgelist.read"), \
            _open_url_edgelist(path) as handle:
        graph = DocGraph.from_edges(iter_url_edges(handle),
                                    site_extractor=site_extractor)
    record_ingest(graph.n_links, graph.n_documents, graph.registry.n_parses)
    return graph


def write_url_edgelist(docgraph: DocGraph, path: str | os.PathLike) -> None:
    """Write a DocGraph as a URL edge list (links only; isolated pages are lost)."""
    urls = docgraph.registry.urls
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# repro URL edge list\n")
        handle.writelines(f"{urls[source]}\t{urls[target]}\n"
                          for source, target in docgraph.edges())


def _docgraph_records(docgraph: DocGraph) -> Iterator[str]:
    """The lines of :func:`write_docgraph` after ``*NODES``, from the
    registry columns and the edge arrays."""
    registry = docgraph.registry
    sites = map(registry.sites.__getitem__, registry.doc_site)
    return chain(map("{}\t{}\t{}\t{}\n".format, count(), sites,
                     registry.dynamic, registry.urls),
                 ("*EDGES\n",),
                 starmap("{}\t{}\n".format, docgraph.edges()))


def write_docgraph(docgraph: DocGraph, path: str | os.PathLike) -> None:
    """Write a DocGraph losslessly (documents, sites and links).

    Format: a ``*NODES`` section of ``id <tab> site <tab> dynamic <tab> url``
    lines followed by a ``*EDGES`` section of ``source <tab> target`` lines.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("*NODES\n")
        handle.writelines(_docgraph_records(docgraph))


def docgraph_digest(docgraph: DocGraph) -> str:
    """A short hex digest identifying a DocGraph's exact content.

    Hashes the same lossless record stream :func:`write_docgraph` emits
    (documents with sites and dynamic flags, then edges), so two graphs
    have equal digests iff they would round-trip to the same file.  The
    cluster subsystem uses it to refuse peers ranking a different web than
    the coordinator and to validate job-ledger resumes.
    """
    digest, records = hashlib.sha256(), _docgraph_records(docgraph)
    while block := "".join(islice(records, STREAM_CHUNK_EDGES)):
        digest.update(block.encode("utf-8"))
    return digest.hexdigest()[:16]


def read_docgraph(path: str | os.PathLike) -> DocGraph:
    """Read a DocGraph written by :func:`write_docgraph`."""
    graph = DocGraph(normalize=False)
    section = None
    id_map = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if line == "*NODES":
                section = "nodes"
                continue
            if line == "*EDGES":
                section = "edges"
                continue
            if section == "nodes":
                fields = line.split("\t")
                if len(fields) != 4:
                    raise ValidationError(
                        f"line {line_number}: malformed node record")
                original_id, site, dynamic, url = fields
                try:
                    parsed_id, parsed_dynamic = int(original_id), int(dynamic)
                except ValueError:
                    raise ValidationError(
                        f"line {line_number}: non-numeric node fields "
                        f"{original_id!r} / {dynamic!r}") from None
                new_id = graph.add_document(url, site=site,
                                            is_dynamic=bool(parsed_dynamic))
                id_map[parsed_id] = new_id
            elif section == "edges":
                fields = line.split("\t")
                if len(fields) != 2:
                    raise ValidationError(
                        f"line {line_number}: malformed edge record")
                try:
                    source, target = int(fields[0]), int(fields[1])
                except ValueError:
                    raise ValidationError(
                        f"line {line_number}: non-numeric edge fields "
                        f"{fields[0]!r} / {fields[1]!r}") from None
                if source not in id_map or target not in id_map:
                    raise ValidationError(
                        f"line {line_number}: edge references unknown node")
                graph.add_link_by_id(id_map[source], id_map[target])
            else:
                raise ValidationError(
                    f"line {line_number}: content before *NODES section")
    if graph.n_documents == 0:
        raise ValidationError(f"{path!s} contains no documents")
    return graph
