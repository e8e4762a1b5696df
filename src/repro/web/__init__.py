"""Web application layer: DocGraph, SiteGraph, SiteRank, DocRank, pipeline."""

from .diagnostics import GraphDiagnostics, SiteDiagnostics, diagnose
from .docgraph import DocGraph, Document
from .docrank import (
    LocalDocRank,
    LocalRanks,
    SiteColumns,
    all_local_docranks,
    local_docrank,
    solve_local_columns,
)
from .incremental import IncrementalLayeredRanker, UpdateReport
from .pipeline import (
    SegmentPreferences,
    WebRankingResult,
    build_segment_preferences,
    lmm_from_docgraph,
    solve_segment_columns,
)
from .sitegraph import SiteGraph, aggregate_sitegraph
from .siterank import SiteRankResult, siterank
from .url import (
    ParsedURL,
    is_dynamic_url,
    make_site_extractor,
    normalize_url,
    parse_url,
    site_of,
)

__all__ = [
    "GraphDiagnostics",
    "SiteDiagnostics",
    "diagnose",
    "DocGraph",
    "Document",
    "IncrementalLayeredRanker",
    "UpdateReport",
    "LocalDocRank",
    "LocalRanks",
    "SiteColumns",
    "all_local_docranks",
    "local_docrank",
    "solve_local_columns",
    "SegmentPreferences",
    "WebRankingResult",
    "build_segment_preferences",
    "lmm_from_docgraph",
    "solve_segment_columns",
    "SiteGraph",
    "aggregate_sitegraph",
    "SiteRankResult",
    "siterank",
    "ParsedURL",
    "is_dynamic_url",
    "make_site_extractor",
    "normalize_url",
    "parse_url",
    "site_of",
]
