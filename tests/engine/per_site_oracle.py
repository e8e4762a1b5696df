"""The per-site whole-web reference: every site solved by its own task.

The engine fuses small sites into block-diagonal batches
(:func:`repro.engine.plan.fuse_schedule` decides from the sizes alone) and
gives large sites a dedicated :class:`~repro.engine.plan.LocalRankTask`.
The reference the fused path is measured against is the dedicated task
for *every* site.  It is built here from the engine's own pieces,
unfused: :func:`~repro.engine.plan.site_tasks_for`, each task run on its
own, the plan's :class:`~repro.engine.plan.SiteRankTask`, then
:func:`~repro.web.pipeline.compose_ranking`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engine.plan import RankingPlan, site_tasks_for
from repro.linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from repro.markov.irreducibility import DEFAULT_DAMPING
from repro.web.docgraph import DocGraph
from repro.web.docrank import LocalDocRank
from repro.web.pipeline import WebRankingResult, compose_ranking


def per_site_local_docranks(docgraph: DocGraph,
                            damping: float = DEFAULT_DAMPING, *,
                            preferences: Optional[Dict[str, np.ndarray]] = None,
                            tol: float = DEFAULT_TOL,
                            max_iter: int = DEFAULT_MAX_ITER
                            ) -> Dict[str, LocalDocRank]:
    """Every site's local DocRank from its own dedicated task."""
    tasks = site_tasks_for(docgraph, damping, preferences=preferences,
                           tol=tol, max_iter=max_iter)
    return {task.site: task.run() for task in tasks}


def per_site_layered_docrank(docgraph: DocGraph,
                             damping: float = DEFAULT_DAMPING, *,
                             site_damping: Optional[float] = None,
                             include_site_self_links: bool = False,
                             tol: float = DEFAULT_TOL,
                             max_iter: int = DEFAULT_MAX_ITER
                             ) -> WebRankingResult:
    """The layered ranking with no site fused."""
    plan = RankingPlan.from_docgraph(
        docgraph, damping, site_damping=site_damping,
        include_site_self_links=include_site_self_links, tol=tol,
        max_iter=max_iter)
    local = {task.site: task.run() for task in plan.site_tasks}
    site_result = plan.siterank_task.run()
    return compose_ranking(
        docgraph, plan.sitegraph.sites, site_result, local,
        method="layered",
        iterations=site_result.iterations + sum(
            rank.iterations for rank in local.values()))
