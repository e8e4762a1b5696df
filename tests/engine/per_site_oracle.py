"""The per-site whole-web reference: every site solved by its own task.

The engine fuses small sites into block-diagonal batches
(:func:`repro.engine.plan.fuse_schedule` decides from the sizes alone) and
gives large sites a dedicated :class:`~repro.engine.plan.LocalRankTask`.
The reference the fused path is measured against — and the schedule the
simulated and live distributed peers run — is the dedicated task for
*every* site.  It is built here from the engine's own pieces, unfused:
:func:`~repro.engine.plan.site_tasks_for` +
:func:`~repro.engine.plan.execute_tasks`, the plan's
:class:`~repro.engine.plan.SiteRankTask`, then
:func:`~repro.web.pipeline.compose_ranking`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engine.plan import RankingPlan, execute_tasks, site_tasks_for
from repro.linalg.power_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL
from repro.markov.irreducibility import DEFAULT_DAMPING
from repro.web.docgraph import DocGraph
from repro.web.docrank import LocalDocRank
from repro.web.pipeline import WebRankingResult, compose_ranking


def per_site_local_docranks(docgraph: DocGraph,
                            damping: float = DEFAULT_DAMPING, *,
                            preferences: Optional[Dict[str, np.ndarray]] = None,
                            tol: float = DEFAULT_TOL,
                            max_iter: int = DEFAULT_MAX_ITER,
                            executor=None) -> Dict[str, LocalDocRank]:
    """Every site's local DocRank from its own dedicated task."""
    tasks = site_tasks_for(docgraph, damping, preferences=preferences,
                           tol=tol, max_iter=max_iter)
    results, _seconds = execute_tasks(tasks, executor=executor)
    return {task.site: result for task, result in zip(tasks, results)}


def per_site_layered_docrank(docgraph: DocGraph,
                             damping: float = DEFAULT_DAMPING, *,
                             site_damping: Optional[float] = None,
                             include_site_self_links: bool = False,
                             tol: float = DEFAULT_TOL,
                             max_iter: int = DEFAULT_MAX_ITER,
                             executor=None) -> WebRankingResult:
    """The layered ranking with no site fused: the distributed schedule."""
    plan = RankingPlan.from_docgraph(
        docgraph, damping, site_damping=site_damping,
        include_site_self_links=include_site_self_links, tol=tol,
        max_iter=max_iter)
    results, _seconds = execute_tasks(plan.site_tasks, executor=executor)
    local = {task.site: result
             for task, result in zip(plan.site_tasks, results)}
    site_result = plan.siterank_task.run()
    return compose_ranking(
        docgraph, plan.sitegraph.sites, site_result, local,
        method="layered",
        iterations=site_result.iterations + sum(
            rank.iterations for rank in local.values()))
