"""One dangling policy at every size and through every kernel.

``pagerank(dangling=...)`` names where a dangling node's mass goes.  The
explicit-matrix path always honoured it; the matrix-free path used to
send the mass to the *preference* whatever the argument said — so a
personalised solve had one fixed point up to 2000 nodes (dense kernel,
and the fused block solver at any size: uniform) and another above it.
The reference here is neither kernel: the fixed point solved as a linear
system.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.plan import site_tasks_for, siterank_task_for
from repro.exceptions import ValidationError
from repro.linalg.block_solver import pack_blocks, solve_blocks
from repro.pagerank import pagerank
from repro.web.sitegraph import SiteGraph

FOUR = np.array([
    [0, 1, 1, 0],
    [0, 0, 1, 1],
    [1, 0, 0, 0],
    [0, 0, 0, 0],  # dangling
], dtype=float)
PREFERENCE = np.array([0.7, 0.1, 0.1, 0.1])


def fixed_point(adjacency, damping, preference, dangling):
    """``π = f·π·(L + d·w') + (1 − f)·v'`` solved directly (dense, small n)."""
    adjacency = np.asarray(
        adjacency.todense() if sp.issparse(adjacency) else adjacency,
        dtype=float)
    n = adjacency.shape[0]
    sums = adjacency.sum(axis=1)
    idle = sums == 0.0
    link = adjacency / np.where(idle, 1.0, sums)[:, None]
    if dangling == "self":
        link[idle, idle] = 1.0
    else:
        weights = preference if dangling == "preference" else np.full(
            n, 1.0 / n)
        link[idle] = weights
    solution = np.linalg.solve((np.eye(n) - damping * link).T,
                               (1.0 - damping) * preference)
    return solution / solution.sum()


def random_case(seed, n, dangling_rows):
    rng = np.random.default_rng(seed)
    adjacency = sp.random(n, n, density=min(1.0, 4.6 / n), random_state=rng,
                          format="lil")
    adjacency[rng.choice(n, size=dangling_rows, replace=False), :] = 0.0
    adjacency = sp.csr_matrix(adjacency)
    adjacency.eliminate_zeros()
    preference = rng.random(n) + 0.01
    start = rng.random(n) + 0.01
    return adjacency, preference / preference.sum(), start / start.sum()


class TestFourNodeExample:
    #: Fixed points of FOUR under PREFERENCE at f = 0.85, to six places.
    PINNED = {
        "uniform": [0.378493, 0.203212, 0.289577, 0.128718],
        "preference": [0.410045, 0.198500, 0.282862, 0.108593],
        "self": [0.253842, 0.122883, 0.175108, 0.448168],
    }

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    @pytest.mark.parametrize("policy", sorted(PINNED))
    @pytest.mark.parametrize("as_sparse", [True, False])
    def test_policy_is_honoured_by_both_methods(self, policy, method,
                                                as_sparse):
        adjacency = sp.csr_matrix(FOUR) if as_sparse else FOUR
        result = pagerank(adjacency, 0.85, PREFERENCE, method=method,
                          dangling=policy, tol=1e-14)
        assert np.allclose(result.scores, self.PINNED[policy], atol=5e-7)
        assert np.allclose(result.scores,
                           fixed_point(FOUR, 0.85, PREFERENCE, policy),
                           atol=1e-12)

    def test_policies_differ(self):
        # 0.03 apart on page 0: nothing a tolerance could paper over.
        assert abs(self.PINNED["uniform"][0]
                   - self.PINNED["preference"][0]) > 0.03

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_error_policy_raises(self, method):
        with pytest.raises(ValidationError, match="dangling"):
            pagerank(sp.csr_matrix(FOUR), method=method, dangling="error")
        no_dangling = FOUR.copy()
        no_dangling[3, 0] = 1.0
        strict = pagerank(sp.csr_matrix(no_dangling), method=method,
                          dangling="error", tol=1e-13)
        default = pagerank(sp.csr_matrix(no_dangling), method=method,
                           tol=1e-13)
        assert np.array_equal(strict.scores, default.scores)

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_preference_policy_needs_a_preference(self, method):
        with pytest.raises(ValidationError, match="requires a preference"):
            pagerank(sp.csr_matrix(FOUR), method=method,
                     dangling="preference")

    def test_auto_follows_the_input_not_its_size(self):
        from repro import obs

        for adjacency, solver in ((sp.csr_matrix(FOUR), "power_dangling"),
                                  (FOUR, "power")):
            obs.reset()
            pagerank(adjacency)
            runs = {entry["labels"]["solver"]
                    for entry in obs.snapshot()["counters"]
                    if entry["name"] == "solver_runs_total"}
            assert runs == {solver}


class TestKernelsAgree:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 60),
           dangling_share=st.floats(0.05, 0.5),
           damping=st.floats(0.5, 0.9))
    def test_dense_sparse_and_one_block_agree(self, seed, n, dangling_share,
                                              damping):
        dangling_rows = max(1, int(dangling_share * n))
        adjacency, preference, start = random_case(seed, n, dangling_rows)
        runs = {
            method: pagerank(adjacency, damping, preference, method=method,
                             start=start, tol=1e-13)
            for method in ("dense", "sparse")}
        block = solve_blocks(pack_blocks([(adjacency, start, preference)]),
                             damping, tol=1e-13)
        reference = fixed_point(adjacency, damping, preference, "uniform")
        for scores in (runs["dense"].scores, runs["sparse"].scores,
                       block.vectors[0]):
            assert np.abs(scores - reference).max() < 1e-12
        counts = [runs["dense"].iterations, runs["sparse"].iterations,
                  int(block.iterations[0])]
        assert max(counts) - min(counts) <= 1

        by_preference = [
            pagerank(adjacency, damping, preference, method=method,
                     start=start, tol=1e-13, dangling="preference")
            for method in ("dense", "sparse")]
        reference = fixed_point(adjacency, damping, preference, "preference")
        for result in by_preference:
            assert np.abs(result.scores - reference).max() < 1e-12
        assert abs(by_preference[0].iterations
                   - by_preference[1].iterations) <= 1


class _OneSite:
    """A block source holding one site."""

    def __init__(self, adjacency):
        self._adjacency = adjacency

    def sites(self):
        return ["big.example"]

    def local_block(self, site):
        return self._adjacency, list(range(self._adjacency.shape[0]))


class TestPolicyDoesNotDependOnSize:
    """n = 2500 is past the retired 2000-node kernel switch."""

    N = 2500

    def reference(self, adjacency, damping, preference):
        oracle = pagerank(adjacency, damping, preference, method="dense",
                          tol=1e-13)
        block = solve_blocks(pack_blocks([(adjacency, None, preference)]),
                             damping, tol=1e-13)
        assert np.abs(oracle.scores - block.vectors[0]).max() < 1e-12
        return oracle.scores

    def test_personalised_local_rank_task(self):
        adjacency, preference, _ = random_case(11, self.N, 200)
        [task] = site_tasks_for(
            _OneSite(adjacency), 0.85,
            preferences={"big.example": preference}, tol=1e-13)
        scores = task.run().scores
        expected = self.reference(adjacency, 0.85, preference)
        assert np.abs(scores - expected).max() < 1e-12
        # ... and it is not the other fixed point, by a wide margin.
        other = pagerank(adjacency, 0.85, preference, method="sparse",
                         dangling="preference", tol=1e-13).scores
        assert np.abs(scores - other).max() > 1e-6

    def test_personalised_siterank_task(self):
        adjacency, preference, _ = random_case(12, self.N, 200)
        sitegraph = SiteGraph(
            sites=[f"s{i}.example" for i in range(self.N)],
            adjacency=adjacency, site_sizes=[1] * self.N)
        task = siterank_task_for(sitegraph, 0.85, preference=preference,
                                 tol=1e-13)
        expected = self.reference(adjacency, 0.85, preference)
        assert np.abs(task.run().scores - expected).max() < 1e-12
