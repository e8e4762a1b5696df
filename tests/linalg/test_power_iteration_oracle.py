"""The matrix-free power iteration returns bitwise what it returned before.

``power_iteration_oracle.py`` holds ``row_normalize`` and
``stationary_distribution_dangling_aware`` from before the in-place loop
and the data-scaling normalisation.  On random link graphs — canonical and
non-canonical CSR (duplicates, unsorted indices, explicit zeros), COO,
dense and integer input, with no, some and all rows dangling — every field
of the result must come out bitwise equal: the vector, the iteration
count, the convergence flag, the residual history and the last residual,
plus the ``callback`` sequence and the ``ConvergenceError`` text when the
budget runs out.  The caller's ``start`` is never written to.  The fused
block solver normalises through ``row_normalize`` too, so its frozen loops
run here on the frozen normalisation.

The property tests run a short, derandomised example budget by default;
``--hypothesis-profile=oracle-long`` (registered in ``tests/conftest.py``)
runs the long one.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import block_solver_oracle
import power_iteration_oracle as oracle
from repro.exceptions import ConvergenceError
from repro.linalg.block_solver import solve_blocks
from repro.linalg.power_iteration import stationary_distribution_dangling_aware
from repro.linalg.stochastic import row_normalize, uniform_distribution
from repro.pagerank import pagerank
from test_block_solver_oracle import assert_bitwise, batches

LONG_PROFILE = "oracle-long"

#: The property budget: the loaded profile's under ``oracle-long``, a short
#: fixed one otherwise (tier-1).
ORACLE_SETTINGS = (
    settings(deadline=None)
    if settings.get_current_profile_name() == LONG_PROFILE
    else settings(max_examples=30, deadline=None, derandomize=True))

#: How the adjacency reaches ``row_normalize``.
LAYOUTS = ["csr", "csr-unsorted", "csr-duplicates", "csr-explicit-zeros",
           "coo", "dense"]


def _distribution(rng, n):
    values = rng.random(n) + 1e-3
    return values / values.sum()


def _adjacency(rng, n, layout, dangling_share, dtype):
    """A random *n*-node link graph laid out as *layout*."""
    dense = (rng.random((n, n)) < rng.uniform(0.05, 0.7)) * rng.integers(
        1, 5, size=(n, n))
    if dtype == "float":
        dense = dense * rng.uniform(0.1, 3.0, size=(n, n))
    dense[rng.random(n) < dangling_share, :] = 0
    dense = dense.astype(np.float64 if dtype == "float" else dtype)
    if layout == "dense":
        return dense
    if layout == "coo":
        return sp.coo_matrix(dense)
    csr = sp.csr_matrix(dense)
    if layout == "csr":
        return csr
    indptr = csr.indptr
    data, indices = [], []
    for row in range(n):
        cols = csr.indices[indptr[row]:indptr[row + 1]]
        vals = csr.data[indptr[row]:indptr[row + 1]]
        if layout == "csr-unsorted":
            cols, vals = cols[::-1], vals[::-1]
        elif layout == "csr-duplicates" and cols.size:
            # Split the first entry in two (integers stay integral).
            half = vals[:1] // 2 if dtype != "float" else vals[:1] / 3
            cols = np.concatenate([cols[:1], cols])
            vals = np.concatenate([half, vals[:1] - half, vals[1:]])
        elif layout == "csr-explicit-zeros" and cols.size:
            vals = vals.copy()
            vals[rng.random(vals.size) < 0.3] = 0
        indices.append(cols)
        data.append(vals)
    counts = [c.size for c in indices]
    return sp.csr_matrix(
        (np.concatenate(data).astype(csr.dtype),
         np.concatenate(indices).astype(np.int32),
         np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)),
        shape=(n, n))


@st.composite
def cases(draw):
    """A random adjacency plus kernel keyword arguments."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    layout = draw(st.sampled_from(LAYOUTS))
    dtype = draw(st.sampled_from(["float", "float", "int64", "int32"]))
    dangling_share = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
    adjacency = _adjacency(rng, n, layout, dangling_share, dtype)
    kwargs = dict(
        preference=_distribution(rng, n) if draw(st.booleans()) else None,
        dangling_weights=(_distribution(rng, n) if draw(st.booleans())
                          else None),
        start=_distribution(rng, n) if draw(st.booleans()) else None,
        tol=draw(st.sampled_from([1e-4, 1e-10, 1e-300])),
        max_iter=draw(st.sampled_from([1, 7, 200])),
        record_residuals=draw(st.booleans()))
    damping = draw(st.sampled_from([0.0, 0.5, 0.85, 1.0]))
    return adjacency, damping, kwargs


def _run(kernel, link, damping, kwargs):
    """Everything a solve shows its caller: result or error, callbacks."""
    calls = []
    start = kwargs["start"]
    before = None if start is None else start.copy()
    try:
        result = kernel(link, damping, callback=lambda *c: calls.append(c),
                        **kwargs)
    except ConvergenceError as error:
        outcome = ("error", str(error), error.iterations, error.residual)
    else:
        outcome = ("result", result)
    if start is not None:
        assert np.array_equal(start, before), "start was written to"
    return outcome, calls


def assert_same_solve(got, expected):
    (outcome, calls), (oracle_outcome, oracle_calls) = got, expected
    assert calls == oracle_calls
    assert outcome[0] == oracle_outcome[0]
    if outcome[0] == "error":
        assert outcome == oracle_outcome
        return
    result, reference = outcome[1], oracle_outcome[1]
    assert result.vector.dtype == reference.vector.dtype
    assert np.array_equal(result.vector.view(np.int64),
                          reference.vector.view(np.int64))
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged
    assert result.residuals == reference.residuals
    assert result.last_residual == reference.last_residual
    assert result.tolerance == reference.tolerance


def _same_matrix(got, expected):
    """Equal as matrices, bit for bit (stored order and zeros may differ)."""
    if sp.issparse(expected):
        assert sp.issparse(got) and got.dtype == expected.dtype
        got, expected = got.toarray(), expected.toarray()
    assert np.array_equal(np.asarray(got), np.asarray(expected))


class TestAgainstOracle:
    @ORACLE_SETTINGS
    @given(cases())
    def test_random_links(self, case):
        adjacency, damping, kwargs = case
        link = row_normalize(adjacency)
        oracle_link = oracle.row_normalize(adjacency)
        _same_matrix(link, oracle_link)
        expected = _run(oracle.stationary_distribution_dangling_aware,
                        oracle_link, damping, kwargs)
        assert_same_solve(
            _run(stationary_distribution_dangling_aware, link, damping,
                 kwargs), expected)
        # The kernel alone, on the old normalisation's reversed rows.
        assert_same_solve(
            _run(stationary_distribution_dangling_aware, oracle_link,
                 damping, kwargs), expected)

    @ORACLE_SETTINGS
    @given(cases(), st.sampled_from(["uniform", "preference"]))
    def test_pagerank_sparse_path(self, case, dangling):
        adjacency, damping, kwargs = case
        preference = kwargs["preference"]
        if dangling == "preference" and preference is None:
            preference = _distribution(np.random.default_rng(0),
                                       adjacency.shape[0])
        n = adjacency.shape[0]
        options = dict(tol=kwargs["tol"], max_iter=kwargs["max_iter"],
                       start=kwargs["start"],
                       record_residuals=kwargs["record_residuals"])
        try:
            got = pagerank(sp.csr_matrix(adjacency), damping, preference,
                           method="sparse", dangling=dangling, **options)
        except ConvergenceError as error:
            got = str(error)
        try:
            reference = oracle.stationary_distribution_dangling_aware(
                oracle.row_normalize(sp.csr_matrix(adjacency)), damping,
                preference, dangling_weights=(uniform_distribution(n)
                                              if dangling == "uniform"
                                              else None), **options)
        except ConvergenceError as error:
            assert got == str(error)
            return
        assert np.array_equal(got.scores.view(np.int64),
                              reference.vector.view(np.int64))
        assert got.iterations == reference.iterations
        assert got.converged == reference.converged
        assert got.residuals == reference.residuals

    @ORACLE_SETTINGS
    @given(batches())
    def test_fused_solver_on_the_old_normalisation(self, case):
        packed, damping, kwargs = case
        with mock.patch.object(block_solver_oracle, "row_normalize",
                               oracle.row_normalize):
            expected = block_solver_oracle.oracle_solve_blocks(
                packed, damping, **kwargs)
        assert_bitwise(solve_blocks(packed, damping, **kwargs), expected)

    @pytest.mark.parametrize("dangling_rows", [0, 3])
    def test_failure_message_matches(self, dangling_rows):
        rng = np.random.default_rng(4)
        adjacency = _adjacency(rng, 40, "csr", 0.0, "float")
        adjacency = sp.lil_matrix(adjacency)
        adjacency[:dangling_rows, :] = 0
        adjacency = adjacency.tocsr()
        kwargs = dict(preference=None, dangling_weights=None, start=None,
                      tol=1e-300, max_iter=9, record_residuals=True)
        got = _run(stationary_distribution_dangling_aware,
                   row_normalize(adjacency), 0.85, kwargs)
        expected = _run(oracle.stationary_distribution_dangling_aware,
                        oracle.row_normalize(adjacency), 0.85, kwargs)
        assert got[0][0] == "error"
        assert_same_solve(got, expected)
