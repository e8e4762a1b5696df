"""Shared fixtures for the test suite.

Expensive fixtures (the scaled-down campus web and its rankings) are
session-scoped so the many tests that inspect them do not regenerate them.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

# The per-site reference oracle (tests/engine/per_site_oracle.py) serves
# test directories beyond its own.
_ENGINE_TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "engine")
if _ENGINE_TESTS not in sys.path:
    sys.path.insert(0, _ENGINE_TESTS)

from repro.core import example_lmm
from repro.graphgen import CampusWebConfig, generate_campus_web, generate_synthetic_web
from repro.io import spammy_web, toy_web


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for individual tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_lmm():
    """The paper's 3-phase, 12-state worked example."""
    return example_lmm()


@pytest.fixture
def toy_docgraph():
    """The bundled ten-page, three-site toy web."""
    return toy_web()


@pytest.fixture
def spam_docgraph():
    """The bundled two-site toy web containing a small link farm."""
    return spammy_web()


@pytest.fixture(scope="session")
def small_synthetic_web():
    """A small synthetic hierarchical web (8 sites, ~300 documents)."""
    return generate_synthetic_web(n_sites=8, n_documents=300, seed=21)


@pytest.fixture(scope="session")
def small_campus_config() -> CampusWebConfig:
    """Configuration of the scaled-down campus web used by the tests."""
    return CampusWebConfig(n_sites=12, n_documents=900,
                           webdriver_farm_pages=150,
                           javadoc_farm_pages=90,
                           inter_site_links=500,
                           seed=99)


@pytest.fixture(scope="session")
def small_campus(small_campus_config):
    """A scaled-down campus web with both spam farms."""
    return generate_campus_web(small_campus_config)
