"""Shared fixtures.

The census, the full-LP sweep, and the repository take a fraction of a
second each since they visit one rank order per symmetry orbit; they are
built once per session and shared by the unit and acceptance tests.
"""

from __future__ import annotations

import pytest

from profilerank.core import Params
from profilerank.oracle import (
    build_repository,
    enumerate_feasible,
    precheck_completeness_gap,
)


@pytest.fixture(scope="session")
def census32():
    return enumerate_feasible(Params(3, 2))


@pytest.fixture(scope="session")
def gap32():
    return precheck_completeness_gap(Params(3, 2))


@pytest.fixture(scope="session")
def repo(census32):
    return build_repository(census32)
