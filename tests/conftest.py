"""Shared fixtures.

The census and the repository take a fraction of a second each since they
visit one rank order per symmetry orbit; the brute-force sweep of every
(3,2) rank order takes seconds.  Each is built once per session and shared
by the unit and acceptance tests.
"""

from __future__ import annotations

import pytest

from bruteforce import full_sweep
from profilerank.core import Params
from profilerank.oracle import build_repository, enumerate_feasible


@pytest.fixture(scope="session")
def census32():
    return enumerate_feasible(Params(3, 2))


@pytest.fixture(scope="session")
def sweep32():
    return full_sweep(Params(3, 2))


@pytest.fixture(scope="session")
def repo(census32):
    return build_repository(census32)
