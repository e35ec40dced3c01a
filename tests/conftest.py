"""Shared fixtures of the test suite."""

import pytest

from schubertk import restriction


@pytest.fixture(autouse=True)
def _no_cached_fixed_points():
    # a test that counts the builds of a query sees the same cold cache
    # whatever ran before it
    restriction._fixed_point.cache_clear()
