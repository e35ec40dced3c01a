"""Shared fixtures of the test suite."""

import pytest

from schubertk import restriction


@pytest.fixture(autouse=True)
def _no_cached_fixed_points_or_elements():
    # a test that counts the builds of a query sees the same cold caches
    # whatever ran before it
    restriction._fixed_point.cache_clear()
    restriction._element.cache_clear()
