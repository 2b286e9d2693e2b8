"""Set-up shared by every test module under tests/."""

import pytest

from conecurves.components import count_solutions


@pytest.fixture(autouse=True)
def fresh_count_memo():
    """Empty count_solutions' memo around each test.

    The memo lives as long as the process, so without this a test that
    watches which route a count takes, or patches one, would see whatever
    earlier tests left in it.
    """
    count_solutions.cache_clear()
    yield
    count_solutions.cache_clear()
