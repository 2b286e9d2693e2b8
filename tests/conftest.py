"""Set-up shared by every test module under tests/."""

import gc

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


@pytest.fixture(autouse=True)
def unfrozen_heap():
    """Fail a test that leaves objects in the collector's permanent generation.

    cli.entry freezes the heap before the process exits.  A test that
    reached it in process and left the heap frozen would put everything
    the run had built so far out of the collector's reach for good.
    """
    yield
    frozen = gc.get_freeze_count()
    gc.unfreeze()
    assert frozen == 0, f"{frozen} objects left frozen"
