import pytest

from mbfreal import ksystem, realizability


@pytest.fixture(autouse=True)
def fresh_memos():
    """Start every test without the per-process memos of ``realizability``
    and ``ksystem``, so that a test counting LP calls or kept step tables
    does not depend on which tests ran before it."""
    realizability._structure_system.cache_clear()
    realizability._collapsed_blocked.cache_clear()
    ksystem._steps.cache_clear()
