import pytest

from mbfreal import realizability


@pytest.fixture(autouse=True)
def fresh_realizability_memos():
    """Start every test without the per-process memos of ``realizability``,
    so that a test counting LP calls does not depend on which tests ran
    before it."""
    realizability._structure_system.cache_clear()
    realizability._collapsed_blocked.cache_clear()
