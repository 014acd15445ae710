import pytest

from seshadri import bounds


@pytest.fixture
def fresh_small_table():
    """Empty the per-process six-term table, the prefix counts built from it
    and the analytic thresholds, before and after the test, so a patched
    bounds._small_min or bounds.sqrt_linear_threshold builds them and never
    leaks into another test."""
    def clear():
        bounds._small_table.cache_clear()
        bounds._argmin_prefix_counts.cache_clear()
        bounds.analytic_threshold.cache_clear()

    clear()
    yield
    clear()
