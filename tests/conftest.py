import pytest

from seshadri import bounds


@pytest.fixture
def fresh_small_table():
    """Empty every cache of seshadri.bounds, before and after the test, so a
    patched bounds._small_columns or bounds.sqrt_linear_threshold builds them and
    never leaks into another test.  The caches are found as the objects of the
    module with cache_clear (today the sparse six-term table, the per-parity
    exception lists read from it and the analytic thresholds), so a cache added
    later is cleared too."""
    def clear():
        for obj in vars(bounds).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    clear()
    yield
    clear()
