import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(fn, *args): (fn's result, the peak bytes fn's allocations held)."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
