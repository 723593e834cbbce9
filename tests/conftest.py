import os
import sys
import tracemalloc

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def traced_peak():
    """A function running `call()` under tracemalloc and returning the peak bytes it allocated."""

    def measure(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure
