"""Traced allocation peaks, the measure of the tests' memory bounds."""

from __future__ import annotations

import tracemalloc


def traced_peak(call, n: int) -> float:
    """The tracemalloc peak of ``call()``, in units of n doubles.

    Only what the call allocates counts: anything whose first use allocates
    and that the bound is not about, such as a grid's cached geometry, is
    warmed by the caller beforehand.
    """
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()
