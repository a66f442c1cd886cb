"""Fixtures shared by the test modules."""

import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from inlslab.cutoff import CutoffProfile, _build_bridge


def _unchecked_cutoff(k, R, params):
    """The profile build_cutoff gives for (k, R, params), without the strict
    bounds of check_k: an undersized k, for the paths that must catch one."""
    a, bridge = _build_bridge(k)
    return CutoffProfile(k=k, R=float(R), params=params, r_star=a, bridge=bridge)


@pytest.fixture
def unchecked_cutoff():
    return _unchecked_cutoff


@contextmanager
def _traced_peak():
    """Yields a namespace whose peak, set on exit, is the most memory
    tracemalloc traced inside the block, in bytes above its level at entry.
    Tracing is started and stopped here unless it was already on."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    traced = SimpleNamespace(peak=None)
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        yield traced
        _, peak = tracemalloc.get_traced_memory()
        traced.peak = peak - start
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
