"""Fixtures shared by the test modules."""

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
