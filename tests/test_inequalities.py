"""Weighted interpolation and Gagliardo-Nirenberg ratio checks."""

import numpy as np
import pytest

from inlslab.core import Field, Grid, InvariantError, ProblemParams
from inlslab.cutoff import build_cutoff, default_k
from inlslab.inequalities import (
    IneqCase,
    RadialWeight,
    estimate_constant,
    lhs_rhs,
)

P1 = ProblemParams(1, 0.5)
GRID1 = Grid(1, 12.0, 512)


class ConstantWeight:
    """A constant weight c, with the two methods IneqCase reads."""

    def __init__(self, c):
        self.c = c

    def w(self, r):
        return np.full_like(r, self.c)

    def dpow(self, r, e):
        return np.zeros_like(r)


def gaussian(grid, scale=1.0, shift=0.0, mod=0.0):
    xs = grid.coords()
    r2 = (xs[0] - shift) ** 2 + sum(x**2 for x in xs[1:])
    return np.exp(-r2 / (2.0 * scale**2)) * np.exp(1j * mod * xs[0])


class TestRadialWeight:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvariantError):
            RadialWeight("box")

    def test_paper_weight_requires_profile(self):
        with pytest.raises(InvariantError):
            RadialWeight("paper_Phi2")

    @pytest.mark.parametrize("kind,scale", [("gaussian_bump", 2.0), ("paper_Phi2", 2.0)])
    def test_dpow_matches_finite_difference(self, kind, scale):
        # the paper weight's profile has R = scale
        w = RadialWeight(kind, scale, build_cutoff(default_k(P1), scale, P1))
        r = np.linspace(0.1, 8.0, 200)
        e = 2.0 / 3.0
        step = 1e-6
        fd = (w.w(r + step) ** e - w.w(r - step) ** e) / (2.0 * step)
        assert np.max(np.abs(w.dpow(r, e) - fd)) < 1e-7

    def test_paper_weight_evaluates_cutoff(self):
        prof = build_cutoff(default_k(P1), 2.0, P1)
        w = RadialWeight("paper_Phi2", profile=prof)
        r = np.linspace(0.5, 6.0, 50)
        assert np.array_equal(w.w(r), prof.phi2(r))


class TestCaseValidation:
    def test_interp2_requires_dimension_two(self):
        with pytest.raises(InvariantError):
            IneqCase("interp2", P1, GRID1)

    def test_otn1_requires_dimension_one(self):
        with pytest.raises(InvariantError):
            IneqCase("otn1", ProblemParams(2, 0.5), Grid(2, 8.0, 32))

    def test_interp1_rejects_dimension_two(self):
        with pytest.raises(InvariantError):
            IneqCase("interp1", ProblemParams(2, 0.5), Grid(2, 8.0, 32))

    @pytest.mark.parametrize("which", ["interp1", "gn"])
    def test_dimension_mismatch_rejected(self, which):
        # N=1 params on a 2D grid would integrate the N=1 exponents in 2D
        with pytest.raises(InvariantError, match="on an N=2 grid"):
            IneqCase(which, P1, Grid(2, 8.0, 32))

    def test_unknown_inequality_rejected(self):
        with pytest.raises(InvariantError):
            IneqCase("hardy", P1, GRID1)

    @pytest.mark.parametrize("which", ["interp1", "otn1"])
    def test_weighted_inequality_needs_a_weight(self, which):
        with pytest.raises(InvariantError, match=f"{which} needs a weight"):
            IneqCase(which, P1, GRID1)

    def test_gn_ignores_a_weight(self):
        # the CLI passes its Gaussian bump for every inequality
        case = IneqCase("gn", P1, GRID1, RadialWeight("gaussian_bump", 3.0))
        assert case.w is None and case.dpow2 is None


class TestLhsRhs:
    def test_zero_field_gives_zero_sides(self):
        for which in ("interp1", "otn1", "gn"):
            case = IneqCase(which, P1, GRID1, RadialWeight("gaussian_bump", 2.0))
            lhs, rhs = lhs_rhs(case, Field(P1, GRID1, np.zeros(GRID1.shape, dtype=complex)))
            assert lhs == 0.0 and rhs == 0.0

    def test_zero_weight_kills_interp1(self):
        case = IneqCase("interp1", P1, GRID1, ConstantWeight(0.0))
        lhs, rhs = lhs_rhs(case, Field(P1, GRID1, gaussian(GRID1)))
        assert lhs == 0.0 and rhs == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvariantError, match="nonnegative"):
            IneqCase("interp1", P1, GRID1, ConstantWeight(-1.0))

    def test_homogeneity_of_interp1(self):
        # both sides scale as lambda^p under f -> lambda f
        case = IneqCase("interp1", P1, GRID1, RadialWeight("gaussian_bump", 2.0))
        u = gaussian(GRID1, scale=1.2, shift=0.5, mod=0.3)
        l1, r1 = lhs_rhs(case, Field(P1, GRID1, u))
        l2, r2 = lhs_rhs(case, Field(P1, GRID1, 3.0 * u))
        assert l2 / l1 == pytest.approx(3.0**P1.p, rel=1e-10)
        assert r2 / r1 == pytest.approx(3.0**P1.p, rel=1e-10)
        assert l1 / r1 == pytest.approx(l2 / r2, rel=1e-10)

    def test_gn_ratio_is_scaling_invariant(self):
        # f_lam = lam^(N/2) f(lam x): Gaussian widths rescale analytically
        case = IneqCase("gn", P1, GRID1)
        ratios = []
        for lam in (0.5, 1.0, 2.0):
            u = lam**0.5 * gaussian(GRID1, scale=1.0 / lam)
            lhs, rhs = lhs_rhs(case, Field(P1, GRID1, u))
            ratios.append(lhs / rhs)
        assert max(ratios) / min(ratios) - 1.0 < 1e-6

    def test_otn1_positive_finite_ratio(self):
        prof = build_cutoff(default_k(P1), 2.0, P1)
        case = IneqCase("otn1", P1, GRID1, RadialWeight("paper_Phi2", profile=prof))
        lhs, rhs = lhs_rhs(case, Field(P1, GRID1, gaussian(GRID1, shift=1.0)))
        assert 0.0 < lhs / rhs < np.inf

    def test_interp2_runs_in_dimension_two(self):
        params = ProblemParams(2, 1.0)
        grid = Grid(2, 8.0, 64)
        case = IneqCase("interp2", params, grid, RadialWeight("gaussian_bump", 2.0))
        lhs, rhs = lhs_rhs(case, Field(params, grid, gaussian(grid)))
        assert 0.0 < lhs / rhs < np.inf


class TestEstimateConstant:
    CASE = IneqCase("interp1", P1, GRID1, RadialWeight("gaussian_bump", 3.0))

    def test_deterministic_for_fixed_seed(self):
        a = estimate_constant(self.CASE, 25, seed=7)
        b = estimate_constant(self.CASE, 25, seed=7)
        assert a.c_hat == b.c_hat
        assert np.array_equal(a.ratios, b.ratios)

    def test_monotone_in_trials(self):
        a = estimate_constant(self.CASE, 20, seed=3)
        b = estimate_constant(self.CASE, 60, seed=3)
        assert b.c_hat >= a.c_hat
        assert np.array_equal(b.ratios[:20], a.ratios)

    def test_c_hat_bounds_all_ratios(self):
        est = estimate_constant(self.CASE, 40, seed=0)
        assert est.c_hat >= np.max(est.ratios)

    def test_rejects_zero_trials(self):
        with pytest.raises(InvariantError):
            estimate_constant(self.CASE, 0, seed=0)

    def test_translation_sweep_stays_bounded(self):
        # Gaussians translated past the weight's support edge never beat
        # the family estimate by more than 1%
        est = estimate_constant(self.CASE, 200, seed=0)
        cap = est.c_hat * 1.01
        for c in np.linspace(0.0, 9.0, 10):
            u = gaussian(GRID1, scale=1.0, shift=float(c))
            lhs, rhs = lhs_rhs(self.CASE, Field(P1, GRID1, u))
            assert lhs / rhs <= cap
