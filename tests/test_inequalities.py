"""Weighted interpolation and Gagliardo-Nirenberg ratio checks."""

import numpy as np
import pytest

from inlslab import inequalities
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

    @pytest.mark.parametrize("scale", [-2.0, 0.0, np.inf, np.nan])
    def test_bad_scale_rejected(self, scale):
        # a negative scale acted as its absolute value, inf made the weight
        # 1 everywhere, 0 divided by zero and nan ended as a vanishing RHS
        with pytest.raises(InvariantError, match="positive and finite"):
            RadialWeight("gaussian_bump", scale)

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
            lhs, rhs = lhs_rhs(case, np.zeros(GRID1.shape, dtype=complex))
            assert lhs == 0.0 and rhs == 0.0

    def test_zero_weight_kills_interp1(self):
        case = IneqCase("interp1", P1, GRID1, ConstantWeight(0.0))
        lhs, rhs = lhs_rhs(case, gaussian(GRID1))
        assert lhs == 0.0 and rhs == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvariantError, match="nonnegative"):
            IneqCase("interp1", P1, GRID1, ConstantWeight(-1.0))

    @pytest.mark.parametrize("c", [np.inf, np.nan])
    def test_nonfinite_weight_rejected(self, c):
        with pytest.raises(InvariantError, match="finite and nonnegative"):
            IneqCase("interp1", P1, GRID1, ConstantWeight(c))

    def test_homogeneity_of_interp1(self):
        # both sides scale as lambda^p under f -> lambda f
        case = IneqCase("interp1", P1, GRID1, RadialWeight("gaussian_bump", 2.0))
        u = gaussian(GRID1, scale=1.2, shift=0.5, mod=0.3)
        l1, r1 = lhs_rhs(case, u)
        l2, r2 = lhs_rhs(case, 3.0 * u)
        assert l2 / l1 == pytest.approx(3.0**P1.p, rel=1e-10)
        assert r2 / r1 == pytest.approx(3.0**P1.p, rel=1e-10)
        assert l1 / r1 == pytest.approx(l2 / r2, rel=1e-10)

    def test_gn_ratio_is_scaling_invariant(self):
        # f_lam = lam^(N/2) f(lam x): Gaussian widths rescale analytically
        case = IneqCase("gn", P1, GRID1)
        ratios = []
        for lam in (0.5, 1.0, 2.0):
            u = lam**0.5 * gaussian(GRID1, scale=1.0 / lam)
            lhs, rhs = lhs_rhs(case, u)
            ratios.append(lhs / rhs)
        assert max(ratios) / min(ratios) - 1.0 < 1e-6

    def test_otn1_positive_finite_ratio(self):
        prof = build_cutoff(default_k(P1), 2.0, P1)
        case = IneqCase("otn1", P1, GRID1, RadialWeight("paper_Phi2", profile=prof))
        lhs, rhs = lhs_rhs(case, gaussian(GRID1, shift=1.0))
        assert 0.0 < lhs / rhs < np.inf

    def test_interp2_runs_in_dimension_two(self):
        params = ProblemParams(2, 1.0)
        grid = Grid(2, 8.0, 64)
        case = IneqCase("interp2", params, grid, RadialWeight("gaussian_bump", 2.0))
        lhs, rhs = lhs_rhs(case, gaussian(grid))
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

    def test_builds_no_field(self, monkeypatch):
        # each trial member goes to lhs_rhs as a bare array
        built = []
        post_init = Field.__post_init__
        monkeypatch.setattr(Field, "__post_init__", lambda f: built.append(1) or post_init(f))
        est = estimate_constant(self.CASE, 10, seed=0)
        assert est.ratios.size == 10 and built == []

    def test_translation_sweep_stays_bounded(self):
        # Gaussians translated past the weight's support edge never beat
        # the family estimate by more than 1%
        est = estimate_constant(self.CASE, 200, seed=0)
        cap = est.c_hat * 1.01
        for c in np.linspace(0.0, 9.0, 10):
            u = gaussian(GRID1, scale=1.0, shift=float(c))
            lhs, rhs = lhs_rhs(self.CASE, u)
            assert lhs / rhs <= cap


# the interp-check cases of the benchmark's verify_suite, on the CLI's grids
VERIFY_CASES = [("interp1", 1, 0.5), ("interp1", 3, 0.5), ("interp2", 2, 1.0), ("otn1", 1, 0.5),
                ("gn", 1, 0.5)]
CLI_POINTS = {1: 1024, 2: 128, 3: 48}


def cli_case(which, N, b):
    grid = Grid(N, 12.0, CLI_POINTS[N])
    return IneqCase(which, ProblemParams(N, b), grid, RadialWeight("gaussian_bump", 3.0))


def holding_lhs_rhs(case, u):
    """lhs_rhs holding every gradient component and |u| at once: the
    reference the streamed form must match bit for bit."""
    grid, params = case.grid, case.params
    N, b = params.ndim, params.b

    def quad(arr):
        return grid.cell_volume * float(np.sum(arr))

    absu = np.abs(u)
    grads = case.plan.gradient_arrays(u)
    grad2 = sum(np.abs(g) ** 2 for g in grads)
    l2 = np.sqrt(quad(absu**2))
    if case.which == "gn":
        sigma = (2.0 - b) / N
        lhs = quad(absu ** (2.0 * sigma + 2.0))
        gn = np.sqrt(quad(grad2))
        return lhs, gn ** (N * sigma) * l2 ** (2.0 + sigma * (2.0 - N))
    term = np.sqrt(quad(case.dpow2 * absu**2))
    if case.which == "interp2":
        term = np.sqrt(quad(case.w2e * absu**2)) + term
    term = term + np.sqrt(quad(case.w2e * grad2))
    if case.which == "otn1":
        return float(np.max(case.w_half_e * absu)), np.sqrt(l2) * np.sqrt(term)
    if case.which == "interp1":
        lhs = quad(case.w * absu**params.p)
        return lhs, term ** (2.0 - b) * l2 ** ((4.0 + b * (N - 2.0)) / N)
    lhs = quad(case.w * absu ** (4.0 - b))
    return lhs, term ** (2.0 - b / 2.0) * l2 ** (2.0 - b / 2.0)


def summed_bandlimited_member(grid, rng):
    """The band-limited member from a summed spectrum, normalized into a new
    array: the reference for the in-place builder."""
    M = grid.points_per_axis
    cut = max(M // 8, 2)
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    m = np.fft.fftfreq(M) * M
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.ndim):
        sh = [1] * grid.ndim
        sh[axis] = M
        mask &= np.abs(m.reshape(sh)) <= cut
    spec[~mask] = 0.0
    u = np.fft.ifftn(spec, out=spec)
    return u / np.max(np.abs(u))


class TestStreamedEstimate:
    @pytest.mark.parametrize("which, N, b", VERIFY_CASES)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_the_holding_form(self, monkeypatch, which, N, b, seed):
        case = cli_case(which, N, b)
        est = estimate_constant(case, 50, seed)
        monkeypatch.setattr(inequalities, "lhs_rhs", holding_lhs_rhs)
        monkeypatch.setattr(inequalities, "_bandlimited_member", summed_bandlimited_member)
        ref = estimate_constant(case, 50, seed)
        assert est.c_hat == ref.c_hat
        assert est.ratios.tobytes() == ref.ratios.tobytes()
        assert est.argmax == ref.argmax

    def test_3d_interp1_keeps_few_fields(self, traced_peak):
        # one gradient component alive at a time and each member freed
        # before the next is built: 4.5 fields (16 bytes a point) here, the
        # case's weight factors included. Holding all three components
        # peaked at 8.0, and keeping one component alive while the next is
        # formed at 5.1. A first untraced estimate does the lazy imports.
        estimate_constant(cli_case("interp1", 3, 0.5), 1, 0)
        with traced_peak() as traced:
            case = cli_case("interp1", 3, 0.5)
            estimate_constant(case, 50, 0)
        assert traced.peak < 5 * 16 * case.grid.size
