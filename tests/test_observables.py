"""Conserved quantities and localized virial diagnostics, checked against
closed forms, independent quadrature, and time finite differences."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from inlslab.core import Field, Grid, InitialData, ProblemParams, realize
from inlslab.cutoff import build_cutoff, default_k
from inlslab import observables
from inlslab.observables import (
    CSV_COLUMNS,
    GridWeights,
    ProfileOnGrid,
    conservation,
    sample,
    virial_z_second,
)
from inlslab.spectral import SpectralPlan

from test_spectral import GRIDS, PROPERTY, SEEDS

PARAMS = ProblemParams(1, 0.5)


def make(grid, values):
    return Field(PARAMS, grid, np.asarray(values, dtype=complex))


def virial(f, prof, pg=None, plan=None):
    """The single-radius VirialReport for one profile."""
    gw = GridWeights(f.grid, f.params)
    pg = pg or ProfileOnGrid(prof, gw)
    plan = plan or SpectralPlan(f.grid)
    energy = conservation(plan, f, gw).energy
    return virial_z_second(plan, f, gw, {prof.R: pg}, energy)[prof.R]


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 20.0, 2048)


@pytest.fixture(scope="module")
def plan(grid):
    return SpectralPlan(grid)


@pytest.fixture(scope="module")
def gw(grid):
    return GridWeights(grid, PARAMS)


class TestConservation:
    def test_zero_field(self, grid, plan, gw):
        rep = conservation(plan, make(grid, np.zeros(grid.shape)), gw)
        assert rep.mass == 0.0 and rep.energy == 0.0

    def test_energy_identity(self, grid, plan, gw):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(grid.shape) * np.exp(-grid.radii() ** 2)
        rep = conservation(plan, make(grid, u), gw)
        assert rep.energy == pytest.approx(
            0.5 * rep.kinetic - PARAMS.energy_coefficient * rep.potential_weighted, rel=1e-14
        )

    def test_gaussian_mass_and_kinetic_closed_form(self, grid, plan, gw):
        A = 0.7
        x = grid.axis_coords()
        rep = conservation(plan, make(grid, A * np.exp(-(x**2) / 2.0)), gw)
        assert rep.mass == pytest.approx(A**2 * np.sqrt(np.pi), rel=1e-12)
        assert rep.kinetic == pytest.approx(A**2 * np.sqrt(np.pi) / 2.0, rel=1e-12)

    def test_potential_converges_to_quadrature_oracle(self, plan):
        # int |x|^(-1/2) exp(-5 x^2 / 2) dx, p = 5 for N=1, b=0.5. The
        # integrand has a |x|^(-b) cusp, so the rectangle rule converges
        # at O(h^(1-b)); the check is agreement plus the expected rate.
        oracle = quad(
            lambda s: abs(s) ** -0.5 * np.exp(-2.5 * s**2), -30.0, 30.0, points=[0.0]
        )[0]
        errs = []
        for M in (2048, 8192, 32768):
            g = Grid(1, 20.0, M)
            x = g.axis_coords()
            rep = conservation(
                SpectralPlan(g), make(g, np.exp(-(x**2) / 2.0)), GridWeights(g, PARAMS)
            )
            errs.append(abs(rep.potential_weighted - oracle) / oracle)
        assert errs[0] < 0.1
        assert errs[2] < errs[1] < errs[0]
        # each 4x refinement should shrink the error by about 4^(1-b) = 2
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)


class TestVirialZ:
    def test_zero_field(self, grid):
        prof = build_cutoff(5, 4.0, PARAMS)
        assert virial(make(grid, np.zeros(grid.shape)), prof).zR == 0.0

    def test_inner_support_equals_second_moment(self, grid):
        prof = build_cutoff(5, 8.0, PARAMS)
        x = grid.axis_coords()
        u = np.exp(-(x**2))  # numerically supported well inside |x| <= 4
        z = virial(make(grid, u), prof).zR
        direct = grid.cell_volume * np.sum(x**2 * np.abs(u) ** 2)
        assert z == pytest.approx(direct, rel=1e-12)

    def test_upper_bound_on_random_fields(self, grid, gw):
        prof = build_cutoff(5, 2.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        plan = SpectralPlan(grid)
        rng = np.random.default_rng(5)
        # v >= 0 up to 2, zero after: phi is nondecreasing, flat beyond 2
        cap = prof.R**2 * float(prof.phi(2.0))
        for _ in range(20):
            spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            spec[np.abs(np.fft.fftfreq(grid.size) * grid.size) > 64] = 0.0
            u = np.fft.ifftn(spec)
            f = make(grid, u)
            mass = conservation(plan, f, gw).mass
            assert virial(f, prof, pg, plan).zR <= cap * mass * (1.0 + 1e-12)


class TestVirialZPrime:
    def test_real_field_gives_zero(self, grid, plan):
        prof = build_cutoff(5, 2.0, PARAMS)
        x = grid.axis_coords()
        assert virial(make(grid, np.exp(-(x**2))), prof, plan=plan).zR_prime == pytest.approx(
            0.0, abs=1e-14
        )

    def test_matches_time_finite_difference_under_free_flow(self, grid, plan, gw):
        # d/dt of z_R under the free flow obeys the same first identity
        prof = build_cutoff(5, 2.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        x = grid.axis_coords()
        # off-center moving packet: a centered one has z'(0) = 0 by symmetry
        u0 = np.exp(-((x - 1.0) ** 2) / 2.0) * np.exp(0.3j * x)
        f = make(grid, u0)
        zp = virial(f, prof, pg, plan).zR_prime

        def z_at(t):
            return virial(make(grid, plan.free_propagate_array(u0, t)), prof, pg, plan).zR

        errs = []
        for delta in (1e-3, 5e-4):
            fd = (z_at(delta) - z_at(-delta)) / (2.0 * delta)
            errs.append(abs(fd - zp))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


class TestVirialZSecond:
    def test_zero_field_all_zero(self, grid, plan, gw):
        prof = build_cutoff(5, 2.0, PARAMS)
        rep = virial(make(grid, np.zeros(grid.shape)), prof, plan=plan)
        assert rep.zR == rep.zR_prime == rep.zR_second_formula == 0.0
        assert rep.K1 == rep.K2 == rep.K3 == 0.0
        assert np.isnan(rep.alpha_check)

    def test_k_signs_on_random_fields(self, grid, plan, gw):
        prof = build_cutoff(5, 2.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        rng = np.random.default_rng(9)
        for _ in range(10):
            spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            spec[np.abs(np.fft.fftfreq(grid.size) * grid.size) > 100] = 0.0
            u = np.fft.ifftn(spec)
            rep = virial(make(grid, u), prof, pg, plan)
            assert rep.K1 <= 1e-12 * abs(rep.zR_second_formula)
            assert rep.K2 >= 0.0

    def test_inner_support_kills_correction_terms(self, grid, plan, gw):
        prof = build_cutoff(5, 8.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        x = grid.axis_coords()
        rep = virial(make(grid, 0.8 * np.exp(-(x**2))), prof, pg, plan)
        scale = abs(rep.zR_second_formula)
        assert abs(rep.K1) < 1e-10 * scale
        assert abs(rep.K2) < 1e-10 * scale
        assert abs(rep.K3) < 1e-10 * scale

    def test_k3_bounded_by_bilaplacian_estimate(self, grid, plan, gw):
        from inlslab.cutoff import bilaplacian_sup

        prof = build_cutoff(5, 2.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        x = grid.axis_coords()
        f = make(grid, np.exp(-(x**2) / 8.0))
        rep = virial(f, prof, pg, plan)
        mass = conservation(plan, f, gw).mass
        assert abs(rep.K3) <= bilaplacian_sup(prof, 10**5) * mass * (1.0 + 1e-9)

    def test_closure_coefficient_same_for_distinct_fields(self, grid, plan, gw):
        prof = build_cutoff(5, 8.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        x = grid.axis_coords()
        fields = [
            0.8 * np.exp(-(x**2)),
            0.5 * np.exp(-((x - 0.7) ** 2) / 0.8) * np.exp(0.4j * x),
            0.6 * np.exp(-(x**2) / 1.3) + 0.3 * np.exp(-((x + 1.1) ** 2)),
        ]
        alphas = [
            virial(make(grid, u), prof, pg, plan).alpha_check for u in fields
        ]
        assert np.max(np.abs(np.diff(alphas))) < 1e-9 * abs(alphas[0])

    def test_formula_matches_term_sum_for_shifted_field(self, grid, plan, gw):
        # non-radial data exercises the Cartesian x . grad u assembly
        prof = build_cutoff(5, 2.0, PARAMS)
        x = grid.axis_coords()
        rep = virial(make(grid, np.exp(-((x - 0.5) ** 2)) * np.exp(0.2j * x)), prof, plan=plan)
        assert np.isfinite(rep.zR_second_formula)
        assert rep.zR >= 0.0


class TestMultiDimension:
    def test_2d_inner_support_second_moment(self):
        params = ProblemParams(2, 1.0)
        grid = Grid(2, 8.0, 128)
        prof = build_cutoff(default_k(params), 4.0, params)
        r2 = sum(c**2 for c in grid.coords())
        u = np.exp(-r2)
        z = virial(Field(params, grid, u + 0.0j), prof).zR
        direct = grid.cell_volume * np.sum(r2 * np.abs(u) ** 2)
        assert z == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("ndim,b,M", [(1, 0.5, 2048), (2, 1.0, 64)])
def test_one_pass_matches_single_radius_calls(ndim, b, M):
    params = ProblemParams(ndim, b)
    grid = Grid(ndim, 8.0, M)
    plan = SpectralPlan(grid)
    gw = GridWeights(grid, params)
    pgs = {R: ProfileOnGrid(build_cutoff(default_k(params), R, params), gw) for R in (1.0, 2.0, 4.0)}
    r2 = sum((x - 0.4) ** 2 for x in grid.coords())
    f = Field(params, grid, 0.7 * np.exp(-r2) * np.exp(0.3j * grid.coords()[0]))
    energy = conservation(plan, f, gw).energy
    fused = virial_z_second(plan, f, gw, pgs, energy)
    assert list(fused) == [1.0, 2.0, 4.0]
    for R, pg in pgs.items():
        assert fused[R] == virial_z_second(plan, f, gw, {R: pg}, energy)[R]


def test_csv_column_order_is_fixed():
    assert CSV_COLUMNS == [
        "t",
        "dt",
        "mass",
        "energy",
        "grad_norm",
        "sup_norm",
        "zR",
        "zR_prime",
        "zR_second_formula",
        "zR_second_fd",
        "K1",
        "K2",
        "K3",
        "alpha_check",
    ]


def test_sample_row_is_keyed_by_csv_columns(grid, plan):
    gw = GridWeights(grid, PARAMS)
    pgs = {R: ProfileOnGrid(build_cutoff(5, R, PARAMS), gw) for R in (2.0, 4.0)}
    f = make(grid, 0.5 * np.exp(-((grid.coords()[0] - 0.3) ** 2)) * np.exp(0.2j * grid.coords()[0]))
    row = sample(plan, f, gw, pgs, 0.25, 1e-3).row(4.0, -1.5)
    assert list(row) == CSV_COLUMNS
    cons = conservation(plan, f, gw)
    v = virial_z_second(plan, f, gw, pgs, cons.energy)[4.0]
    assert (row["t"], row["dt"], row["zR_second_fd"]) == (0.25, 1e-3, -1.5)
    assert (row["mass"], row["energy"]) == (cons.mass, cons.energy)
    assert row["grad_norm"] == np.sqrt(cons.kinetic)
    assert row["sup_norm"] == np.max(np.abs(f.values))
    for name in ("zR", "zR_prime", "zR_second_formula", "K1", "K2", "K3", "alpha_check"):
        assert row[name] == getattr(v, name)


def test_sample_calls_through_module_names(grid, plan, monkeypatch):
    # wrappers set on the module, such as a profiler's, see every sample
    calls = []
    for name in ("conservation", "virial_z_second"):
        orig = getattr(observables, name)
        monkeypatch.setattr(
            observables, name, lambda *a, _orig=orig, _name=name: calls.append(_name) or _orig(*a)
        )
    gw = GridWeights(grid, PARAMS)
    pgs = {2.0: ProfileOnGrid(build_cutoff(5, 2.0, PARAMS), gw)}
    sample(plan, make(grid, np.exp(-grid.coords()[0] ** 2)), gw, pgs, 0.0, 1e-3)
    assert calls == ["conservation", "virial_z_second"]


def test_grid_weights_radius_power(grid):
    gw = GridWeights(grid, PARAMS)
    assert np.allclose(gw.w_b, grid.radii() ** -0.5)
    assert gw.quad == grid.cell_volume


def direct_weights(prof, gw):
    """Every virial weight but phi_R, evaluated the direct way at every grid
    point from the profile's own evaluators, shaped like the grid."""
    N, b = gw.params.ndim, gw.params.b
    r = gw.r
    dphi_over_r = prof.dphi_R_over_r(r)
    d2phi = prof.d2phi_R(r)
    return {
        "dphi_over_r": dphi_over_r,
        "bilap": prof.bilaplacian_phi_R(r),
        "aniso": (d2phi - dphi_over_r) / r**2,
        "w_t4": -d2phi - (N - 1.0 + b * N / (2.0 - b)) * dphi_over_r,
        "w_K1": 2.0 - dphi_over_r,
        "w_K2": (2.0 - b) * (2.0 - d2phi) + (2.0 * N - 2.0 + b) * (2.0 - dphi_over_r),
    }


def outside_box(pg, shape):
    mask = np.ones(shape, dtype=bool)
    mask[pg.box] = False
    return mask


def test_profile_on_grid_arrays_match_profile(grid, gw):
    # a box inside the grid, an empty box (2R under the first cell centre)
    # and a box that holds the whole grid
    for R, held in ((2.0, 410), (1e-3, 0), (20.0, grid.size)):
        prof = build_cutoff(5, R, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        # the box is the index range of the cell centres with |x| < 2R
        x = grid.axis_coords()
        inside = np.zeros(grid.size, dtype=bool)
        inside[pg.box] = True
        assert np.array_equal(inside, np.abs(x) < 2.0 * prof.R)
        assert np.count_nonzero(inside) == held
        assert np.array_equal(pg.phi_R, prof.phi_R(gw.r.ravel()))
        outside = outside_box(pg, grid.shape)
        tails = {"w_K1": pg.K1_tail, "w_K2": pg.K2_tail}
        for name, w in direct_weights(prof, gw).items():
            assert np.array_equal(getattr(pg, name), w[pg.box]), name
            # exactly 0, or the constant tail, outside the box
            assert np.all(w[outside] == tails.get(name, 0.0)), name


@pytest.mark.parametrize("ndim,b,M", [(1, 0.5, 2048), (2, 1.0, 64), (3, 0.5, 16)])
@pytest.mark.parametrize("R", [0.5, 2.0, 4.0])
def test_weights_match_the_closed_form_phi1_and_phi2(ndim, b, M, R):
    # w_K1 and w_K2 difference the profile; phi1 and phi2 are closed forms
    # per region, so the two sides share no arithmetic
    params = ProblemParams(ndim, b)
    grid = Grid(ndim, 8.0, M)
    gw = GridWeights(grid, params)
    prof = build_cutoff(default_k(params), R, params)
    pg = ProfileOnGrid(prof, gw)
    direct = direct_weights(prof, gw)
    outside = outside_box(pg, grid.shape)
    r = gw.r
    for name, tail, closed in (
        ("w_K1", pg.K1_tail, prof.phi1(r) / 4.0),
        ("w_K2", pg.K2_tail, prof.phi2(r) * (ndim + 2.0 - b) / 2.0),
    ):
        box_weight = getattr(pg, name)
        assert np.array_equal(box_weight, direct[name][pg.box])
        assert np.all(direct[name][outside] == tail)
        on_grid = np.full(grid.shape, tail)
        on_grid[pg.box] = box_weight
        assert np.max(np.abs(on_grid - closed)) <= 1e-13


# A box sum rounds differently from the full-grid sum of the same
# products; pairwise summation keeps both within a few eps of the sum of
# the magnitudes. K1 and K2 also add c (sum of d - box sum of d) for their
# constant weight c outside the box, which rounds on the scale of c times
# the sum of d. 64 eps of these scales is far below a wrong tail, which
# moves K1 by O(kinetic) and K2 by O(potential).
ROUNDING = 64 * np.finfo(float).eps


def reference_virials(plan, f, gw, profiles):
    """R -> (VirialReport, scales) by the per-radius formulas, each sum a
    separate np.sum over the whole grid of shaped arrays from the profile's
    own evaluators. scales maps each column but z_R and z_R' to the sum of
    |weight * density| over its terms, the tails' constant weights times
    their full-grid density sums included: the scale of its rounding
    error."""
    params = f.params
    quad = gw.quad
    N, b = params.ndim, params.b
    cN = N + 2.0 - b
    coef = (4.0 - 2.0 * b) / cN
    grads, xdot = plan.radial_derivative_arrays(f.values)
    grad2 = sum(np.abs(g) ** 2 for g in grads)
    xdot2 = np.abs(xdot) ** 2
    absu2 = np.abs(f.values) ** 2
    wup = gw.w_b * absu2 ** (params.p / 2.0)
    conj_u = np.conj(f.values)
    energy = conservation(plan, f, gw).energy

    def weighted(c, w, d):
        p = w * d
        return c * quad * float(np.sum(p)), abs(c) * quad * float(np.sum(np.abs(p)))

    out = {}
    for prof in profiles:
        w = direct_weights(prof, gw)
        t1, s1 = weighted(4.0, w["dphi_over_r"], grad2)
        t2, s2 = weighted(4.0, w["aniso"], xdot2)
        t3, s3 = weighted(-1.0, w["bilap"], absu2)
        t4, s4 = weighted(coef, w["w_t4"], wup)
        z_second = t1 + t2 + t3 + t4
        K1, sK1 = weighted(-4.0, w["w_K1"], grad2)
        K1 += t2
        K2, sK2 = weighted(2.0 / cN, w["w_K2"], wup)
        alpha = (z_second - K1 - K2 - t3) / energy
        # the K1 and K2 weights at r >= 2R
        K1_tail = weighted(-4.0, 2.0, grad2)[1]
        K2_tail = weighted(2.0 / cN, (2.0 - b) * 2.0 + (2.0 * N - 2.0 + b) * 2.0, wup)[1]
        scales = {
            "zR_second_formula": s1 + s2 + s3 + s4,
            "K1": sK1 + s2 + K1_tail,
            "K2": sK2 + K2_tail,
            "K3": s3,
        }
        scales["alpha_check"] = sum(scales.values()) * 2.0 / abs(energy) + abs(alpha)
        out[prof.R] = (
            observables.VirialReport(
                zR=quad * float(np.sum(prof.phi_R(gw.r) * absu2)),
                zR_prime=2.0 * quad * float(np.sum((w["dphi_over_r"] * xdot * conj_u).imag)),
                zR_second_formula=z_second,
                K1=K1,
                K2=K2,
                K3=t3,
                alpha_check=alpha,
            ),
            scales,
        )
    return out


def assert_matches_reference(got, ref):
    for R, (want, scales) in ref.items():
        # the same products summed in the same order, so the same bits: a
        # second difference in time of z_R multiplies any change in its
        # rounding by 4/h^2
        assert got[R].zR == want.zR, R
        # z_R' forms its integrand differently
        assert abs(got[R].zR_prime - want.zR_prime) <= 1e-10 * max(1.0, abs(want.zR_prime)), R
        for name, scale in scales.items():
            err = abs(getattr(got[R], name) - getattr(want, name))
            assert err <= ROUNDING * scale, (R, name, err, scale)


@pytest.mark.parametrize("ndim,b,M", [(1, 0.5, 2048), (2, 1.0, 64)])
def test_weighted_sums_match_the_per_radius_formulas(ndim, b, M):
    params = ProblemParams(ndim, b)
    grid = Grid(ndim, 8.0, M)
    plan = SpectralPlan(grid)
    gw = GridWeights(grid, params)
    profiles = [build_cutoff(default_k(params), R, params) for R in (0.5, 2.0, 4.0)]
    pgs = {p.R: ProfileOnGrid(p, gw) for p in profiles}
    r2 = sum((x - 0.4) ** 2 for x in grid.coords())
    f = Field(params, grid, 0.9 * np.exp(-r2 / 2.0) * np.exp(0.3j * grid.coords()[0]))
    got = virial_z_second(plan, f, gw, pgs, conservation(plan, f, gw).energy)
    assert_matches_reference(got, reference_virials(plan, f, gw, profiles))


@PROPERTY
@given(grid=GRIDS, b=st.sampled_from([0.5, 1.0, 1.5]), scale=st.floats(0.01, 0.6), seed=SEEDS)
def test_box_sums_match_full_grid_sums(grid, b, scale, seed):
    # radii from boxes of no point or one to a box that covers the grid
    # (R >= L/2), on fields with mass everywhere, so every tail is exercised
    params = ProblemParams(grid.ndim, b)
    prof = build_cutoff(default_k(params), scale * grid.half_width, params)
    plan = SpectralPlan(grid)
    gw = GridWeights(grid, params)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = Field(params, grid, u)
    got = virial_z_second(plan, f, gw, {prof.R: ProfileOnGrid(prof, gw)}, conservation(plan, f, gw).energy)
    assert_matches_reference(got, reference_virials(plan, f, gw, [prof]))
