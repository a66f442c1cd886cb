"""Conserved quantities and localized virial diagnostics, checked against
closed forms, independent quadrature, and time finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

from inlslab.core import Field, Grid, InitialData, InvariantError, ProblemParams, realize
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
from inlslab.spectral import abs_pow

from test_spectral import GRIDS, PROPERTY, SEEDS

PARAMS = ProblemParams(1, 0.5)


def make(grid, values):
    return Field(PARAMS, grid, np.asarray(values, dtype=complex))


def virial(f, prof, pg=None):
    """The single-radius VirialReport for one profile."""
    gw = GridWeights(f.grid, f.params)
    pg = pg or ProfileOnGrid(prof, gw)
    energy = conservation(f.values, gw).energy
    return virial_z_second(f.values, gw, {prof.R: pg}, energy)[prof.R]


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 20.0, 2048)


@pytest.fixture(scope="module")
def gw(grid):
    return GridWeights(grid, PARAMS)


class TestConservation:
    def test_zero_field(self, grid, gw):
        rep = conservation(make(grid, np.zeros(grid.shape)).values, gw)
        assert rep.mass == 0.0 and rep.energy == 0.0

    def test_energy_identity(self, grid, gw):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(grid.shape) * np.exp(-grid.radii() ** 2)
        rep = conservation(make(grid, u).values, gw)
        assert rep.energy == pytest.approx(
            0.5 * rep.kinetic - PARAMS.energy_coefficient * rep.potential_weighted, rel=1e-14
        )

    def test_gaussian_mass_and_kinetic_closed_form(self, grid, gw):
        A = 0.7
        x = grid.axis_coords()
        rep = conservation(make(grid, A * np.exp(-(x**2) / 2.0)).values, gw)
        assert rep.mass == pytest.approx(A**2 * np.sqrt(np.pi), rel=1e-12)
        assert rep.kinetic == pytest.approx(A**2 * np.sqrt(np.pi) / 2.0, rel=1e-12)

    def test_potential_converges_to_quadrature_oracle(self):
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
            rep = conservation(make(g, np.exp(-(x**2) / 2.0)).values, GridWeights(g, PARAMS))
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
        rng = np.random.default_rng(5)
        # v >= 0 up to 2, zero after: phi is nondecreasing, flat beyond 2
        cap = prof.R**2 * float(prof.phi(2.0))
        for _ in range(20):
            spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            spec[np.abs(np.fft.fftfreq(grid.size) * grid.size) > 64] = 0.0
            u = np.fft.ifftn(spec)
            f = make(grid, u)
            mass = conservation(f.values, gw).mass
            assert virial(f, prof, pg).zR <= cap * mass * (1.0 + 1e-12)


class TestVirialZPrime:
    def test_real_field_gives_zero(self, grid):
        prof = build_cutoff(5, 2.0, PARAMS)
        x = grid.axis_coords()
        assert virial(make(grid, np.exp(-(x**2))), prof).zR_prime == pytest.approx(
            0.0, abs=1e-14
        )

    def test_matches_time_finite_difference_under_free_flow(self, grid, gw):
        # d/dt of z_R under the free flow obeys the same first identity
        prof = build_cutoff(5, 2.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        x = grid.axis_coords()
        # off-center moving packet: a centered one has z'(0) = 0 by symmetry
        u0 = np.exp(-((x - 1.0) ** 2) / 2.0) * np.exp(0.3j * x)
        f = make(grid, u0)
        zp = virial(f, prof, pg).zR_prime

        def z_at(t):
            return virial(make(grid, gw.plan.free_propagate_array(u0, t)), prof, pg).zR

        errs = []
        for delta in (1e-3, 5e-4):
            fd = (z_at(delta) - z_at(-delta)) / (2.0 * delta)
            errs.append(abs(fd - zp))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


class TestVirialZSecond:
    def test_zero_field_all_zero(self, grid, gw):
        prof = build_cutoff(5, 2.0, PARAMS)
        rep = virial(make(grid, np.zeros(grid.shape)), prof)
        assert rep.zR == rep.zR_prime == rep.zR_second_formula == 0.0
        assert rep.K1 == rep.K2 == rep.K3 == 0.0
        assert np.isnan(rep.alpha_check)

    def test_k_signs_on_random_fields(self, grid, gw):
        prof = build_cutoff(5, 2.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        rng = np.random.default_rng(9)
        for _ in range(10):
            spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            spec[np.abs(np.fft.fftfreq(grid.size) * grid.size) > 100] = 0.0
            u = np.fft.ifftn(spec)
            rep = virial(make(grid, u), prof, pg)
            assert rep.K1 <= 1e-12 * abs(rep.zR_second_formula)
            assert rep.K2 >= 0.0

    def test_inner_support_kills_correction_terms(self, grid, gw):
        prof = build_cutoff(5, 8.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        x = grid.axis_coords()
        rep = virial(make(grid, 0.8 * np.exp(-(x**2))), prof, pg)
        scale = abs(rep.zR_second_formula)
        assert abs(rep.K1) < 1e-10 * scale
        assert abs(rep.K2) < 1e-10 * scale
        assert abs(rep.K3) < 1e-10 * scale

    def test_k3_bounded_by_bilaplacian_estimate(self, grid, gw):
        from inlslab.cutoff import bilaplacian_sup

        prof = build_cutoff(5, 2.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        x = grid.axis_coords()
        f = make(grid, np.exp(-(x**2) / 8.0))
        rep = virial(f, prof, pg)
        mass = conservation(f.values, gw).mass
        assert abs(rep.K3) <= bilaplacian_sup(prof, 10**5) * mass * (1.0 + 1e-9)

    def test_closure_coefficient_same_for_distinct_fields(self, grid, gw):
        prof = build_cutoff(5, 8.0, PARAMS)
        pg = ProfileOnGrid(prof, gw)
        x = grid.axis_coords()
        fields = [
            0.8 * np.exp(-(x**2)),
            0.5 * np.exp(-((x - 0.7) ** 2) / 0.8) * np.exp(0.4j * x),
            0.6 * np.exp(-(x**2) / 1.3) + 0.3 * np.exp(-((x + 1.1) ** 2)),
        ]
        alphas = [
            virial(make(grid, u), prof, pg).alpha_check for u in fields
        ]
        assert np.max(np.abs(np.diff(alphas))) < 1e-9 * abs(alphas[0])

    def test_formula_matches_term_sum_for_shifted_field(self, grid, gw):
        # non-radial data exercises the Cartesian x . grad u assembly
        prof = build_cutoff(5, 2.0, PARAMS)
        x = grid.axis_coords()
        rep = virial(make(grid, np.exp(-((x - 0.5) ** 2)) * np.exp(0.2j * x)), prof)
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
    gw = GridWeights(grid, params)
    pgs = {R: ProfileOnGrid(build_cutoff(default_k(params), R, params), gw) for R in (1.0, 2.0, 4.0)}
    r2 = sum((x - 0.4) ** 2 for x in grid.coords())
    u = 0.7 * np.exp(-r2) * np.exp(0.3j * grid.coords()[0])
    energy = conservation(u, gw).energy
    fused = virial_z_second(u, gw, pgs, energy)
    assert list(fused) == [1.0, 2.0, 4.0]
    for R, pg in pgs.items():
        assert fused[R] == virial_z_second(u, gw, {R: pg}, energy)[R]


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


def test_sample_row_is_keyed_by_csv_columns(grid):
    gw = GridWeights(grid, PARAMS)
    pgs = {R: ProfileOnGrid(build_cutoff(5, R, PARAMS), gw) for R in (2.0, 4.0)}
    u = 0.5 * np.exp(-((grid.coords()[0] - 0.3) ** 2)) * np.exp(0.2j * grid.coords()[0])
    row = sample(u, gw, pgs, 0.25, 1e-3).row(4.0, -1.5)
    assert list(row) == CSV_COLUMNS
    cons = conservation(u, gw)
    v = virial_z_second(u, gw, pgs, cons.energy)[4.0]
    assert (row["t"], row["dt"], row["zR_second_fd"]) == (0.25, 1e-3, -1.5)
    assert (row["mass"], row["energy"]) == (cons.mass, cons.energy)
    assert row["grad_norm"] == np.sqrt(cons.kinetic)
    assert row["sup_norm"] == np.max(np.abs(u))
    for name in ("zR", "zR_prime", "zR_second_formula", "K1", "K2", "K3", "alpha_check"):
        assert row[name] == getattr(v, name)


def test_sample_calls_through_module_names(grid, monkeypatch):
    # wrappers set on the module, such as a profiler's, see every sample
    calls = []
    for name in ("conservation", "virial_z_second"):
        orig = getattr(observables, name)
        monkeypatch.setattr(
            observables, name, lambda *a, _orig=orig, _name=name: calls.append(_name) or _orig(*a)
        )
    gw = GridWeights(grid, PARAMS)
    pgs = {2.0: ProfileOnGrid(build_cutoff(5, 2.0, PARAMS), gw)}
    sample(make(grid, np.exp(-grid.coords()[0] ** 2)).values, gw, pgs, 0.0, 1e-3)
    assert calls == ["conservation", "virial_z_second"]


def test_grid_weights_radius_power(grid):
    gw = GridWeights(grid, PARAMS)
    assert np.allclose(gw.w_b, grid.radii() ** -0.5)
    assert gw.quad == grid.cell_volume
    # |x|^-b is not integrable at 0 for N = 1, b >= 1; for N >= 2 it is
    for b in (1.0, 1.5):
        with pytest.raises(InvariantError, match=r"b in \(0, 1\) for N=1"):
            GridWeights(Grid(1, 8.0, 64), ProblemParams(1, b))
        GridWeights(Grid(2, 8.0, 8), ProblemParams(2, b))


def test_profile_on_grid_rejects_a_profile_for_another_problem():
    # its Phi_1, Phi_2 and bilaplacian would be those of N = 2
    gw = GridWeights(Grid(1, 8.0, 64), PARAMS)
    with pytest.raises(InvariantError, match="built for N=2, b=0.5, not N=1, b=0.5"):
        ProfileOnGrid(build_cutoff(9, 2.0, ProblemParams(2, 0.5)), gw)


def differenced(N, b, dphi_over_r, d2phi):
    """(Phi_1, Phi_2) from the profile's derivatives, the way the paper
    defines them: Phi_1 = 4 (2 - dphi/r), Phi_2 = (2/(N+2-b)) ((2-b)(2 -
    d2phi) + (2N-2+b)(2 - dphi/r)); at r >= 2R both derivatives are 0."""
    a = 2.0 - dphi_over_r
    return 4.0 * a, (2.0 / (N + 2.0 - b)) * ((2.0 - b) * (2.0 - d2phi) + (2.0 * N - 2.0 + b) * a)


def direct_weights(prof, gw):
    """Every virial weight but phi_R, evaluated the direct way at every grid
    point from the profile's own evaluators, shaped like the grid; Phi_1
    and Phi_2 by differencing, not from cutoff's closed forms."""
    N, b = gw.params.ndim, gw.params.b
    r = gw.grid.radii()
    dphi_over_r = prof.dphi_R_over_r(r)
    d2phi = prof.d2phi_R(r)
    phi1, phi2 = differenced(N, b, dphi_over_r, d2phi)
    return {
        "dphi_over_r": dphi_over_r,
        "bilap": prof.bilaplacian_phi_R(r),
        "aniso": (d2phi - dphi_over_r) / r**2,
        "w_t4": -d2phi - (N - 1.0 + b * N / (2.0 - b)) * dphi_over_r,
        "phi1": phi1,
        "phi2": phi2,
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
        # kept as [lo, hi); the empty box sits at the centre, inside every other
        assert pg.box == (slice(pg.lo, pg.hi),) and pg.hi - pg.lo == held
        if not held:
            assert pg.lo == pg.hi == grid.points_per_axis // 2
        # phi_R on the box, and its constant at r >= 2R outside it
        r = grid.radii()
        outside = outside_box(pg, grid.shape)
        assert np.array_equal(pg.phi_R, prof.phi_R(r[pg.box]))
        assert np.all(prof.phi_R(r[outside]) == pg.phi_R_outer)
        direct = direct_weights(prof, gw)
        for name in ("dphi_over_r", "bilap", "aniso", "w_t4"):
            w = direct[name]
            assert np.array_equal(getattr(pg, name), w[pg.box]), name
            assert np.all(w[outside] == 0.0), name


@pytest.mark.parametrize("ndim,b,M", [(1, 0.5, 2048), (2, 1.0, 64), (3, 0.5, 16)])
@pytest.mark.parametrize("R", [0.5, 2.0, 4.0])
def test_weights_match_the_closed_form_phi1_and_phi2(ndim, b, M, R):
    # Phi_1 and Phi_2 on the grid are cutoff's closed forms, bit for bit on
    # the box and their constants at r >= 2R outside it; direct_weights
    # differences the profile, so the cross-check shares no arithmetic
    params = ProblemParams(ndim, b)
    grid = Grid(ndim, 8.0, M)
    gw = GridWeights(grid, params)
    prof = build_cutoff(default_k(params), R, params)
    pg = ProfileOnGrid(prof, gw)
    direct = direct_weights(prof, gw)
    r = grid.radii()
    outer_r = r[outside_box(pg, grid.shape)]
    assert np.all(outer_r >= 2.0 * R)
    for name, outer, evaluator in (
        ("phi1", pg.phi1_outer, prof.phi1),
        ("phi2", pg.phi2_outer, prof.phi2),
    ):
        assert np.array_equal(getattr(pg, name), evaluator(r[pg.box])), name
        assert np.all(evaluator(outer_r) == outer), name
        assert evaluator(np.array([2.0 * R, 3.0 * R, 1e3 * R])).tolist() == [outer] * 3, name
        on_grid = np.full(grid.shape, outer)
        on_grid[pg.box] = getattr(pg, name)
        assert np.max(np.abs(on_grid - direct[name])) <= 1e-13, name


# A box sum rounds differently from the full-grid sum of the same
# products; pairwise summation keeps both within a few eps of the sum of
# the magnitudes. K1 and K2 also add c (sum of d - box sum of d) for their
# constant weight c outside the box, which rounds on the scale of c times
# the sum of d. 64 eps of these scales is far below a wrong tail, which
# moves K1 by O(kinetic) and K2 by O(potential).
ROUNDING = 64 * np.finfo(float).eps


def reference_virials(u, gw, profiles):
    """R -> (VirialReport, scales) by the per-radius formulas, each sum a
    separate np.sum over the whole grid of shaped arrays from the profile's
    own evaluators. scales maps each column but z_R and z_R' to the sum of
    |weight * density| over its terms, the tails' constant weights times
    their full-grid density sums included: the scale of its rounding
    error."""
    params = gw.params
    quad = gw.quad
    N, b = params.ndim, params.b
    cN = N + 2.0 - b
    coef = (4.0 - 2.0 * b) / cN
    grads, xdot = gw.plan.radial_derivative_arrays(u)
    grad2 = sum(np.abs(g) ** 2 for g in grads)
    xdot2 = np.abs(xdot) ** 2
    absu2 = np.abs(u) ** 2
    wup = gw.w_b * absu2 ** (params.p / 2.0)
    conj_u = np.conj(u)
    energy = conservation(u, gw).energy

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
        K1, sK1 = weighted(-1.0, w["phi1"], grad2)
        K1 += t2
        K2, sK2 = weighted(1.0, w["phi2"], wup)
        alpha = (z_second - K1 - K2 - t3) / energy
        # Phi_1 and Phi_2 at r >= 2R
        phi1_outer, phi2_outer = differenced(N, b, 0.0, 0.0)
        K1_tail = weighted(-1.0, phi1_outer, grad2)[1]
        K2_tail = weighted(1.0, phi2_outer, wup)[1]
        scales = {
            "zR_second_formula": s1 + s2 + s3 + s4,
            "K1": sK1 + s2 + K1_tail,
            "K2": sK2 + K2_tail,
            "K3": s3,
        }
        scales["alpha_check"] = sum(scales.values()) * 2.0 / abs(energy) + abs(alpha)
        out[prof.R] = (
            observables.VirialReport(
                zR=quad * float(np.sum(prof.phi_R(gw.grid.radii()) * absu2)),
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
    gw = GridWeights(grid, params)
    profiles = [build_cutoff(default_k(params), R, params) for R in (0.5, 2.0, 4.0)]
    pgs = {p.R: ProfileOnGrid(p, gw) for p in profiles}
    r2 = sum((x - 0.4) ** 2 for x in grid.coords())
    u = 0.9 * np.exp(-r2 / 2.0) * np.exp(0.3j * grid.coords()[0])
    got = virial_z_second(u, gw, pgs, conservation(u, gw).energy)
    assert_matches_reference(got, reference_virials(u, gw, profiles))


@PROPERTY
@given(grid=GRIDS, b=st.sampled_from([0.5, 1.0, 1.5]), scale=st.floats(0.01, 0.6), seed=SEEDS)
def test_box_sums_match_full_grid_sums(grid, b, scale, seed):
    # radii from boxes of no point or one to a box that covers the grid
    # (R >= L/2), on fields with mass everywhere, so every tail is exercised.
    # The dynamics take b < min(2, N), so b is halved in 1D
    params = ProblemParams(grid.ndim, b * min(2, grid.ndim) / 2.0)
    prof = build_cutoff(default_k(params), scale * grid.half_width, params)
    gw = GridWeights(grid, params)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    got = virial_z_second(u, gw, {prof.R: ProfileOnGrid(prof, gw)}, conservation(u, gw).energy)
    assert_matches_reference(got, reference_virials(u, gw, [prof]))


def held_sample(u, gw, pgs, t, dt):
    """The Sample of u formed the way the diagnostics pass did when it held
    every gradient component at once, x . grad u and phi_R over the whole
    grid, a cached |xi|^2 with the Nyquist entries zeroed and |u| to the
    end; the streamed pass must give its bits."""
    params, grid, quad, plan = gw.params, gw.grid, gw.quad, gw.plan
    N, b = params.ndim, params.b
    absu = np.abs(u)
    absu2 = absu**2
    wup = gw.w_b * abs_pow(absu, params.sigma) * absu2
    wup_total = float(np.sum(wup))
    k2d = sum(xd**2 for xd in plan._xi_d_axes)
    w = grid.cell_volume / grid.size
    kinetic = float(np.sqrt(w * np.sum(k2d * np.abs(np.fft.fftn(u)) ** 2))) ** 2
    pot = quad * wup_total
    cons = observables.ConservationReport(
        mass=quad * float(np.sum(absu2)),
        energy=0.5 * kinetic - params.energy_coefficient * pot,
        kinetic=kinetic,
        potential_weighted=pot,
    )

    grads = plan.gradient_arrays(u)
    xdot = sum(xj * gj for xj, gj in zip(grid.coords(), grads))
    grad2 = sum(np.abs(g) ** 2 for g in grads)
    grad2_total = float(np.sum(grad2))
    coef = (4.0 - 2.0 * b) / (N + 2.0 - b)

    def total(weight, density, out):
        return float(np.sum(np.multiply(weight, density, out=out)))

    flat = np.empty(absu2.size)
    virials = {}
    for R, pg in pgs.items():
        box = pg.box
        grad2_b, wup_b, xdot_b, u_b = grad2[box], wup[box], xdot[box], u[box]
        out = np.empty(pg.phi1.shape)
        t1 = 4.0 * quad * total(pg.dphi_over_r, grad2_b, out)
        t2 = 4.0 * quad * total(pg.aniso, np.abs(xdot_b) ** 2, out)
        t3 = -quad * total(pg.bilap, absu2[box], out)
        t4 = coef * quad * total(pg.w_t4, wup_b, out)
        z_second = t1 + t2 + t3 + t4
        K1_out = pg.phi1_outer * (grad2_total - float(np.sum(grad2_b)))
        K2_out = pg.phi2_outer * (wup_total - float(np.sum(wup_b)))
        K1 = -quad * (total(pg.phi1, grad2_b, out) + K1_out) + t2
        K2 = quad * (total(pg.phi2, wup_b, out) + K2_out)
        if abs(cons.energy) > observables.ALPHA_ENERGY_FLOOR:
            alpha = (z_second - K1 - K2 - t3) / cons.energy
        else:
            alpha = float("nan")
        phi_R = np.full(absu2.size, pg.phi_R_outer)
        phi_R.reshape(absu2.shape)[box] = pg.phi_R
        im_xdot_conj_u = xdot_b.imag * u_b.real - xdot_b.real * u_b.imag
        virials[R] = observables.VirialReport(
            zR=quad * total(phi_R, absu2.ravel(), flat),
            zR_prime=2.0 * quad * total(pg.dphi_over_r, im_xdot_conj_u, out),
            zR_second_formula=z_second,
            K1=K1,
            K2=K2,
            K3=t3,
            alpha_check=alpha,
        )
    return observables.Sample(
        t=t,
        dt=dt,
        conservation=cons,
        grad_norm=float(np.sqrt(cons.kinetic)),
        sup_norm=float(np.max(absu)),
        virials=virials,
    )


def bits(sample_):
    """Every float of a Sample as its 64 bits: signed zeros and NaNs count."""
    values = [sample_.t, sample_.dt, sample_.grad_norm, sample_.sup_norm]
    values += list(vars(sample_.conservation).values())
    for R, v in sample_.virials.items():
        values += [R, *vars(v).values()]
    return np.array(values, dtype=float).view(np.uint64).tolist()


@PROPERTY
@given(
    grid=GRIDS,
    b=st.sampled_from([0.5, 1.0, 1.5]),
    scales=st.lists(st.floats(1e-6, 0.6), min_size=1, max_size=3, unique=True),
    seed=SEEDS,
    amplitude=st.sampled_from([1.0, 0.0, -0.0]),
)
# an empty box (2R under the first cell centre) beside boxes inside the
# grid and one that covers it (2R above L), in 1D, 2D and 3D; a field of
# zeros of both signs, whose every sum is a signed zero
@example(grid=Grid(1, 8.0, 64), b=0.5, scales=[1e-6, 0.2, 0.6], seed=0, amplitude=1.0)
@example(grid=Grid(2, 8.0, 32), b=1.0, scales=[1e-6, 0.3, 0.6], seed=1, amplitude=1.0)
@example(grid=Grid(3, 8.0, 16), b=1.5, scales=[0.6, 1e-6], seed=2, amplitude=1.0)
@example(grid=Grid(2, 8.0, 32), b=1.0, scales=[1e-6, 0.3, 0.6], seed=3, amplitude=-0.0)
def test_streamed_sample_has_the_bits_of_the_held_one(grid, b, scales, seed, amplitude):
    params = ProblemParams(grid.ndim, b * min(2, grid.ndim) / 2.0)
    gw = GridWeights(grid, params)
    pgs = {
        s * grid.half_width: ProfileOnGrid(build_cutoff(default_k(params), s * grid.half_width, params), gw)
        for s in sorted(scales)
    }
    rng = np.random.default_rng(seed)
    u = amplitude * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    # exact zeros of both signs, so that signed zeros reach the sums
    u[np.broadcast_to(grid.coords()[0] > 0.5 * grid.half_width, grid.shape)] = complex(-0.0, 0.0)
    assert bits(sample(u, gw, pgs, 0.5, 1e-3)) == bits(held_sample(u, gw, pgs, 0.5, 1e-3))
