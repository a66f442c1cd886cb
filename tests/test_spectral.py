"""Spectral derivatives and the exact free propagator, checked against
closed-form solutions and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inlslab.core import Field, Grid, InvariantError, ProblemParams
from inlslab.spectral import SpectralPlan

PARAMS = ProblemParams(1, 0.5)

# few, reproducible examples: these run in the default suite
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
TIMES = st.floats(-0.5, 0.5, allow_nan=False)


def periodic_gaussian(grid, width=1.0):
    # well inside the box, so periodic images are below roundoff
    r2 = sum(x**2 for x in grid.coords())
    return np.exp(-r2 / (2.0 * width**2)) + 0.0j


class TestDerivatives:
    def test_gradient_of_plane_wave_is_exact(self):
        grid = Grid(1, np.pi, 64)
        plan = SpectralPlan(grid)
        x = grid.axis_coords()
        for m in (1, 3, 10):
            u = np.exp(1j * m * x)
            (g,) = plan.gradient_arrays(u)
            assert np.allclose(g, 1j * m * u, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        grid = Grid(1, 8.0, 256)
        plan = SpectralPlan(grid)
        u = periodic_gaussian(grid, width=1.3)
        (g,) = plan.gradient_arrays(u)
        x = grid.axis_coords()
        step = 1e-6
        fd = (np.exp(-((x + step) ** 2) / (2 * 1.3**2)) - np.exp(-((x - step) ** 2) / (2 * 1.3**2))) / (
            2 * step
        )
        assert np.max(np.abs(g - fd)) < 1e-8

    def test_laplacian_of_gaussian_closed_form(self):
        grid = Grid(2, 8.0, 128)
        plan = SpectralPlan(grid)
        # width small enough that the boundary value (~7e-18 of peak)
        # stays negligible even after the k^2 amplification of the FFT
        w = 0.9
        u = periodic_gaussian(grid, width=w)
        r2 = sum(x**2 for x in grid.coords())
        exact = (r2 / w**4 - 2.0 / w**2) * u
        assert np.max(np.abs(plan.laplacian_array(u) - exact)) < 1e-10

    def test_gradient_norm_parseval_consistency(self):
        grid = Grid(1, 8.0, 256)
        plan = SpectralPlan(grid)
        u = periodic_gaussian(grid, width=0.9) * np.exp(0.5j * grid.axis_coords())
        grads = plan.gradient_arrays(u)
        direct = np.sqrt(grid.cell_volume * sum(np.sum(np.abs(g) ** 2) for g in grads))
        assert plan.grad_norm(u) == pytest.approx(direct, rel=1e-12)

    def test_nyquist_mode_dropped_in_first_derivative(self):
        grid = Grid(1, np.pi, 16)
        plan = SpectralPlan(grid)
        # pure Nyquist oscillation: derivative has no consistent sign
        u = np.cos(8 * grid.axis_coords()) + 0.0j
        (g,) = plan.gradient_arrays(u)
        assert np.max(np.abs(g)) < 1e-12

    def test_radial_derivative_combination(self):
        grid = Grid(2, 8.0, 64)
        plan = SpectralPlan(grid)
        u = periodic_gaussian(grid, width=1.4)
        grads, xdot = plan.radial_derivative_arrays(u)
        rebuilt = sum(x * g for x, g in zip(grid.coords(), grads))
        assert np.allclose(xdot, rebuilt)


class TestFreePropagator:
    def test_gaussian_dispersion_closed_form(self):
        # i u_t + u_xx = 0 with u(0) = exp(-x^2/(2 w^2)) has the explicit
        # solution w/sqrt(w^2 + 2it) * exp(-x^2/(2(w^2 + 2it)))
        grid = Grid(1, 16.0, 512)
        plan = SpectralPlan(grid)
        w = 1.0
        u0 = periodic_gaussian(grid, width=w)
        t = 0.35
        out = plan.free_propagate_array(u0, t)
        x = grid.axis_coords()
        denom = w**2 + 2j * t
        exact = w / np.sqrt(denom) * np.exp(-(x**2) / (2 * denom))
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_propagator_is_unitary(self):
        grid = Grid(1, 8.0, 128)
        plan = SpectralPlan(grid)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        out = plan.free_propagate_array(u, 0.17)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(np.abs(u) ** 2), rel=1e-13)

    def test_group_property(self):
        grid = Grid(1, 8.0, 128)
        plan = SpectralPlan(grid)
        u = periodic_gaussian(grid, width=0.8)
        one = plan.free_propagate_array(plan.free_propagate_array(u, 0.1), 0.25)
        other = plan.free_propagate_array(u, 0.35)
        assert np.allclose(one, other, atol=1e-13)

    def test_inverse_propagation(self):
        grid = Grid(1, 8.0, 128)
        plan = SpectralPlan(grid)
        u = periodic_gaussian(grid, width=0.8)
        back = plan.free_propagate_array(plan.free_propagate_array(u, 0.4), -0.4)
        assert np.allclose(back, u, atol=1e-13)


class TestFreePropagatorProperties:
    # one plan shared by every example, so its multiplier cache sees hits,
    # misses and the clear-on-full path
    GRID = Grid(1, 8.0, 128)
    PLAN = SpectralPlan(GRID)

    def field(self, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(128) + 1j * rng.standard_normal(128)

    @PROPERTY
    @given(seed=SEEDS, dt=TIMES)
    def test_unitary(self, seed, dt):
        u = self.field(seed)
        out = self.PLAN.free_propagate_array(u, dt)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(np.abs(u) ** 2), rel=1e-13)

    @PROPERTY
    @given(seed=SEEDS, a=TIMES, b=TIMES)
    def test_group_law(self, seed, a, b):
        u = self.field(seed)
        one = self.PLAN.free_propagate_array(self.PLAN.free_propagate_array(u, a), b)
        other = self.PLAN.free_propagate_array(u, a + b)
        # phase roundoff grows like |xi|^2 |a + b| eps, about 1e-13 here
        assert np.max(np.abs(one - other)) < 1e-12 * np.max(np.abs(u))

    @PROPERTY
    @given(seed=SEEDS, dt=TIMES.filter(lambda t: t != 0.0))
    def test_cache_hit_matches_fresh_multiplier(self, seed, dt):
        u = self.field(seed)
        self.PLAN.free_propagate_array(u, dt)
        hit = self.PLAN.free_propagate_array(u, dt)
        fresh = SpectralPlan(self.GRID).free_propagate_array(u, dt)
        assert np.array_equal(hit, fresh)


class TestFieldLevelWrappers:
    def test_wrappers_agree_with_arrays(self):
        grid = Grid(1, 8.0, 64)
        plan = SpectralPlan(grid)
        f = Field(PARAMS, grid, periodic_gaussian(grid))
        (gf,) = plan.gradient(f)
        assert np.allclose(gf.values, plan.gradient_arrays(f.values)[0])
        assert np.allclose(plan.laplacian(f).values, plan.laplacian_array(f.values))
        assert np.allclose(
            plan.free_propagate(f, 0.2).values, plan.free_propagate_array(f.values, 0.2)
        )

    def test_grid_mismatch_rejected(self):
        plan = SpectralPlan(Grid(1, 8.0, 64))
        f = Field(PARAMS, Grid(1, 8.0, 128), periodic_gaussian(Grid(1, 8.0, 128)))
        with pytest.raises(InvariantError):
            plan.gradient(f)

    def test_non_finite_dt_rejected(self):
        grid = Grid(1, 8.0, 64)
        plan = SpectralPlan(grid)
        f = Field(PARAMS, grid, periodic_gaussian(grid))
        with pytest.raises(InvariantError):
            plan.free_propagate(f, np.inf)
