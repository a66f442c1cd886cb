"""Spectral derivatives and the exact free propagator, checked against
closed-form solutions and finite differences."""

import os
import platform
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import inlslab
from inlslab import spectral
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
        # pure Nyquist oscillation: derivative has no consistent sign. On
        # the cell centers exp(8ix) is +-i; cos(8x) would sample to zero.
        u = np.exp(8j * grid.axis_coords())
        (g,) = plan.gradient_arrays(u)
        assert np.max(np.abs(g)) < 1e-12

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_nyquist_mode_dropped_per_axis(self, ndim):
        grid = Grid(ndim, np.pi, 16)
        plan = SpectralPlan(grid)
        xs = grid.coords()
        for axis in range(ndim):
            # Nyquist along axis, the first harmonic along the next one
            other = (axis + 1) % ndim
            u = np.exp(8j * xs[axis]) * np.exp(1j * xs[other]) + np.zeros(grid.shape)
            grads = plan.gradient_arrays(u)
            for j, g in enumerate(grads):
                expected = 1j * u if j == other else 0.0
                assert np.max(np.abs(g - expected)) < 1e-12, (axis, j)

    def test_gradient_of_anisotropic_gaussian_3d_closed_form(self):
        # a different width and center per axis, so a component taken along
        # the wrong axis fails; decay and resolution are below 1e-15
        grid = Grid(3, 8.0, 64)
        plan = SpectralPlan(grid)
        xs = grid.coords()
        a, c = (0.7, 0.9, 1.1), (0.3, -0.2, 0.1)
        u = np.exp(-sum(aj * (x - cj) ** 2 for aj, x, cj in zip(a, xs, c))) + 0.0j
        grads = plan.gradient_arrays(u)
        for aj, x, cj, g in zip(a, xs, c, grads):
            assert np.max(np.abs(g - (-2.0 * aj * (x - cj)) * u)) < 1e-12

    def test_radial_derivative_combination(self):
        grid = Grid(2, 8.0, 64)
        plan = SpectralPlan(grid)
        u = periodic_gaussian(grid, width=1.4)
        grads, xdot = plan.radial_derivative_arrays(u)
        rebuilt = sum(x * g for x, g in zip(grid.coords(), grads))
        assert np.allclose(xdot, rebuilt)


def full_transform_gradient(grid, u):
    """d_j u from one full forward and one full inverse transform per
    component: the formula the per-axis kernel must reproduce."""
    M = grid.points_per_axis
    xi_d = 2.0 * np.pi * np.fft.fftfreq(M, d=grid.h)
    xi_d[M // 2] = 0.0
    fhat = np.fft.fftn(u)
    grads = []
    for axis in range(grid.ndim):
        sh = [1] * grid.ndim
        sh[axis] = M
        grads.append(np.fft.ifftn(1j * xi_d.reshape(sh) * fhat))
    return grads


GRIDS = st.sampled_from(
    [Grid(1, 8.0, 64), Grid(1, 3.0, 1024), Grid(2, 8.0, 32), Grid(2, 5.0, 64), Grid(3, 8.0, 16)]
)


class TestGradientKernel:
    @PROPERTY
    @given(grid=GRIDS, seed=SEEDS)
    def test_matches_full_transforms(self, grid, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        grads = SpectralPlan(grid).gradient_arrays(u)
        reference = full_transform_gradient(grid, u)
        if grid.ndim == 1:
            # the same two transforms and the same multiply
            assert np.array_equal(grads[0], reference[0])
        for g, ref in zip(grads, reference):
            assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ndim, M", [(1, 256), (2, 32), (3, 16)])
    def test_input_is_left_bit_identical(self, ndim, M):
        grid = Grid(ndim, 8.0, M)
        plan = SpectralPlan(grid)
        rng = np.random.default_rng(ndim)
        u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        before = u.copy()
        plan.gradient_arrays(u)
        assert np.array_equal(u, before)
        plan.radial_derivative_arrays(u)
        assert np.array_equal(u, before)

    @pytest.mark.parametrize("M", [64, 2048, 65536])
    def test_derivative_multiplies_in_place(self, M, traced_peak):
        # the bits of multiplying by the temporary 1j * xi, a field-sized
        # array in 1D; without it the peak above the input is the
        # transformed field, which the result reuses, and the FFT's scratch
        grid = Grid(1, 20.0, M)
        plan = SpectralPlan(grid)
        rng = np.random.default_rng(M)
        u = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        fhat = np.fft.fftn(u, axes=(0,))
        fhat *= 1j * plan._xi_d_axes[0]
        reference = np.fft.ifftn(fhat, axes=(0,))
        with traced_peak() as traced:
            (g,) = plan.gradient_arrays(u)
        assert np.array_equal(g.view(np.uint64), reference.view(np.uint64))
        if M == 65536:  # a small field's peak is Python objects, not arrays
            assert traced.peak <= 1.5 * u.nbytes

    def test_gradient_forms_no_squared_wavenumbers(self):
        # |xi|^2 is formed where it is used, with the bits of the formula:
        # after a gradient, a propagation and a gradient norm the plan holds
        # its multiplier and per-axis vectors, no grid-sized |xi|^2
        grid = Grid(3, 8.0, 16)
        plan = SpectralPlan(grid)
        u = np.ones(grid.shape, dtype=complex)
        plan.gradient_arrays(u)
        plan.free_propagate_array(u, 0.1)
        plan.grad_norm(u)
        held = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        held += [v for v in plan._xi_d_axes]
        assert all(v.size == 16 for v in held)
        assert list(plan._multipliers) == [0.1]
        xi = 2.0 * np.pi * np.fft.fftfreq(16, d=grid.h)
        k2 = xi[:, None, None] ** 2 + xi[None, :, None] ** 2 + xi[None, None, :] ** 2
        assert np.array_equal(plan.k2, k2)

    def test_3d_gradient_takes_one_transform_pair_per_axis(self, transform_calls):
        # a full transform per component would be 1 + 3 three-axis calls
        grid = Grid(3, 8.0, 8)
        SpectralPlan(grid).gradient_arrays(np.ones(grid.shape, dtype=complex))
        assert transform_calls == [
            (name, (axis,)) for axis in range(3) for name in ("fftn", "ifftn")
        ]


@pytest.fixture
def transform_calls(monkeypatch):
    """(name, axes) of every np.fft.fftn and np.fft.ifftn call, in order."""
    calls = []

    def counting(name, fn):
        def wrapped(x, *args, **kwargs):
            calls.append((name, tuple(kwargs.get("axes") or ())))
            return fn(x, *args, **kwargs)

        return wrapped

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return calls


def check_gradient_pass(grid, u, lo, hi):
    plan = SpectralPlan(grid)
    before = u.copy()
    density, xdot = plan.gradient_pass(u, lo, hi)
    assert np.array_equal(u.view(np.uint64), before.view(np.uint64))
    reference = sum(np.abs(g) ** 2 for g in plan.gradient_arrays(u))
    assert density.dtype == reference.dtype and density.shape == grid.shape
    assert np.array_equal(density.view(np.uint64), reference.view(np.uint64))
    on_box = (slice(lo, hi),) * grid.ndim
    xdot_ref = plan.radial_derivative_arrays(u)[1][on_box]
    assert xdot.dtype == xdot_ref.dtype and xdot.shape == xdot_ref.shape
    assert np.array_equal(xdot.view(np.uint64), xdot_ref.view(np.uint64))


class TestGradientDensityKernel:
    @pytest.mark.parametrize("ndim, M", [(1, 256), (2, 32), (3, 16)])
    def test_bits_of_the_summed_components(self, ndim, M):
        grid = Grid(ndim, 8.0, M)
        rng = np.random.default_rng(10 + ndim)
        u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        check_gradient_pass(grid, u, M // 4, 3 * M // 4)

    @PROPERTY
    @given(
        ndim=st.integers(1, 3),
        box=st.integers(1, 16).flatmap(lambda half: st.tuples(st.just(2 * half), st.integers(0, half))),
        seed=SEEDS,
    )
    @example(ndim=2, box=(16, 0), seed=0)  # the empty box at M/2
    @example(ndim=3, box=(16, 8), seed=1)  # the whole grid
    def test_bits_on_drawn_grids_and_boxes(self, ndim, box, seed):
        # the centred box [M/2 - k, M/2 + k)
        M, k = box
        grid = Grid(ndim, 8.0, M)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        check_gradient_pass(grid, u, M // 2 - k, M // 2 + k)

    def test_3d_density_takes_one_transform_pair_per_axis(self, transform_calls):
        grid = Grid(3, 8.0, 8)
        SpectralPlan(grid).gradient_pass(np.ones(grid.shape, dtype=complex), 2, 6)
        assert transform_calls == [
            (name, (axis,)) for axis in range(3) for name in ("fftn", "ifftn")
        ]


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
    # misses and evictions
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

    @PROPERTY
    @given(seed=SEEDS, dts=st.lists(TIMES.filter(lambda t: t != 0.0), min_size=1, max_size=4))
    def test_bits_of_the_exp_formula(self, seed, dts):
        # negative dt included; k2 = 0 at the zero mode, where the phasor
        # must keep the signed zeros of the complex exponential
        u = self.field(seed)
        k2 = self.PLAN.k2
        for dt in dts:
            out = self.PLAN.free_propagate_array(u, dt)
            m = np.exp(-1j * k2 * dt)
            assert np.array_equal(self.PLAN._multipliers[dt].view(np.uint64), m.view(np.uint64))
            # the kernel's operand order: numpy's complex product can round
            # differently with its operands swapped
            reference = np.fft.ifftn(np.fft.fftn(u) * m)
            assert np.array_equal(out.view(np.uint64), reference.view(np.uint64))
            assert len(self.PLAN._multipliers) <= 2

    @PROPERTY
    @given(
        seed=SEEDS,
        burst=st.lists(TIMES.filter(lambda t: t != 0.0), min_size=0, max_size=12),
        dt=st.floats(1e-6, 0.5),
    )
    # the hit on 0.25 makes 0.0335 the least recently used, so 0.125
    # evicts it, not 0.25
    @example(seed=0, burst=[0.25, 0.0335], dt=0.25)
    def test_alternation_after_a_burst_rebuilds_nothing(self, seed, burst, dt):
        # a run's steps alternate between a full step and the half-step that
        # flushes the merged tail before a sample; a fresh plan per example,
        # so the cache holds only what this example left in it
        plan = SpectralPlan(self.GRID)
        u = self.field(seed)
        with mock.patch.object(spectral, "unit_phasor", wraps=spectral.unit_phasor) as build:
            for one_off in burst:
                plan.free_propagate_array(u, one_off)
            plan.free_propagate_array(u, dt)
            plan.free_propagate_array(u, 0.5 * dt)
            built = build.call_count
            for _ in range(5):
                plan.free_propagate_array(u, dt)
                plan.free_propagate_array(u, dt)
                plan.free_propagate_array(u, 0.5 * dt)
            assert build.call_count == built
        assert set(plan._multipliers) == {dt, 0.5 * dt}


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


FAULTS_PER_CALL = """
import resource
import numpy as np
from inlslab.core import Grid
from inlslab.spectral import SpectralPlan

plan = SpectralPlan(Grid(1, 20.0, 65536))
u = np.exp(-np.linspace(-5.0, 5.0, 65536) ** 2).astype(complex)
for _ in range(5):
    plan.free_propagate_array(u, 1e-4)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    plan.free_propagate_array(u, 1e-4)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_propagator_does_not_refault_its_scratch():
    # without the heap hold spectral makes once at import, glibc returns the
    # 1 MiB output and scratch blocks of numpy.fft to the kernel after every
    # transform: about 960 faults a call
    src = os.path.dirname(os.path.dirname(inlslab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_CALL], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    assert float(out) < 8
