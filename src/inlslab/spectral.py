"""Fourier-spectral derivatives and the exact free propagator on the
periodic box.

Frequencies follow the standard DFT layout for a period-2L box,
xi_m = pi*m/L. The Nyquist mode is zeroed in first-derivative multipliers
(odd multiplier has no consistent sign there); |xi|^2 keeps it.

A first-derivative multiplier i xi_j depends on the wavenumber along axis
j alone, so each gradient component is one forward and one inverse
transform along its own axis: 2N single-axis passes per gradient, which
gradient_pass streams one component at a time. The propagator and the
Laplacian multiply by |xi|^2, which involves every axis, and the
gradient norm sums every axis at once; these take full N-dimensional
transforms.
"""

from __future__ import annotations

import numpy as np
from numpy import fft as _fft

from .core import Field, Grid, InvariantError


MULTIPLIER_CACHE_SIZE = 2  # a run's full step and flush half-step; least recently used evicted
HEAP_HOLD_POINTS = 2**20  # 16 MiB of complex128; glibc ignores freed blocks above 32 MiB

# Allocate and drop one untouched block, once per process: freeing it raises
# glibc's mmap and trim thresholds to its size and twice that (mallopt(3)), so
# numpy.fft scratch, field-sized temporaries and sampled cutoff arrays are
# reused from the heap, not returned to the kernel and faulted in again. The
# pages are never touched, so resident memory does not grow.
np.empty(HEAP_HOLD_POINTS, dtype=np.complex128)


def unit_phasor(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) as one fresh complex array, cos and sin written into
    its real and imaginary parts."""
    e = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=e.real)
    np.sin(theta, out=e.imag)
    return e


def abs_pow(absu: np.ndarray, s: float) -> np.ndarray:
    """|u|^s from |u| (absu itself at s = 1); an integer s up to 4 by products, faster than pow."""
    n = int(s)
    if n == s and 1 <= n <= 4:
        out = absu if n == 1 else absu * absu
        for _ in range(n - 2):
            out *= absu  # in place: one power array alive at a time, not two
        return out
    return absu**s


class SpectralPlan:
    """Frequency vectors and multipliers for one grid.

    The first-derivative wavenumbers are fixed at construction. |xi|^2
    (k2) is formed where a multiplier or the Laplacian is built, and its
    Nyquist-zeroed form inside grad_norm; neither is kept, so the only
    grid-sized arrays a plan holds are its multipliers. Free-propagator
    multipliers exp(-i |xi|^2 dt) are cached per dt, at most
    MULTIPLIER_CACHE_SIZE of them, the least recently used evicted first;
    calls mutate the cache, so a plan is not safe for concurrent use.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._xi_d_axes = self._wavenumbers(nyquist=False)
        self._multipliers: dict = {}

    def _wavenumbers(self, nyquist: bool) -> list:
        """xi along each axis j, shaped to broadcast along j; the Nyquist
        entry is zeroed unless nyquist (first derivatives drop it)."""
        M, n = self.grid.points_per_axis, self.grid.ndim
        xi = 2.0 * np.pi * np.fft.fftfreq(M, d=self.grid.h)
        if not nyquist:
            xi[M // 2] = 0.0
        return [xi.reshape([M if j == axis else 1 for j in range(n)]) for axis in range(n)]

    @property
    def k2(self) -> np.ndarray:
        """|xi|^2, a fresh array at each use."""
        return sum(x**2 for x in self._wavenumbers(nyquist=True))

    def _check(self, f: Field):
        if f.grid != self.grid:
            raise InvariantError("field grid does not match plan grid")

    # array-level kernels (used by the solver hot loop) -------------------

    def _forward(self, values: np.ndarray) -> np.ndarray:
        """fftn(values), bit for bit, with every axis pass written into one
        output array: without out, each pass of a 2D or 3D transform makes a
        new field-sized array while the previous pass's output is alive."""
        return _fft.fftn(values, out=np.empty(values.shape, dtype=np.complex128))

    def _axis_derivative(self, values: np.ndarray, axis: int) -> np.ndarray:
        """d_j u for j = axis, from one forward and one inverse transform
        along that axis alone; values is not modified."""
        fhat = _fft.fftn(values, axes=(axis,))
        # in place, in two passes: 1j * xi would be a field-sized temporary in 1D
        fhat *= self._xi_d_axes[axis]
        fhat *= 1j
        return _fft.ifftn(fhat, axes=(axis,), out=fhat)

    def gradient_arrays(self, values: np.ndarray) -> list:
        """[d_j u for each axis j]; values is not modified."""
        return [self._axis_derivative(values, axis) for axis in range(self.grid.ndim)]

    def gradient_pass(self, values: np.ndarray, lo: int, hi: int) -> tuple:
        """(|grad u|^2 over the grid, x . grad u on the index box [lo, hi)^N)
        with one d_j u alive at a time; both have the bits of summing over
        gradient_arrays in axis order. values is not modified."""
        box = (slice(lo, hi),) * self.grid.ndim
        x = self.grid.coords(lo, hi)
        density = None
        xdot = np.zeros(values[box].shape, dtype=complex)
        for axis in range(self.grid.ndim):
            d = self._axis_derivative(values, axis)
            mag2 = np.abs(d)
            np.square(mag2, out=mag2)
            if density is None:
                density = mag2  # the bits of 0 + |d_0 u|^2, which is never -0
            else:
                density += mag2
            del mag2
            np.multiply(x[axis], d[box], out=d[box])  # x_j d_j u, in place
            xdot += d[box]
            del d  # freed before the next component is formed
        return density, xdot

    def laplacian_array(self, values: np.ndarray) -> np.ndarray:
        return _fft.ifftn(-self.k2 * _fft.fftn(values))

    def free_propagate_array(self, values: np.ndarray, dt: float) -> np.ndarray:
        """exp(i dt Lap) applied on the frequency side; dt == 0 returns
        values itself."""
        if dt == 0.0:
            return values
        m = self._multipliers.pop(dt, None)
        if m is None:
            if len(self._multipliers) >= MULTIPLIER_CACHE_SIZE:
                del self._multipliers[next(iter(self._multipliers))]
            # 0.0 - dt k2 keeps the signed zeros of np.exp(-1j * k2 * dt),
            # so the multiplier has the same bits as that formula
            m = unit_phasor(0.0 - dt * self.k2)
        self._multipliers[dt] = m  # (re)inserted last: the cache's order is that of use
        fhat = self._forward(values)
        fhat *= m
        return _fft.ifftn(fhat, out=fhat)

    def grad_norm(self, values: np.ndarray) -> float:
        """sqrt(sum_j ||d_j u||_2^2) with rectangle-rule quadrature,
        evaluated on the frequency side (Parseval)."""
        density = np.abs(self._forward(values))  # the transform is freed here
        np.square(density, out=density)
        density *= sum(xd**2 for xd in self._xi_d_axes)  # |xi|^2, Nyquist entries zeroed
        w = self.grid.cell_volume / self.grid.size
        return float(np.sqrt(w * np.sum(density)))

    def radial_derivative_arrays(self, values: np.ndarray):
        """(gradient components, x . grad u) for virial diagnostics."""
        g = self.gradient_arrays(values)
        xdot = sum(xj * gj for xj, gj in zip(self.grid.coords(), g))
        return g, xdot

    # Field-level operations ---------------------------------------------

    def gradient(self, f: Field) -> tuple:
        self._check(f)
        return tuple(Field(f.params, f.grid, g) for g in self.gradient_arrays(f.values))

    def laplacian(self, f: Field) -> Field:
        self._check(f)
        return Field(f.params, f.grid, self.laplacian_array(f.values))

    def free_propagate(self, f: Field, dt: float) -> Field:
        self._check(f)
        if not np.isfinite(dt):
            raise InvariantError("dt must be finite")
        return Field(f.params, f.grid, self.free_propagate_array(f.values, dt))

