"""Fourier-spectral derivatives and the exact free propagator on the
periodic box.

Frequencies follow the standard DFT layout for a period-2L box,
xi_m = pi*m/L. The Nyquist mode is zeroed in first-derivative multipliers
(odd multiplier has no consistent sign there); |xi|^2 keeps it.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

from .core import Field, Grid, InvariantError


MULTIPLIER_CACHE_SIZE = 8  # a run uses a few distinct steps; cleared when full
HEAP_HOLD_POINTS = 2**20  # 16 MiB of complex128; glibc ignores freed blocks above 32 MiB


class SpectralPlan:
    """Cached frequency vectors and multipliers for one grid.

    The frequency arrays are fixed at construction. Free-propagator
    multipliers exp(-i |xi|^2 dt) are cached per dt in a small bounded
    dict that calls mutate, so a plan is not safe for concurrent use.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        M = grid.points_per_axis
        xi = 2.0 * np.pi * np.fft.fftfreq(M, d=grid.h)
        xi_d = xi.copy()
        xi_d[M // 2] = 0.0  # Nyquist zeroed for first derivatives
        self.xi = xi
        shape_axes = []
        for axis in range(grid.ndim):
            sh = [1] * grid.ndim
            sh[axis] = M
            shape_axes.append((xi.reshape(sh), xi_d.reshape(sh)))
        self._xi_axes = shape_axes
        self.k2 = sum(x**2 for x, _ in shape_axes)
        self._multipliers: dict = {}
        # Allocate and drop one untouched block of a few fields. Freeing it
        # raises glibc's mmap threshold to its size and the trim threshold
        # to twice that (mallopt(3)), so pocketfft's per-call scratch and
        # field-sized temporaries are reused from the heap instead of being
        # handed back to the kernel and faulted in again on every transform.
        # The pages are never touched, so resident memory does not grow.
        np.empty(min(4 * grid.size, HEAP_HOLD_POINTS), dtype=np.complex128)

    def _check(self, f: Field):
        if f.grid != self.grid:
            raise InvariantError("field grid does not match plan grid")

    # array-level kernels (used by the solver hot loop) -------------------

    def gradient_arrays(self, values: np.ndarray) -> list:
        fhat = _fft.fftn(values)
        return [
            _fft.ifftn(1j * xi_d * fhat) for _, xi_d in self._xi_axes
        ]

    def laplacian_array(self, values: np.ndarray) -> np.ndarray:
        return _fft.ifftn(-self.k2 * _fft.fftn(values))

    def free_propagate_array(self, values: np.ndarray, dt: float) -> np.ndarray:
        """exp(i dt Lap) applied on the frequency side; dt == 0 returns
        values itself."""
        if dt == 0.0:
            return values
        m = self._multipliers.get(dt)
        if m is None:
            if len(self._multipliers) >= MULTIPLIER_CACHE_SIZE:
                self._multipliers.clear()
            m = np.exp(-1j * self.k2 * dt)
            self._multipliers[dt] = m
        return _fft.ifftn(_fft.fftn(values) * m)

    def grad_norm(self, values: np.ndarray) -> float:
        """sqrt(sum_j ||d_j u||_2^2) with rectangle-rule quadrature,
        evaluated on the frequency side (Parseval)."""
        fhat = _fft.fftn(values)
        k2d = sum(xd**2 for _, xd in self._xi_axes)
        w = self.grid.cell_volume / self.grid.size
        return float(np.sqrt(w * np.sum(k2d * np.abs(fhat) ** 2)))

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

