"""Problem parameters, grid geometry, field container and checkpoint I/O.

The spatial domain is the periodic box [-L, L)^N sampled cell-centered so
that no grid point sits at the origin (the potential |x|^{-b} is evaluated
pointwise). Every rejected value, a non-finite field and a corrupt
checkpoint included, raises InvariantError.

Field is the validated type where a field enters or leaves: realize,
read_checkpoint, write_checkpoint and the Field-level SpectralPlan
operations. The solver's loop, the diagnostics and lhs_rhs pass the array.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

CHECKPOINT_MAGIC = b"INLSLAB\x00CKPT\x00\x00\x02\x00"  # 16 bytes, version 2

BOUNDARY_DECAY_TOL = 1e-12


class InvariantError(ValueError):
    """A domain-type invariant was violated: a bad parameter, a field that
    is not finite or does not fit its grid, or a corrupt input file."""


class BoundaryDecayWarning(UserWarning):
    """Initial data does not decay to 1e-12 of its peak at the box boundary."""


@dataclass(frozen=True)
class ProblemParams:
    """Dimension N, inhomogeneity exponent b, and derived exponents."""

    ndim: int
    b: float

    def __post_init__(self):
        if self.ndim not in (1, 2, 3):
            raise InvariantError(f"dimension must be 1, 2 or 3, got {self.ndim}")
        if not (0.0 < self.b < 2.0):
            raise InvariantError(f"b must lie in (0, 2), got {self.b}")

    @property
    def p(self) -> float:
        """Full nonlinearity exponent (4-2b)/N + 2 on |u|^p in the energy."""
        return (4.0 - 2.0 * self.b) / self.ndim + 2.0

    @property
    def sigma(self) -> float:
        """Power (4-2b)/N multiplying |u| inside the nonlinear term."""
        return (4.0 - 2.0 * self.b) / self.ndim

    @property
    def energy_coefficient(self) -> float:
        """Coefficient N/(4-2b+2N) of the weighted potential term in E[u]."""
        return self.ndim / (4.0 - 2.0 * self.b + 2.0 * self.ndim)


@dataclass(frozen=True)
class Grid:
    """Cell-centered periodic Cartesian box [-L, L)^N with M points per axis."""

    ndim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.ndim not in (1, 2, 3):
            raise InvariantError(f"grid dimension must be 1, 2 or 3, got {self.ndim}")
        if not 0.0 < self.half_width < np.inf:
            raise InvariantError("half_width must be positive and finite")
        M = self.points_per_axis
        if M <= 0 or M % 2 != 0:
            raise InvariantError(f"points_per_axis must be positive and even, got {M}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.ndim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.ndim

    @property
    def cell_volume(self) -> float:
        return self.h**self.ndim

    def axis_coords(self) -> np.ndarray:
        j = np.arange(self.points_per_axis, dtype=float)
        return -self.half_width + (j + 0.5) * self.h

    def coords(self, lo: int = 0, hi: int | None = None) -> list:
        """Per-axis coordinates on the index box [lo, hi)^N, the whole grid
        by default, broadcast to its shape."""
        x = self.axis_coords()[lo:hi]
        return list(np.meshgrid(*([x] * self.ndim), indexing="ij", sparse=True))

    def radii(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """|x| on the index box [lo, hi)^N, the whole grid by default;
        strictly positive on the cell centers."""
        return np.sqrt(sum(xj**2 for xj in self.coords(lo, hi)))


@dataclass(frozen=True)
class Field:
    """Complex scalar samples u(x) on a Grid, row-major over axes."""

    params: ProblemParams
    grid: Grid
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        if self.params.ndim != self.grid.ndim:
            raise InvariantError(f"N={self.params.ndim} params on an N={self.grid.ndim} grid")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise InvariantError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v.view(float))):
            raise InvariantError("field contains NaN or Inf samples")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class InitialData:
    """Initial-data descriptor: Gaussian bumps or a stored checkpoint.

    A nonzero center gives non-radial data. kind "sum_of_gaussians" adds a
    second bump (amplitude2, width2, center2).
    """

    kind: str = "gaussian"
    amplitude: float = 1.0
    width: float = 1.0
    center: tuple = (0.0,)
    amplitude2: float = 0.0
    width2: float = 1.0
    center2: tuple = (0.0,)
    checkpoint_path: str | None = None

    KINDS = ("gaussian", "shifted_gaussian", "sum_of_gaussians", "from_checkpoint")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvariantError(f"unknown initial-data kind {self.kind!r}")
        for name in ("amplitude", "amplitude2", "center", "center2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvariantError(f"{name} must be finite")
        if not all(0.0 < w < np.inf for w in (self.width, self.width2)):
            raise InvariantError("widths must be positive and finite")
        if self.kind == "from_checkpoint" and not self.checkpoint_path:
            raise InvariantError("from_checkpoint requires checkpoint_path")


def gaussian(grid: Grid, amplitude: float, width: float, center) -> np.ndarray:
    """amplitude exp(-|x - center|^2 / (2 width^2)) on the grid, complex;
    center, of at most the grid's dimension, is padded with zeros to it."""
    c = np.zeros(grid.ndim)
    c[: len(np.atleast_1d(center))] = np.atleast_1d(center)
    r2 = sum((xj - cj) ** 2 for xj, cj in zip(grid.coords(), c))
    return amplitude * np.exp(-r2 / (2.0 * width**2)) + 0.0j


def boundary_decay(u: np.ndarray) -> float:
    """Largest |u| on the faces of the box over the peak of |u|; 0 for
    data that vanishes everywhere."""
    peak = np.max(np.abs(u))
    if not peak > 0:
        return 0.0
    edge = max(np.max(np.abs(np.take(u, [0, -1], axis=axis))) for axis in range(u.ndim))
    return float(edge / peak)


def realize(init: InitialData, params: ProblemParams, grid: Grid) -> Field:
    """Sample the initial data on the grid; warns if it fails to decay at
    the box boundary (box-adequacy check). A center with more coordinates
    than the grid's dimension is rejected, not cut."""
    for name in ("center", "center2"):
        n = len(np.atleast_1d(getattr(init, name)))
        if n > grid.ndim:
            raise InvariantError(f"{name} has {n} coordinates, more than N = {grid.ndim}")
    if init.kind == "from_checkpoint":
        f, _t = read_checkpoint(init.checkpoint_path)
        if f.params != params or f.grid != grid:
            raise InvariantError("checkpoint metadata does not match requested params/grid")
        return f

    u = gaussian(grid, init.amplitude, init.width, init.center)
    if init.kind == "sum_of_gaussians":
        u = u + gaussian(grid, init.amplitude2, init.width2, init.center2)

    decay = boundary_decay(u)
    if decay > BOUNDARY_DECAY_TOL:
        warnings.warn(
            f"initial data is {decay:.2e} of its peak at the box boundary "
            f"(> {BOUNDARY_DECAY_TOL:g}); enlarge the box",
            BoundaryDecayWarning,
        )
    return Field(params, grid, u)


# ---------------------------------------------------------------------------
# checkpoint format, one self-describing file: 16-byte magic/version, then N
# and M per axis as little-endian int64, then L, b and the time t as
# little-endian float64, then M^N interleaved (re, im) float64 pairs,
# row-major.
# ---------------------------------------------------------------------------


def _write_replacing(path: str, *chunks) -> None:
    """Write to a temporary file beside path, then rename it over path, so a
    reader finds the old file or the whole new one, never part of one."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def write_checkpoint(path, f: Field, t: float = 0.0) -> None:
    grid, params = f.grid, f.params
    header = struct.pack(
        f"<{1 + grid.ndim}q3d", grid.ndim, *grid.shape, grid.half_width, params.b, t
    )
    # a complex128 is its (re, im) float64 pair; written from the array's own
    # buffer, copied only where a host's complex128 is not little-endian
    payload = np.ascontiguousarray(f.values, dtype="<c16")
    _write_replacing(str(path), CHECKPOINT_MAGIC, header, payload.data)


def read_checkpoint(path):
    """Returns (Field, t).

    Raises InvariantError unless the file is exactly one checkpoint: a bad
    magic (an older version included), a short header, a size other than
    the header's grid implies and a header or payload no Field takes (a NaN
    sample, say) are all rejected. The payload is read straight into the
    field's array, after the size is checked.
    """
    path = str(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(48 + 8 * 3)  # the longest header, of N = 3
        if head[:16] != CHECKPOINT_MAGIC:
            raise InvariantError(f"bad checkpoint magic in {path}")
        ndim = struct.unpack_from("<q", head, 16)[0] if len(head) >= 24 else None
        if ndim not in (1, 2, 3) or len(head) < 48 + 8 * ndim:
            raise InvariantError(f"bad or truncated checkpoint header in {path}")
        *ms, half_width, b, t = struct.unpack_from(f"<{ndim}q3d", head, 24)
        if len(set(ms)) != 1 or ms[0] <= 0:
            raise InvariantError("per-axis point counts must be positive and agree")
        expected = 48 + 8 * ndim + 16 * ms[0] ** ndim
        if size != expected:
            raise InvariantError(f"checkpoint {path} is {size} bytes, expected {expected}")
        values = np.empty(ms[0] ** ndim, dtype="<c16")
        fh.seek(48 + 8 * ndim)
        if fh.readinto(values) != values.nbytes:
            raise InvariantError(f"checkpoint {path} is shorter than {expected} bytes")
    try:
        grid = Grid(ndim, half_width, ms[0])
        return Field(ProblemParams(ndim, b), grid, values.reshape(grid.shape)), t
    except InvariantError as exc:
        raise InvariantError(f"checkpoint {path}: {exc}") from exc
