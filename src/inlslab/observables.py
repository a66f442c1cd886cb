"""Conserved quantities and localized virial diagnostics.

All weighted integrals use the single shared rectangle-rule quadrature so
that algebraic identities among them hold at the discrete level. The
radial cutoff derivatives are closed forms lifted to the Cartesian grid;
x . grad u comes from the Cartesian spectral gradient so non-radial fields
are handled natively.

Support boxes: v and its first three derivatives vanish for rho = r/R >= 2,
so every virial weight but phi_R is exactly 0 or a constant outside the
ball r < 2R. ProfileOnGrid keeps those weights only on the index box
|x_j| < 2R of its radius, which holds the ball, and each of their sums
runs over the box alone. Outside it the weights of t1, t2, t3, t4 and z_R'
are 0, the K1 weight is 2 and the K2 weight is (2-b) 2 + (2N-2+b) 2; K1
and K2 add that constant times the density's full-grid sum less its box
sum. z_R keeps its full-grid sum: phi_R is a nonzero constant outside the
ball, and z_R feeds a second difference in time that magnifies any change
in its rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Field
from .cutoff import CutoffProfile
from .spectral import SpectralPlan

ALPHA_ENERGY_FLOOR = 1e-10


@dataclass(frozen=True)
class ConservationReport:
    mass: float
    energy: float
    kinetic: float
    potential_weighted: float


@dataclass(frozen=True)
class VirialReport:
    zR: float
    zR_prime: float
    zR_second_formula: float
    K1: float
    K2: float
    K3: float
    alpha_check: float


@dataclass
class Sample:
    """The diagnostics of the field at time t, reached by a step of size dt."""

    t: float
    dt: float
    conservation: ConservationReport
    grad_norm: float
    sup_norm: float
    virials: dict  # R -> VirialReport

    def row(self, R: float, zR_second_fd: float) -> dict:
        """The series row of radius R keyed by CSV_COLUMNS: the fields of the
        same name of this sample, its conservation report and the virial
        report of R. The second difference of z_R spans three samples, so
        the caller gives it."""
        known = {**vars(self), **vars(self.conservation), **vars(self.virials[R])}
        known["zR_second_fd"] = zR_second_fd
        return {name: known[name] for name in CSV_COLUMNS}


class GridWeights:
    """Per-(grid, params) arrays reused across time samples: the cell
    centres along one axis, |x| and |x|^-b."""

    def __init__(self, grid, params):
        self.params = params
        self.axis = grid.axis_coords()
        self.r = grid.radii()
        self.w_b = self.r ** (-params.b)
        self.quad = grid.cell_volume


class ProfileOnGrid:
    """The per-radius weights of the virial sums, from one profile
    evaluation on the support box |x_j| < 2R (box, one slice per axis):
    phi_R flat over the whole grid, R^2 phi(2) outside the box, and every
    other weight on the box alone. Outside the box those weights are 0,
    except the K1 and K2 weights, which equal K1_tail and K2_tail."""

    def __init__(self, profile: CutoffProfile, gw: GridWeights):
        N, b = gw.params.ndim, gw.params.b
        inside = np.flatnonzero(np.abs(gw.axis) < 2.0 * profile.R)
        lo, hi = (inside[0], inside[-1] + 1) if inside.size else (0, 0)
        self.box = (slice(lo, hi),) * N
        r = gw.r[self.box]
        phi_R, self.dphi_over_r, d2phi, self.bilap = profile.virial_profile(r)
        # every r outside the box is at least 2R, where phi is constant
        self.phi_R = np.full(gw.r.size, profile.R**2 * profile.phi_outer)
        self.phi_R.reshape(gw.r.shape)[self.box] = phi_R  # a view of the flat array
        # (d2/r^2 - dphi/r^3) = (d2phi - dphi/r)/r^2
        self.aniso = (d2phi - self.dphi_over_r) / r**2
        self.w_t4 = -d2phi - (N - 1.0 + b * N / (2.0 - b)) * self.dphi_over_r
        self.w_K1 = 2.0 - self.dphi_over_r  # Phi_1 / 4
        self.w_K2 = (2.0 - b) * (2.0 - d2phi) + (2.0 * N - 2.0 + b) * self.w_K1  # Phi_2 cN / 2
        # the two formulas above at d2phi = dphi_over_r = 0
        self.K1_tail = 2.0
        self.K2_tail = (2.0 - b) * 2.0 + (2.0 * N - 2.0 + b) * 2.0


class Densities:
    """The pointwise densities of one field that conservation, the sup norm
    and the virial pass share: |u|, |u|^2, |x|^-b |u|^p and the full-grid
    sum of the last. Each is formed once, at its first use, so its cost
    falls inside the first diagnostic that reads it."""

    def __init__(self, f: Field, gw: GridWeights):
        self._f = f
        self._gw = gw

    @cached_property
    def absu(self) -> np.ndarray:
        return np.abs(self._f.values)

    @cached_property
    def absu2(self) -> np.ndarray:
        return self.absu**2

    @cached_property
    def wup(self) -> np.ndarray:
        return self._gw.w_b * self.absu2 ** (self._f.params.p / 2.0)

    @cached_property
    def wup_total(self) -> float:
        return float(np.sum(self.wup))


def mass_drift(mass, mass0: float):
    """|mass / mass0 - 1|; 0 when mass0 = 0, as the zero field stays zero."""
    return np.abs(mass / mass0 - 1.0) if mass0 > 0 else np.zeros_like(mass)


def conservation(
    plan: SpectralPlan, f: Field, gw: GridWeights, dens: Densities | None = None
) -> ConservationReport:
    dens = dens or Densities(f, gw)
    mass = gw.quad * float(np.sum(dens.absu2))
    kinetic = plan.grad_norm(f.values) ** 2
    pot = gw.quad * dens.wup_total
    energy = 0.5 * kinetic - f.params.energy_coefficient * pot
    return ConservationReport(mass=mass, energy=energy, kinetic=kinetic, potential_weighted=pot)


def virial_z_second(
    plan: SpectralPlan,
    f: Field,
    gw: GridWeights,
    pgs: dict,
    energy: float,
    dens: Densities | None = None,
) -> dict:
    """R -> VirialReport for every radius of pgs (R -> ProfileOnGrid), from
    one gradient pass: z_R, z_R' = 2 Im int (partial_r phi_R / r)
    (x . grad u) conj(u), and the second derivative (four-term radial form)
    split into 2-alpha*E + K1 + K2 + K3; alpha_check records the measured
    multiple of energy, the conservation report's energy of f, closing the
    decomposition. Every sum but z_R's runs over the radius's support box."""
    dens = dens or Densities(f, gw)
    params = f.params
    quad = gw.quad
    N, b = params.ndim, params.b
    cN = N + 2.0 - b
    coef = (4.0 - 2.0 * b) / cN

    grads, xdot = plan.radial_derivative_arrays(f.values)
    u = f.values
    grad2 = sum(np.abs(g) ** 2 for g in grads)
    grad2_total = float(np.sum(grad2))
    absu2, wup = dens.absu2, dens.wup

    def total(weight, density, out):
        # the pairwise sum of the weighted integrand: z_R feeds a second
        # difference in time, which multiplies its rounding by 4/h^2, so
        # not np.einsum (sequential); not np.dot, whose BLAS rounding can
        # change with the thread count
        return float(np.sum(np.multiply(weight, density, out=out)))

    flat = np.empty(absu2.size)
    reports = {}
    for R, pg in pgs.items():
        # the densities on the support box; the two of x . grad u are
        # formed there alone
        box = pg.box
        grad2_b, wup_b, xdot_b, u_b = grad2[box], wup[box], xdot[box], u[box]
        out = np.empty(pg.w_K1.shape)

        t1 = 4.0 * quad * total(pg.dphi_over_r, grad2_b, out)
        t2 = 4.0 * quad * total(pg.aniso, np.abs(xdot_b) ** 2, out)
        t3 = -quad * total(pg.bilap, absu2[box], out)
        t4 = coef * quad * total(pg.w_t4, wup_b, out)
        z_second = t1 + t2 + t3 + t4

        # the constant weight outside the box times the density's sum there
        K1_out = pg.K1_tail * (grad2_total - float(np.sum(grad2_b)))
        K2_out = pg.K2_tail * (dens.wup_total - float(np.sum(wup_b)))
        K1 = -4.0 * quad * (total(pg.w_K1, grad2_b, out) + K1_out) + t2
        K2 = (2.0 / cN) * quad * (total(pg.w_K2, wup_b, out) + K2_out)
        K3 = t3

        if abs(energy) > ALPHA_ENERGY_FLOOR:
            alpha = (z_second - K1 - K2 - K3) / energy
        else:
            alpha = float("nan")

        zR = quad * total(pg.phi_R, absu2.ravel(), flat)
        im_xdot_conj_u = xdot_b.imag * u_b.real - xdot_b.real * u_b.imag
        z_prime = 2.0 * quad * total(pg.dphi_over_r, im_xdot_conj_u, out)

        reports[R] = VirialReport(
            zR=zR,
            zR_prime=z_prime,
            zR_second_formula=z_second,
            K1=K1,
            K2=K2,
            K3=K3,
            alpha_check=alpha,
        )
    return reports


def sample(plan: SpectralPlan, f: Field, gw: GridWeights, pgs: dict, t: float, dt: float) -> Sample:
    """Conservation and every radius's virial report for f at time t, from
    one set of the field's densities."""
    dens = Densities(f, gw)
    cons = conservation(plan, f, gw, dens)
    return Sample(
        t=t,
        dt=dt,
        conservation=cons,
        grad_norm=float(np.sqrt(cons.kinetic)),
        sup_norm=float(np.max(dens.absu)),
        virials=virial_z_second(plan, f, gw, pgs, cons.energy, dens),
    )


CSV_COLUMNS = [
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
