"""Conserved quantities and localized virial diagnostics.

All weighted integrals use the single shared rectangle-rule quadrature so
that algebraic identities among them hold at the discrete level. The
radial cutoff derivatives are closed forms lifted to the Cartesian grid;
x . grad u comes from the Cartesian spectral gradient so non-radial fields
are handled natively.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Per-(grid, params) arrays reused across time samples: |x|, |x|^-b."""

    def __init__(self, grid, params):
        self.params = params
        self.r = grid.radii()
        self.w_b = self.r ** (-params.b)
        self.quad = grid.cell_volume


class ProfileOnGrid:
    """The per-radius weights of the virial sums at the grid radii, flat,
    from one profile evaluation: each sum of virial_z_second is one of
    them against one field density."""

    def __init__(self, profile: CutoffProfile, gw: GridWeights):
        N, b = gw.params.ndim, gw.params.b
        r = gw.r.ravel()
        self.phi_R, self.dphi_over_r, d2phi, self.bilap = profile.virial_profile(r)
        # (d2/r^2 - dphi/r^3) = (d2phi - dphi/r)/r^2
        r2 = r**2
        self.aniso = (d2phi - self.dphi_over_r) / r2
        self.w_t4 = -d2phi - (N - 1.0 + b * N / (2.0 - b)) * self.dphi_over_r
        self.w_K1 = 2.0 - self.dphi_over_r  # Phi_1 / 4
        self.w_K2 = (2.0 - b) * (2.0 - d2phi) + (2.0 * N - 2.0 + b) * self.w_K1  # Phi_2 cN / 2


def conservation(plan: SpectralPlan, f: Field, gw: GridWeights) -> ConservationReport:
    absu2 = np.abs(f.values) ** 2
    mass = gw.quad * float(np.sum(absu2))
    kinetic = plan.grad_norm(f.values) ** 2
    pot = gw.quad * float(np.sum(gw.w_b * absu2 ** (f.params.p / 2.0)))
    energy = 0.5 * kinetic - f.params.energy_coefficient * pot
    return ConservationReport(mass=mass, energy=energy, kinetic=kinetic, potential_weighted=pot)


def virial_z_second(
    plan: SpectralPlan, f: Field, gw: GridWeights, pgs: dict, energy: float
) -> dict:
    """R -> VirialReport for every radius of pgs (R -> ProfileOnGrid), from
    one gradient pass: z_R, z_R' = 2 Im int (partial_r phi_R / r)
    (x . grad u) conj(u), and the second derivative (four-term radial form)
    split into 2-alpha*E + K1 + K2 + K3; alpha_check records the measured
    multiple of energy, the conservation report's energy of f, closing the
    decomposition."""
    params = f.params
    quad = gw.quad
    N, b = params.ndim, params.b
    cN = N + 2.0 - b
    coef = (4.0 - 2.0 * b) / cN

    grads, xdot = plan.radial_derivative_arrays(f.values)
    u = f.values.ravel()
    xdot = xdot.ravel()
    grad2 = sum(np.abs(g) ** 2 for g in grads).ravel()
    xdot2 = np.abs(xdot) ** 2
    absu2 = np.abs(u) ** 2
    wup = gw.w_b.ravel() * absu2 ** (params.p / 2.0)  # |x|^-b |u|^p
    im_xdot_conj_u = xdot.imag * u.real - xdot.real * u.imag

    product = np.empty_like(absu2)

    def total(weight, density):
        # the pairwise sum of the weighted integrand: z_R feeds a second
        # difference in time, which multiplies its rounding by 4/h^2, so
        # not np.einsum (sequential); not np.dot, whose BLAS rounding can
        # change with the thread count
        return float(np.sum(np.multiply(weight, density, out=product)))

    reports = {}
    for R, pg in pgs.items():
        t1 = 4.0 * quad * total(pg.dphi_over_r, grad2)
        t2 = 4.0 * quad * total(pg.aniso, xdot2)
        t3 = -quad * total(pg.bilap, absu2)
        t4 = coef * quad * total(pg.w_t4, wup)
        z_second = t1 + t2 + t3 + t4

        K1 = -4.0 * quad * total(pg.w_K1, grad2) + t2
        K2 = (2.0 / cN) * quad * total(pg.w_K2, wup)
        K3 = t3

        if abs(energy) > ALPHA_ENERGY_FLOOR:
            alpha = (z_second - K1 - K2 - K3) / energy
        else:
            alpha = float("nan")

        zR = quad * total(pg.phi_R, absu2)
        z_prime = 2.0 * quad * total(pg.dphi_over_r, im_xdot_conj_u)

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
    """Conservation and every radius's virial report for f at time t."""
    cons = conservation(plan, f, gw)
    return Sample(
        t=t,
        dt=dt,
        conservation=cons,
        grad_norm=float(np.sqrt(cons.kinetic)),
        sup_norm=float(np.max(np.abs(f.values))),
        virials=virial_z_second(plan, f, gw, pgs, cons.energy),
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
