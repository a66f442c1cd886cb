"""Conserved quantities and localized virial diagnostics.

All weighted integrals use the single shared rectangle-rule quadrature so
that algebraic identities among them hold at the discrete level. The
radial cutoff derivatives and the weights Phi_1 and Phi_2 are the closed
forms of cutoff.CutoffProfile lifted to the Cartesian grid; x . grad u
comes from the Cartesian spectral gradient so non-radial fields are
handled natively.

Support boxes: v and its first three derivatives vanish for rho = r/R >= 2,
so outside the ball r < 2R phi_R, Phi_1 and Phi_2 are constant and every
other virial weight is 0. ProfileOnGrid keeps every weight only on the
index box |x_j| < 2R of its radius, which holds the ball, and the sums run
over the box alone; K1 and K2 add the constant Phi_1 or Phi_2 times the
density's full-grid sum less its box sum. z_R keeps its full-grid sum,
of phi_R_outer |u|^2 with phi_R |u|^2 written over the box: z_R feeds a
second difference in time that magnifies any change in its rounding.
Every diagnostic takes the field's array u, with the grid, its spectral
plan and the problem parameters from its GridWeights alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import InvariantError
from .cutoff import CutoffProfile
from .spectral import SpectralPlan, abs_pow

ALPHA_ENERGY_FLOOR = 1e-10
PROFILE_BLOCK = 2**13  # points per evaluation of a cutoff profile on a support box


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
    """Per-(grid, params) data reused across time samples: the grid, its
    spectral plan, its cell volume and |x|^-b, for b < min(2, N) (check_b)."""

    @staticmethod
    def check_b(params) -> None:
        top = min(2, params.ndim)  # for N = 1, |x|^-b is not integrable at 0 from b = 1
        if not params.b < top:
            raise InvariantError(
                f"the dynamics need b in (0, {top}) for N={params.ndim}, got b={params.b}"
            )

    def __init__(self, grid, params):
        self.check_b(params)
        self.grid = grid
        self.params = params
        self.plan = SpectralPlan(grid)
        self.w_b = grid.radii() ** (-params.b)
        self.quad = grid.cell_volume


class ProfileOnGrid:
    """The per-radius weights of the virial sums, from one profile
    evaluation on the support box |x_j| < 2R, the index box [lo, hi)^N, empty
    at lo = hi = M/2, so boxes nest: every weight on the box alone, with
    phi_R, Phi_1 and Phi_2 equal to phi_R_outer, phi1_outer and phi2_outer
    outside it and the others 0. The profile must be built for gw's (N, b)."""

    def __init__(self, profile: CutoffProfile, gw: GridWeights):
        N, b = gw.params.ndim, gw.params.b
        if profile.params != gw.params:
            p = profile.params
            raise InvariantError(f"cutoff profile built for N={p.ndim}, b={p.b}, not N={N}, b={b}")
        inside = np.flatnonzero(np.abs(gw.grid.axis_coords()) < 2.0 * profile.R)
        centre = gw.grid.points_per_axis // 2
        self.lo, self.hi = (inside[0], inside[-1] + 1) if inside.size else (centre, centre)
        self.box = (slice(self.lo, self.hi),) * N
        r = gw.grid.radii(self.lo, self.hi)
        # every r outside the box is at least 2R, where phi_R, Phi_1 and Phi_2 are constant
        outer = [float(w(2.0 * profile.R)) for w in (profile.phi_R, profile.phi1, profile.phi2)]
        self.phi_R_outer, self.phi1_outer, self.phi2_outer = outer
        # The weights are pointwise in r, so they are evaluated in blocks of
        # PROFILE_BLOCK points, into one array allocated first: the profile's
        # temporaries stay small, and free the heap in one piece.
        weights = np.empty((7, r.size))
        flat_r = r.reshape(-1)
        for at in range(0, r.size, PROFILE_BLOCK):
            rb = flat_r[at : at + PROFILE_BLOCK]
            phi_R, dphi_over_r, d2phi, bilap, phi1, phi2 = profile.virial_profile(rb)
            # (d2/r^2 - dphi/r^3) = (d2phi - dphi/r)/r^2
            aniso = (d2phi - dphi_over_r) / rb**2
            w_t4 = -d2phi - (N - 1.0 + b * N / (2.0 - b)) * dphi_over_r
            weights[:, at : at + PROFILE_BLOCK] = (phi_R, dphi_over_r, bilap, phi1, phi2, aniso, w_t4)
        self.phi_R, self.dphi_over_r, self.bilap, self.phi1, self.phi2, self.aniso, self.w_t4 = (
            w.reshape(r.shape) for w in weights
        )


class Densities:
    """The pointwise densities of one field u that conservation, the sup
    norm and the virial pass share: |u|, |u|^2, |x|^-b |u|^p (as |x|^-b
    |u|^sigma |u|^2) and the full-grid sum of the last. Each is formed
    once, at its first use, so its cost falls inside the first diagnostic
    that reads it; sample drops |u| once the sup norm is read from it."""

    def __init__(self, u: np.ndarray, gw: GridWeights):
        self._u = u
        self._gw = gw

    @cached_property
    def absu(self) -> np.ndarray:
        return np.abs(self._u)

    @cached_property
    def absu2(self) -> np.ndarray:
        return self.absu**2

    @cached_property
    def wup(self) -> np.ndarray:
        return self._gw.w_b * abs_pow(self.absu, self._gw.params.sigma) * self.absu2

    @cached_property
    def wup_total(self) -> float:
        return float(np.sum(self.wup))


def mass_drift(mass, mass0: float):
    """|mass / mass0 - 1|; 0 when mass0 = 0, as the zero field stays zero."""
    return np.abs(mass / mass0 - 1.0) if mass0 > 0 else np.zeros_like(mass)


def conservation(
    u: np.ndarray, gw: GridWeights, dens: Densities | None = None
) -> ConservationReport:
    dens = dens or Densities(u, gw)
    mass = gw.quad * float(np.sum(dens.absu2))
    kinetic = gw.plan.grad_norm(u) ** 2
    pot = gw.quad * dens.wup_total
    energy = 0.5 * kinetic - gw.params.energy_coefficient * pot
    return ConservationReport(mass=mass, energy=energy, kinetic=kinetic, potential_weighted=pot)


def virial_z_second(
    u: np.ndarray, gw: GridWeights, pgs: dict, energy: float, dens: Densities | None = None
) -> dict:
    """R -> VirialReport for every radius of pgs (R -> ProfileOnGrid), from
    one gradient pass over u: z_R, z_R' = 2 Im int (partial_r phi_R / r)
    (x . grad u) conj(u), and the second derivative (four-term radial form)
    split into 2-alpha*E + K1 + K2 + K3, with K1 = -int Phi_1 |grad u|^2 +
    t2 and K2 = int Phi_2 |x|^-b |u|^p; alpha_check records the measured
    multiple of energy, the conservation report's energy of u, closing the
    decomposition. Every sum but z_R's runs over the radius's support box.

    The gradient comes from one SpectralPlan.gradient_pass: |grad u|^2
    over the grid and x . grad u over the widest support box, the one with
    the smallest lo, which holds every other box.

    Each sum is the pairwise np.sum of one fresh weighted integrand. z_R
    feeds a second difference in time, which multiplies its rounding by
    4/h^2, so not np.einsum (sequential), and not np.dot, whose BLAS
    rounding can change with the thread count."""
    dens = dens or Densities(u, gw)
    quad = gw.quad
    N, b = gw.params.ndim, gw.params.b
    coef = (4.0 - 2.0 * b) / (N + 2.0 - b)
    absu2, wup = dens.absu2, dens.wup

    # the support boxes are nested, so the widest has the smallest lo
    lo, hi = min(((pg.lo, pg.hi) for pg in pgs.values()), default=(0, 0))
    grad2, xdot = gw.plan.gradient_pass(u, lo, hi)
    grad2_total = float(np.sum(grad2))

    reports = {}
    for R, pg in pgs.items():
        # the densities on the support box, and x . grad u there from its
        # place in the widest box
        box = pg.box
        inner = (slice(pg.lo - lo, pg.hi - lo),) * N
        grad2_b, wup_b, xdot_b, u_b = grad2[box], wup[box], xdot[inner], u[box]

        t1 = 4.0 * quad * float(np.sum(pg.dphi_over_r * grad2_b))
        t2 = 4.0 * quad * float(np.sum(pg.aniso * np.abs(xdot_b) ** 2))
        t3 = -quad * float(np.sum(pg.bilap * absu2[box]))
        t4 = coef * quad * float(np.sum(pg.w_t4 * wup_b))
        z_second = t1 + t2 + t3 + t4

        # the constant weight outside the box times the density's sum there
        K1_out = pg.phi1_outer * (grad2_total - float(np.sum(grad2_b)))
        K2_out = pg.phi2_outer * (dens.wup_total - float(np.sum(wup_b)))
        K1 = -quad * (float(np.sum(pg.phi1 * grad2_b)) + K1_out) + t2
        K2 = quad * (float(np.sum(pg.phi2 * wup_b)) + K2_out)
        K3 = t3

        if abs(energy) > ALPHA_ENERGY_FLOOR:
            alpha = (z_second - K1 - K2 - K3) / energy
        else:
            alpha = float("nan")

        # z_R's integrand over the whole grid: phi_R_outer |u|^2, then the box
        z = pg.phi_R_outer * absu2
        z[box] = pg.phi_R * absu2[box]
        zR = quad * float(np.sum(z))
        del z  # freed before the integrand of z_R' is formed
        im_xdot_conj_u = xdot_b.imag * u_b.real - xdot_b.real * u_b.imag
        z_prime = 2.0 * quad * float(np.sum(pg.dphi_over_r * im_xdot_conj_u))

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


def sample(u: np.ndarray, gw: GridWeights, pgs: dict, t: float, dt: float) -> Sample:
    """Conservation and every radius's virial report for u at time t, from
    one set of its densities; |u| is freed before the virial pass."""
    dens = Densities(u, gw)
    cons = conservation(u, gw, dens)
    sup_norm = float(np.max(dens.absu))
    del dens.absu  # |u|^2 and |x|^-b |u|^p are formed; the virial pass reads no |u|
    return Sample(
        t=t,
        dt=dt,
        conservation=cons,
        grad_norm=float(np.sqrt(cons.kinetic)),
        sup_norm=sup_norm,
        virials=virial_z_second(u, gw, pgs, cons.energy, dens),
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
