"""Empirical verification of the weighted interpolation estimates and the
classical Gagliardo-Nirenberg bound.

"Verification" here means boundedness of the ratio LHS/RHS over documented,
seeded test-function families; the estimated constant c_hat is an empirical
stand-in for the analytic implicit constants and is labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy import fft as _fft

from .core import Grid, InvariantError, ProblemParams, gaussian
from .cutoff import CutoffProfile, weight_exponent
from .spectral import SpectralPlan

WHICH = ("interp1", "interp2", "otn1", "gn")
WEIGHTS = ("paper_Phi2", "gaussian_bump")


class RadialWeight:
    """Nonnegative radial weight with a closed-form derivative of its
    fractional powers. scale, the Gaussian bump's width, must be positive
    and finite."""

    def __init__(self, kind: str, scale: float = 1.0, profile: CutoffProfile | None = None):
        if kind not in WEIGHTS:
            raise InvariantError(f"unknown weight kind {kind!r}")
        if kind == "paper_Phi2" and profile is None:
            raise InvariantError("paper_Phi2 weight needs a cutoff profile")
        if not (0.0 < scale < np.inf):
            raise InvariantError(f"weight scale must be positive and finite, got {scale!r}")
        self.kind = kind
        self.scale = scale
        self.profile = profile

    def w(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian_bump":
            return np.exp(-(r**2) / (2.0 * self.scale**2))
        return self.profile.phi2(r)

    def dpow(self, r, e: float):
        """d/dr of w(r)^e."""
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian_bump":
            return -(e * r / self.scale**2) * np.exp(-e * r**2 / (2.0 * self.scale**2))
        return self.profile.dphi2_pow(r, e)


class IneqCase:
    """One inequality on one grid with one weight, validated when built.
    Construction also builds, once for all trials, the spectral plan and
    the factors that do not depend on the field: w, (d/dr w^e)^2 and w^2e
    on the grid, plus w^(e/2) for otn1. gn is unweighted: it ignores a
    weight and its factors stay None."""

    def __init__(
        self, which: str, params: ProblemParams, grid: Grid, weight: RadialWeight | None = None
    ):
        if which not in WHICH:
            raise InvariantError(f"unknown inequality {which!r}")
        if which == "interp1" and params.ndim == 2:
            raise InvariantError("interp1 applies for N != 2")
        if which == "interp2" and params.ndim != 2:
            raise InvariantError("interp2 requires N=2")
        if which == "otn1" and params.ndim != 1:
            raise InvariantError("otn1 requires N=1")
        if params.ndim != grid.ndim:
            raise InvariantError(f"N={params.ndim} params on an N={grid.ndim} grid")
        if which != "gn" and weight is None:
            raise InvariantError(f"{which} needs a weight")
        self.which, self.params, self.grid, self.weight = which, params, grid, weight
        self.plan = SpectralPlan(grid)
        self.w = self.dpow2 = self.w2e = self.w_half_e = None
        if which == "gn":
            return
        r = grid.radii()
        w = self.w = weight.w(r)
        if not np.all((w >= 0) & (w < np.inf)):
            raise InvariantError("weight must be finite and nonnegative")
        e = weight_exponent(params)
        self.dpow2 = weight.dpow(r, e) ** 2
        # formed after dpow's temporaries are freed, so peak memory stays put
        self.w2e = w ** (2 * e)
        if which == "otn1":
            self.w_half_e = w ** (e / 2.0)


def _quad(grid: Grid, arr) -> float:
    return grid.cell_volume * float(np.sum(arr))


def lhs_rhs(case: IneqCase, u: np.ndarray) -> tuple:
    """Both sides of the chosen inequality for u, with implicit constant 1."""
    grid, params = case.grid, case.params
    N, b = params.ndim, params.b
    # the gradient density (x . grad u on an empty box) is reduced and
    # dropped before |u| is formed, so no derivative component and no |u|
    # temporary are alive together
    grad2, _ = case.plan.gradient_pass(u, 0, 0)
    if case.which == "gn":
        gn = np.sqrt(_quad(grid, grad2))
    else:
        grad_term = np.sqrt(_quad(grid, case.w2e * grad2))
    del grad2
    absu = np.abs(u)
    absu2 = absu**2
    l2 = np.sqrt(_quad(grid, absu2))
    if case.which != "gn":
        # every weighted estimate bounds by sqrt int |d(w^e)|^2 |u|^2 +
        # sqrt int w^2e |grad u|^2; interp2 adds sqrt int w^2e |u|^2 in front
        term = np.sqrt(_quad(grid, case.dpow2 * absu2))
        if case.which == "interp2":
            term = np.sqrt(_quad(grid, case.w2e * absu2)) + term
        term = term + grad_term
    del absu2  # dropped before the left side's power of |u| is formed

    if case.which == "gn":
        sigma = (2.0 - b) / N
        lhs = _quad(grid, absu ** (2.0 * sigma + 2.0))
        rhs = gn ** (N * sigma) * l2 ** (2.0 + sigma * (2.0 - N))
        return lhs, rhs

    if case.which == "otn1":
        lhs = float(np.max(case.w_half_e * absu))
        rhs = np.sqrt(l2) * np.sqrt(term)
        return lhs, rhs

    if case.which == "interp1":
        lhs = _quad(grid, case.w * absu**params.p)
        rhs = term ** (2.0 - b) * l2 ** ((4.0 + b * (N - 2.0)) / N)
        return lhs, rhs

    # interp2, N = 2
    lhs = _quad(grid, case.w * absu ** (4.0 - b))
    rhs = term ** (2.0 - b / 2.0) * l2 ** (2.0 - b / 2.0)
    return lhs, rhs


def _gaussian_member(grid: Grid, scale: float, shift: float, mod: float) -> np.ndarray:
    """A unit Gaussian shifted along the first axis, modulated along it."""
    return gaussian(grid, 1.0, scale, (shift,)) * np.exp(1j * mod * grid.coords()[0])


def _bandlimited_member(grid: Grid, rng) -> np.ndarray:
    M = grid.points_per_axis
    cut = max(M // 8, 2)
    # the draws of standard_normal(shape) + 1j * standard_normal(shape),
    # written into the spectrum's real and imaginary parts in that order
    spec = np.empty(grid.shape, dtype=np.complex128)
    spec.real = rng.standard_normal(grid.shape)
    spec.imag = rng.standard_normal(grid.shape)
    m = np.fft.fftfreq(M) * M
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.ndim):
        sh = [1] * grid.ndim
        sh[axis] = M
        mask &= np.abs(m.reshape(sh)) <= cut
    spec[~mask] = 0.0
    u = _fft.ifftn(spec, out=spec)
    u /= np.max(np.abs(u))
    return u


@dataclass(frozen=True)
class ConstantEstimate:
    c_hat: float
    argmax: dict
    ratios: np.ndarray


def estimate_constant(case: IneqCase, trials: int, seed: int) -> ConstantEstimate:
    """Max of LHS/RHS over a seeded Gaussian/band-limited family, followed
    by a coordinate search over scale and shift around the best Gaussian
    member."""
    if trials < 1:
        raise InvariantError("trials must be >= 1")
    L = case.grid.half_width
    k0 = np.pi / L

    def ratio_of(u):
        lhs, rhs = lhs_rhs(case, u)
        return lhs / rhs if rhs > 0 else 0.0

    ratios = []
    best = (0.0, None)
    # member i is a function of (seed, i) alone, so a larger trial count
    # extends the family and the sup estimate is monotone in trials; no
    # name holds a member, so each is freed before the next is built
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        if i % 5 == 0:
            rr = ratio_of(_bandlimited_member(case.grid, rng))
            desc = {"kind": "bandlimited", "index": i}
        else:
            scale = float(np.exp(rng.uniform(np.log(0.4), np.log(2.5))))
            shift = float(rng.uniform(0.0, L / 3.0))
            mod = float(k0 * rng.integers(0, 9))
            rr = ratio_of(_gaussian_member(case.grid, scale, shift, mod))
            desc = {"kind": "gaussian", "scale": scale, "shift": shift, "mod": mod}
        ratios.append(rr)
        if rr > best[0]:
            best = (rr, desc)

    # coordinate refinement around the best Gaussian member
    if best[1] is not None and best[1]["kind"] == "gaussian":
        d = dict(best[1])
        for _ in range(2):
            for key in ("scale", "shift"):
                for fac in (0.9, 1.1):
                    trial = dict(d)
                    trial[key] = d[key] * fac
                    rr = ratio_of(
                        _gaussian_member(case.grid, trial["scale"], trial["shift"], trial["mod"])
                    )
                    if rr > best[0]:
                        best = (rr, trial)
                        d = trial
    if best[0] == 0.0:
        raise InvariantError("degenerate family: every RHS vanished")
    return ConstantEstimate(c_hat=best[0], argmax=best[1], ratios=np.array(ratios))
