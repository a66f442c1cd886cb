"""Localization weight for the virial argument.

v(r) equals 2r up to 1, bends down as 2r - 2(r-1)^k up to its maximum at
r_star = 1 + (1/k)^(1/(k-1)), decreases smoothly to 0 at r = 2, and
vanishes beyond. phi is its antiderivative; phi_R(r) = R^2 phi(r/R).
The derived weights Phi_1 and Phi_2 and every pointwise inequality the
concavity argument needs are verified here by dense sampling.

All profile functions depend on r only through rho = r/R, which is what
makes every certificate R-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BPoly

from .core import InvariantError, ProblemParams

PHICOND_SLACK = 1e-12


class ConstraintError(InvariantError):
    """The exponent k violates a dimension-appropriate constraint."""


class BridgeError(RuntimeError):
    """The smooth bridge could not be made strictly decreasing."""


class UnboundedRatioError(RuntimeError):
    """sup Phi_2^q / Phi_1 diverges as r -> R+ (k too small for this b)."""


def r_star(k: int) -> float:
    return 1.0 + (1.0 / k) ** (1.0 / (k - 1))


def k_lower_bounds(params: ProblemParams) -> list:
    """Strict lower bounds on k: 3-b always, plus 2/b (or 4/b when N=2)."""
    b = params.b
    bounds = [3.0 - b]
    bounds.append(4.0 / b if params.ndim == 2 else 2.0 / b)
    return bounds


def check_k(k: int, params: ProblemParams) -> None:
    for bound in k_lower_bounds(params):
        if not k > bound:
            raise ConstraintError(
                f"k={k} must be strictly greater than {bound:g} for N={params.ndim}, b={params.b}"
            )


def default_k(params: ProblemParams) -> int:
    """Smallest ceiling satisfying every strict bound, plus one for margin."""
    k = max(2, max(math.ceil(bound) for bound in k_lower_bounds(params)) + 1)
    return k


def _build_bridge(k: int):
    """Degree-11 Hermite piece on [r_star, 2] matching v through the fifth
    derivative at r_star and vanishing with five derivatives at 2. The
    extra smoothness keeps quadratures of the derived weights at spectral
    grid resolution well below the diagnostic tolerances.

    On monotonicity failure an intermediate knot is inserted once.
    """
    a = r_star(k)
    d = a - 1.0
    va = 2.0 * a - 2.0 * d**k

    def deriv_at_a(n):
        # n-th derivative of 2*rho - 2*(rho-1)^k at rho = a, n >= 2
        if k < n:
            return 0.0
        c = -2.0
        for j in range(n):
            c *= k - j
        return c * d ** (k - n)

    left = [va, 0.0] + [deriv_at_a(n) for n in range(2, 6)]
    right = [0.0] * 6

    def monotone(bp):
        t = np.linspace(a, 2.0, 10002)[1:-1]
        return bool(np.all(bp.derivative()(t) < 0.0))

    bridge = BPoly.from_derivatives([a, 2.0], [left, right])
    if not monotone(bridge):
        mid = 0.5 * (a + 2.0)
        mid_vals = [0.5 * va, -1.5 * va / (2.0 - a), 0.0]
        bridge = BPoly.from_derivatives([a, mid, 2.0], [left, mid_vals, right])
        if not monotone(bridge):
            raise BridgeError(f"no strictly decreasing bridge found for k={k}")
    return a, bridge


def _over_rho(v, rho):
    """v/rho, with its limit 2 at the origin."""
    return np.where(rho > 0, v / np.where(rho > 0, rho, 1.0), 2.0)


@dataclass(frozen=True)
class CutoffProfile:
    """Built by build_cutoff(); immutable. Radial profile functions take
    the physical radius r and evaluate closed forms in rho = r/R."""

    k: int
    R: float
    params: ProblemParams
    r_star: float
    bridge: object  # BPoly on [r_star, 2]

    # --- rho-space profile -------------------------------------------------

    def v_derivs(self, rho):
        """(v, v', v'', v''') at rho, piecewise closed-form."""
        rho = np.asarray(rho, dtype=float)
        k = self.k
        v = np.zeros_like(rho)
        v1 = np.zeros_like(rho)
        v2 = np.zeros_like(rho)
        v3 = np.zeros_like(rho)

        m = rho <= 1.0
        v[m] = 2.0 * rho[m]
        v1[m] = 2.0

        m = (rho > 1.0) & (rho <= self.r_star)
        d = rho[m] - 1.0
        v[m] = 2.0 * rho[m] - 2.0 * d**k
        v1[m] = 2.0 - 2.0 * k * d ** (k - 1)
        v2[m] = -2.0 * k * (k - 1) * d ** (k - 2)
        if k > 2:
            v3[m] = -2.0 * k * (k - 1) * (k - 2) * d ** (k - 3)

        m = (rho > self.r_star) & (rho < 2.0)
        if np.any(m):
            t = rho[m]
            v[m] = self.bridge(t)
            v1[m] = self.bridge.derivative(1)(t)
            v2[m] = self.bridge.derivative(2)(t)
            v3[m] = self.bridge.derivative(3)(t)
        return v, v1, v2, v3

    def v(self, rho):
        return self.v_derivs(rho)[0]

    def phi(self, rho):
        """Antiderivative of v from 0, exact on every piece."""
        rho = np.asarray(rho, dtype=float)
        k = self.k
        a = self.r_star
        phi_star = a**2 - 2.0 * (a - 1.0) ** (k + 1) / (k + 1)
        anti = self.bridge.antiderivative()
        out = np.empty_like(rho)

        m = rho <= 1.0
        out[m] = rho[m] ** 2
        m = (rho > 1.0) & (rho <= a)
        out[m] = rho[m] ** 2 - 2.0 * (rho[m] - 1.0) ** (k + 1) / (k + 1)
        m = (rho > a) & (rho < 2.0)
        out[m] = phi_star + anti(rho[m])
        m = rho >= 2.0
        out[m] = phi_star + anti(2.0)
        return out

    @property
    def sup_phi(self) -> float:
        # v >= 0 up to 2, zero after: phi is nondecreasing, flat beyond 2
        return float(self.phi(np.array([2.0]))[0])

    # --- r-space profile ---------------------------------------------------

    def phi_R(self, r):
        return self.R**2 * self.phi(np.asarray(r, dtype=float) / self.R)

    def dphi_R(self, r):
        return self.R * self.v(np.asarray(r, dtype=float) / self.R)

    def d2phi_R(self, r):
        return self.v_derivs(np.asarray(r, dtype=float) / self.R)[1]

    def dphi_R_over_r(self, r):
        """partial_r phi_R / r = v(rho)/rho; regular at the origin."""
        rho = np.asarray(r, dtype=float) / self.R
        return _over_rho(self.v(rho), rho)

    def phicond_expr(self, r):
        """partial_r phi_R - r partial^2_r phi_R, with the inner-region
        cancellation done analytically (both branches equal 2r there)."""
        rho = np.asarray(r, dtype=float) / self.R
        k = self.k
        out = np.zeros_like(rho)
        m = (rho > 1.0) & (rho <= self.r_star)
        d = rho[m] - 1.0
        out[m] = 2.0 * d ** (k - 1) * (k * rho[m] - d)
        m = (rho > self.r_star) & (rho < 2.0)
        if np.any(m):
            t = rho[m]
            out[m] = self.bridge(t) - t * self.bridge.derivative(1)(t)
        return self.R * out

    def bilaplacian_phi_R(self, r):
        """Lap^2 phi_R from closed-form radial derivatives of each piece."""
        rho = np.asarray(r, dtype=float) / self.R
        return self._bilaplacian(rho, *self.v_derivs(rho))

    def virial_profile(self, r):
        """(phi_R, partial_r phi_R / r, partial^2_r phi_R, Lap^2 phi_R) at r
        from one v_derivs evaluation; each equals its own evaluator's
        result exactly."""
        rho = np.asarray(r, dtype=float) / self.R
        derivs = self.v_derivs(rho)
        return (
            self.R**2 * self.phi(rho),
            _over_rho(derivs[0], rho),
            derivs[1],
            self._bilaplacian(rho, *derivs),
        )

    def _bilaplacian(self, rho, v, v1, v2, v3):
        n1 = self.params.ndim - 1
        inner = rho <= 1.0
        safe = np.where(inner, 1.0, rho)
        vor = np.where(inner, 2.0, v / safe)  # v/rho
        # g = Lap phi in rho; inner region g = 2N constant => Lap^2 = 0
        g1 = n1 * (v1 - vor) / safe + v2
        g2 = n1 * (v2 - 2.0 * (v1 - vor) / safe) / safe + v3
        out = (n1 * g1 / safe + g2) / self.R**2
        out[inner] = 0.0
        return out

    # --- derived weights ---------------------------------------------------

    def phi1(self, r):
        """Phi_1,R(r) = 4(2 - partial_r phi_R / r); closed form per region
        so the (rho-1)^k smallness near r=R is never lost to cancellation."""
        rho = np.asarray(r, dtype=float) / self.R
        out = np.zeros_like(rho)
        m = (rho > 1.0) & (rho <= self.r_star)
        out[m] = 8.0 * (rho[m] - 1.0) ** self.k / rho[m]
        m = (rho > self.r_star) & (rho < 2.0)
        if np.any(m):
            out[m] = 4.0 * (2.0 - self.bridge(rho[m]) / rho[m])
        out[rho >= 2.0] = 8.0
        return out

    def phi2(self, r):
        rho = np.asarray(r, dtype=float) / self.R
        N, b, k = self.params.ndim, self.params.b, self.k
        cN = N + 2.0 - b
        out = np.zeros_like(rho)
        m = (rho > 1.0) & (rho <= self.r_star)
        d = rho[m] - 1.0
        out[m] = (4.0 / cN) * d ** (k - 1) * (k * (2.0 - b) + (2.0 * N - 2.0 + b) * d / rho[m])
        m = (rho > self.r_star) & (rho < 2.0)
        if np.any(m):
            t = rho[m]
            out[m] = (2.0 / cN) * (
                (2.0 - b) * (2.0 - self.bridge.derivative(1)(t))
                + (2.0 * N - 2.0 + b) * (2.0 - self.bridge(t) / t)
            )
        out[rho >= 2.0] = 8.0 * N / cN
        return out

    @property
    def phi1_outer(self) -> float:
        return 8.0

    @property
    def phi2_outer(self) -> float:
        return 8.0 * self.params.ndim / (self.params.ndim + 2.0 - self.params.b)

    @property
    def weight_exponent(self) -> float:
        """Fractional power applied to Phi_2 in the gradient bound:
        1/(2-b), or 1/(2-b/2) in dimension two."""
        b = self.params.b
        return 1.0 / (2.0 - b / 2.0) if self.params.ndim == 2 else 1.0 / (2.0 - b)


def build_cutoff(k: int, R: float, params: ProblemParams, validate_k: bool = True) -> CutoffProfile:
    """Construct and certify the profile. validate_k=False skips the strict
    k bounds (used to exercise the unbounded-ratio error path)."""
    if int(k) != k or k < 2:
        raise ConstraintError(f"k must be an integer >= 2, got {k}")
    k = int(k)
    if R <= 0:
        raise InvariantError(f"R must be positive, got {R}")
    if validate_k:
        check_k(k, params)
    a, bridge = _build_bridge(k)
    return CutoffProfile(k=k, R=float(R), params=params, r_star=a, bridge=bridge)


def _rho_samples(profile: CutoffProfile, n: int) -> np.ndarray:
    """Dense rho samples over (0, 4], geometrically refined toward rho=1+
    where the weights degenerate. Raises InvariantError when n leaves a
    piece (inner, near 1, bridge, outer) empty: a check of the tail alone
    would pass trivially."""
    n_in = n // 5
    n_mid = 2 * n // 5
    if n_in < 2 or n_mid < 2:
        raise InvariantError(
            f"{n} samples leave a piece of rho in (0, 4] unsampled; need at least 10"
        )
    n_out = n - n_in - 2 * n_mid
    inner = np.linspace(0.0, 1.0, n_in, endpoint=False)[1:]
    near = 1.0 + np.geomspace(1e-9, profile.r_star - 1.0, n_mid)
    bridge = np.linspace(profile.r_star, 2.0, n_mid, endpoint=False)[1:]
    outer = np.linspace(2.0, 4.0, max(n_out, 2))
    return np.concatenate([inner, near, bridge, outer])


def verify_phicond(profile: CutoffProfile, samples: int = 10**4) -> dict:
    """Checks partial_r phi_R - r partial^2_r phi_R >= 0 over (0, 4R]."""
    rho = _rho_samples(profile, samples)
    vals = profile.phicond_expr(rho * profile.R)
    i = int(np.argmin(vals))
    return {
        "min": float(vals[i]),
        "argmin_r": float(rho[i] * profile.R),
        "samples": int(rho.size),
        "passed": bool(vals[i] >= -PHICOND_SLACK),
    }


def grad_weight_bound(profile: CutoffProfile, samples: int = 10**5) -> float:
    """sup over r in (0, 4R] of R * |d/dr Phi_2^e| (e the dimension-dependent
    exponent), by central differences on the smooth pieces."""
    e = profile.weight_exponent
    R = profile.R
    sup = 0.0
    pieces = [(1.0, profile.r_star), (profile.r_star, 2.0), (2.0, 4.0)]
    n = max(samples // 3, 100)
    for lo, hi in pieces:
        rho = np.linspace(lo, hi, n + 2)[1:-1]
        if lo == 1.0:
            rho = 1.0 + np.geomspace(1e-9, hi - 1.0, n, endpoint=False)
        step = np.minimum(np.minimum(rho - lo, hi - rho) * 0.5, 1e-7)
        wp = profile.phi2((rho + step) * R) ** e
        wm = profile.phi2((rho - step) * R) ** e
        deriv = (wp - wm) / (2.0 * step * R)  # d/dr in physical radius
        sup = max(sup, float(np.max(R * np.abs(deriv))))
    return sup


@dataclass(frozen=True)
class EpsilonResult:
    epsilon: float
    sup_ratio: float
    argmax_r: float
    verified: bool


def find_epsilon(profile: CutoffProfile, c: float, samples: int = 10**5) -> EpsilonResult:
    """Largest-margin epsilon with c*eps*Phi_2^q(r) <= Phi_1(r) for r > R,
    q the dimension-dependent exponent 2/(2-b) (2/(2-b/2) when N=2).

    Raises UnboundedRatioError when the ratio diverges as r -> R+, which
    happens exactly when k <= 2/b (k <= 4/b in dimension two).
    """
    if c <= 0:
        raise InvariantError("constant c must be positive")
    q = 2.0 * profile.weight_exponent
    R = profile.R

    def ratio(rho):
        p1 = profile.phi1(rho * R)
        p2 = profile.phi2(rho * R)
        bad = (p1 == 0.0) & (p2 > 0.0)
        if np.any(bad):
            raise RuntimeError("Phi_1 vanishes where Phi_2 does not: broken construction")
        out = np.zeros_like(p1)
        m = p1 > 0.0
        out[m] = p2[m] ** q / p1[m]
        return out

    # one-sided probe of the removable 0/0 at r -> R+. The ratio behaves
    # as (rho-1)^s near rho=1; a positive power-law slope of the sampled
    # ratio as rho-1 shrinks means the one-sided limit diverges (the
    # divergence can be slow, so a magnitude heuristic is not enough).
    deltas = np.array([1e-6, 1e-7, 1e-8])
    probe_vals = ratio(1.0 + deltas)
    if probe_vals[0] > 0.0 and probe_vals[2] > 0.0:
        slope = np.log(probe_vals[2] / probe_vals[0]) / np.log(deltas[0] / deltas[2])
        if slope > 0.01:
            raise UnboundedRatioError(
                f"Phi_2^{q:g}/Phi_1 grows without bound as r -> R+: "
                f"k={profile.k} violates the strict bound for b={profile.params.b}"
            )

    rho = _rho_samples(profile, samples)
    rho = rho[rho > 1.0 + 1e-6]
    vals = ratio(rho)
    i = int(np.argmax(vals))
    sup_ratio = float(vals[i])
    eps = 1.0 / (2.0 * c * sup_ratio)

    # pointwise recheck of the claimed inequality on the same dense grid
    lhs = c * eps * profile.phi2(rho * R) ** q - profile.phi1(rho * R)
    verified = bool(np.all(lhs <= PHICOND_SLACK))

    # R-independence: the construction depends only on r/R
    eps_other = []
    for r_alt in (1.0, 10.0, 100.0):
        alt = CutoffProfile(
            k=profile.k, R=r_alt, params=profile.params,
            r_star=profile.r_star, bridge=profile.bridge,
        )
        vals_alt = alt.phi2(rho * r_alt) ** q
        p1_alt = alt.phi1(rho * r_alt)
        s_alt = float(np.max(vals_alt[p1_alt > 0] / p1_alt[p1_alt > 0]))
        eps_other.append(1.0 / (2.0 * c * s_alt))
    spread = (max(eps_other) - min(eps_other)) / max(eps_other)
    if spread > 1e-6:
        raise RuntimeError(f"epsilon is not R-independent (spread {spread:.2e})")

    return EpsilonResult(
        epsilon=eps, sup_ratio=sup_ratio, argmax_r=float(rho[i] * R), verified=verified
    )


def bilaplacian_sup(profile: CutoffProfile, samples: int = 10**5) -> float:
    """sup |Lap^2 phi_R| by dense radial sampling (scales as 1/R^2)."""
    rho = _rho_samples(profile, samples)
    return float(np.max(np.abs(profile.bilaplacian_phi_R(rho * profile.R))))
