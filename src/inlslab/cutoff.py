"""Localization weight for the virial argument.

v(r) equals 2r up to 1, bends down as 2r - 2(r-1)^k up to its maximum at
r_star = 1 + (1/k)^(1/(k-1)), decreases smoothly to 0 at r = 2 along a
degree-11 Bernstein polynomial (the bridge, class Bridge), and vanishes
beyond. phi is its antiderivative; phi_R(r) = R^2 phi(r/R).
The derived weights Phi_1 and Phi_2 and every pointwise inequality the
concavity argument needs are verified here by dense sampling.

All profile functions depend on r only through rho = r/R, which is what
makes every certificate R-independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

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
    return [3.0 - params.b, (4.0 if params.ndim == 2 else 2.0) / params.b]


def check_k(k: int, params: ProblemParams) -> None:
    for bound in k_lower_bounds(params):
        if not k > bound:
            raise ConstraintError(
                f"k={k} must be strictly greater than {bound:g} for N={params.ndim}, b={params.b}"
            )


def weight_exponent(params: ProblemParams) -> float:
    """Fractional power e applied to the weight in the gradient bound and
    the interpolation estimates: 1/(2-b), or 1/(2-b/2) in dimension two."""
    b = params.b
    return 1.0 / (2.0 - b / 2.0) if params.ndim == 2 else 1.0 / (2.0 - b)


def default_k(params: ProblemParams) -> int:
    """Smallest ceiling satisfying every strict bound, plus one for margin
    (at least 3, since 3 - b > 1)."""
    return max(math.ceil(bound) for bound in k_lower_bounds(params)) + 1


ANTIDERIVATIVE = -1  # the order that asks Bridge for the integral from r_star


class Bridge:
    """A polynomial on [a, 2] with Bernstein coefficients c of degree n.
    The coefficients of its first three derivatives (n diff(c)/h for each
    order, h = 2 - a) and of its antiderivative from a
    ([0, cumsum(c) h/(n+1)]) are formed once. Evaluation keeps the direct
    Bernstein sum, so a zero of high order at 2 keeps its relative
    accuracy."""

    def __init__(self, a: float, c: np.ndarray):
        h = 2.0 - a
        coefs = {0: c}
        for order in (1, 2, 3):
            prev = coefs[order - 1]
            coefs[order] = (prev.size - 1) * np.diff(prev) / h
        coefs[ANTIDERIVATIVE] = np.concatenate([[0.0], np.cumsum(c) * h / c.size])
        self.a, self.h = a, h
        self.integral = float(coefs[ANTIDERIVATIVE][-1])  # from a to 2
        # each coefficient times the binomial of its basis polynomial
        self._terms = {
            order: cs * np.array([math.comb(cs.size - 1, i) for i in range(cs.size)], dtype=float)
            for order, cs in coefs.items()
        }

    def __call__(self, x, orders: tuple) -> list:
        """The requested orders at the points x in [a, 2], from one table
        of the powers of s = (x - a)/h and 1 - s."""
        s = (np.asarray(x, dtype=float) - self.a) / self.h
        terms = [self._terms[order] for order in orders]
        degree = max(cs.size for cs in terms) - 1
        t = 1.0 - s
        tpow = [np.ones_like(s)]
        for _ in range(degree):
            tpow.append(tpow[-1] * t)
        out = [np.zeros_like(s) for _ in orders]
        spow = tpow[0]
        last = max(np.flatnonzero(cs)[-1] for cs in terms)
        for i in range(last + 1):
            if i:
                spow = spow * s
            for acc, cs in zip(out, terms):
                if i < cs.size and cs[i] != 0.0:
                    acc += cs[i] * spow * tpow[cs.size - 1 - i]
        return out


@functools.cache
def _build_bridge(k: int):
    """Degree-11 Hermite piece on [r_star, 2] matching v through the fifth
    derivative at r_star and vanishing with five derivatives at 2. The
    extra smoothness keeps quadratures of the derived weights at spectral
    grid resolution well below the diagnostic tolerances.

    Its Bernstein coefficients are closed-form: the first six have the
    forward differences Delta^m c_0 = v^(m)(a) h^m (11-m)!/11!, h = 2 - a,
    and the last six are zero, since every derivative through the fifth
    vanishes at 2. It depends on k alone: built and checked once per k.
    """
    a = r_star(k)
    d = a - 1.0
    h = 2.0 - a
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
    diffs = [left[m] * h**m * math.factorial(11 - m) / math.factorial(11) for m in range(6)]
    c = np.zeros(12)
    for j in range(6):
        c[j] = sum(math.comb(j, m) * diffs[m] for m in range(j + 1))

    bridge = Bridge(a, c)
    t = np.linspace(a, 2.0, 10002)[1:-1]
    if not np.all(bridge(t, (1,))[0] < 0.0):
        raise BridgeError(f"the bridge for k={k} is not strictly decreasing")
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
    bridge: Bridge  # the degree-11 piece on [r_star, 2]

    # --- rho-space profile -------------------------------------------------

    def _pieces(self, rho):
        """Masks of the middle piece 1 < rho <= r_star and of the bridge
        r_star < rho < 2; v is 2 rho below them and 0 above."""
        return (rho > 1.0) & (rho <= self.r_star), (rho > self.r_star) & (rho < 2.0)

    def v_derivs(self, rho):
        """(v, v', v'', v''') at rho, piecewise closed-form."""
        rho = np.asarray(rho, dtype=float)
        k = self.k
        mid, bridge = self._pieces(rho)
        inner = rho <= 1.0
        v, v1 = np.where(inner, 2.0 * rho, 0.0), np.where(inner, 2.0, 0.0)
        v2, v3 = np.zeros_like(rho), np.zeros_like(rho)
        d = rho[mid] - 1.0
        v[mid] = 2.0 * rho[mid] - 2.0 * d**k
        v1[mid] = 2.0 - 2.0 * k * d ** (k - 1)
        v2[mid] = -2.0 * k * (k - 1) * d ** (k - 2)
        v3[mid] = -2.0 * k * (k - 1) * (k - 2) * d ** (k - 3)
        v[bridge], v1[bridge], v2[bridge], v3[bridge] = self.bridge(rho[bridge], (0, 1, 2, 3))
        return v, v1, v2, v3

    def v(self, rho):
        return self.v_derivs(rho)[0]

    @property
    def _phi_star(self) -> float:
        """phi(r_star), where the bridge's antiderivative starts."""
        a = self.r_star
        return a**2 - 2.0 * (a - 1.0) ** (self.k + 1) / (self.k + 1)

    @property
    def phi_outer(self) -> float:
        """phi(rho) for every rho >= 2, where v vanishes."""
        return self._phi_star + self.bridge.integral

    def phi(self, rho):
        """Antiderivative of v from 0, exact on every piece."""
        rho = np.asarray(rho, dtype=float)
        k = self.k
        mid, bridge = self._pieces(rho)
        out = np.where(rho <= 1.0, rho**2, self.phi_outer)
        out[mid] = rho[mid] ** 2 - 2.0 * (rho[mid] - 1.0) ** (k + 1) / (k + 1)
        out[bridge] = self._phi_star + self.bridge(rho[bridge], (ANTIDERIVATIVE,))[0]
        return out

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
        mid, bridge = self._pieces(rho)
        out = np.zeros_like(rho)
        d = rho[mid] - 1.0
        out[mid] = 2.0 * d ** (k - 1) * (k * rho[mid] - d)
        v, v1 = self.bridge(rho[bridge], (0, 1))
        out[bridge] = v - rho[bridge] * v1
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

    def deficits(self, r):
        """(a, c, dc/drho) at r for the deficits a = 2 - partial_r phi_R / r
        and c = 2 - partial^2_r phi_R, whose slopes close the set: da/drho =
        (c - a)/rho, dc/drho = -v''. Closed form per piece, so the (rho-1)^k
        smallness near r = R is never lost to cancellation."""
        rho = np.asarray(r, dtype=float) / self.R
        k = self.k
        mid, bridge = self._pieces(rho)
        a = np.where(rho >= 2.0, 2.0, 0.0)  # 0 for r <= R, 2 for r >= 2R
        c, dc = a.copy(), np.zeros_like(a)
        d = rho[mid] - 1.0
        a[mid] = 2.0 * d**k / rho[mid]
        c[mid] = 2.0 * k * d ** (k - 1)
        dc[mid] = 2.0 * k * (k - 1) * d ** (k - 2)
        v, v1, v2 = self.bridge(rho[bridge], (0, 1, 2))
        a[bridge], c[bridge], dc[bridge] = 2.0 - v / rho[bridge], 2.0 - v1, -v2
        return a, c, dc

    def _weight2(self, a, c):
        """Phi_2 from the deficits; the map is linear, so it also takes
        their derivatives to Phi_2's."""
        N, b = self.params.ndim, self.params.b
        return (2.0 / (N + 2.0 - b)) * ((2.0 - b) * c + (2.0 * N - 2.0 + b) * a)

    def phi1(self, r):
        """Phi_1,R(r) = 4(2 - partial_r phi_R / r)."""
        return 4.0 * self.deficits(r)[0]

    def phi2(self, r):
        """Phi_2,R(r) = (2/(N+2-b)) ((2-b) c + (2N-2+b) a)."""
        return self._weight2(*self.deficits(r)[:2])

    def dphi2_pow(self, r, e: float):
        """d/dr Phi_2^e at r in closed form, e Phi_2^(e-1) dPhi_2/dr; 0 where
        Phi_2 = 0."""
        rho = np.asarray(r, dtype=float) / self.R
        a, c, dc = self.deficits(r)
        w = self._weight2(a, c)
        out = np.zeros_like(w)
        m = w > 0.0
        dw = self._weight2((c[m] - a[m]) / rho[m], dc[m]) / self.R
        out[m] = e * w[m] ** (e - 1.0) * dw
        return out


def build_cutoff(k: int, R: float, params: ProblemParams) -> CutoffProfile:
    """Construct the profile for an integer k >= 2 that meets the strict
    bounds of check_k for (N, b), and a finite R > 0; raises ConstraintError
    (k) or InvariantError (R) otherwise."""
    if not float(k).is_integer() or k < 2:
        raise ConstraintError(f"k must be an integer >= 2, got {k}")
    k = int(k)
    if not 0.0 < R < math.inf:
        raise InvariantError(f"R must be positive and finite, got {R}")
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


def verify_phicond(profile: CutoffProfile, samples: int) -> dict:
    """Checks partial_r phi_R - r partial^2_r phi_R >= 0 over (0, 4R]."""
    rho = _rho_samples(profile, samples)
    low = float(np.min(profile.phicond_expr(rho * profile.R)))
    return {"min": low, "passed": low >= -PHICOND_SLACK}


def grad_weight_bound(profile: CutoffProfile, samples: int) -> float:
    """sup over r in (0, 4R] of R * |d/dr Phi_2^e| (e the dimension-dependent
    exponent), of the closed-form derivative at the rho samples."""
    rho = _rho_samples(profile, samples)
    deriv = profile.dphi2_pow(rho * profile.R, weight_exponent(profile.params))
    return float(np.max(profile.R * np.abs(deriv)))


@dataclass(frozen=True)
class EpsilonResult:
    epsilon: float
    sup_ratio: float
    verified: bool


def find_epsilon(profile: CutoffProfile, c: float, samples: int) -> EpsilonResult:
    """Largest-margin epsilon with c*eps*Phi_2^q(r) <= Phi_1(r) for r > R,
    q the dimension-dependent exponent 2/(2-b) (2/(2-b/2) when N=2).

    Raises UnboundedRatioError when the ratio diverges as r -> R+, which
    happens exactly when k <= 2/b (k <= 4/b in dimension two).
    """
    if c <= 0:
        raise InvariantError("constant c must be positive")
    q = 2.0 * weight_exponent(profile.params)

    def ratio(prof, rho):
        """(Phi_2^q / Phi_1, Phi_1, Phi_2^q) of prof at rho, 0 where Phi_1
        vanishes. On the middle piece (rho-1)^k can underflow where
        (rho-1)^(k-1) does not, so the ratio there is red rho/(8(rho-1))
        Phi_2^(q-1), red = Phi_2/(rho-1)^(k-1), the power from its log."""
        deficits = prof.deficits(rho * prof.R)
        p1, p2 = 4.0 * deficits[0], prof._weight2(*deficits[:2])
        mid = prof._pieces(rho)[0]
        if np.any(~mid & (p1 == 0.0) & (p2 > 0.0)):
            raise RuntimeError("Phi_1 vanishes where Phi_2 does not: broken construction")
        p2q = p2**q
        out = np.divide(p2q, p1, out=np.zeros_like(p1), where=~mid & (p1 > 0.0))
        t, d = rho[mid], rho[mid] - 1.0
        red = prof._weight2(2.0 * d / t, 2.0 * prof.k)
        log_p2 = np.log(red) + (prof.k - 1) * np.log(d)
        out[mid] = red * t / (8.0 * d) * np.exp((q - 1.0) * log_p2)
        return out, p1, p2q

    # one-sided probe of the removable 0/0 at r -> R+. The ratio behaves
    # as (rho-1)^s near rho=1; a positive power-law slope of the sampled
    # ratio as rho-1 shrinks means the one-sided limit diverges (the
    # divergence can be slow, so a magnitude heuristic is not enough).
    deltas = np.array([1e-6, 1e-7, 1e-8])
    probe_vals = ratio(profile, 1.0 + deltas)[0]
    if probe_vals[0] > 0.0 and probe_vals[2] > 0.0:
        slope = np.log(probe_vals[2] / probe_vals[0]) / np.log(deltas[0] / deltas[2])
        if slope > 0.01:
            raise UnboundedRatioError(
                f"Phi_2^{q:g}/Phi_1 grows without bound as r -> R+: "
                f"k={profile.k} violates the strict bound for b={profile.params.b}"
            )

    rho = _rho_samples(profile, samples)
    rho = rho[rho > 1.0 + 1e-6]
    vals, p1, p2q = ratio(profile, rho)
    sup_ratio = float(np.max(vals))
    eps = 1.0 / (2.0 * c * sup_ratio)

    # pointwise recheck of the claimed inequality on the same dense grid
    lhs = c * eps * p2q - p1
    verified = bool(np.all(lhs <= PHICOND_SLACK))

    # R-independence: the construction depends only on r/R
    eps_other = []
    for r_alt in (1.0, 10.0, 100.0):
        s_alt = float(np.max(ratio(replace(profile, R=r_alt), rho)[0]))
        eps_other.append(1.0 / (2.0 * c * s_alt))
    spread = (max(eps_other) - min(eps_other)) / max(eps_other)
    if spread > 1e-6:
        raise RuntimeError(f"epsilon is not R-independent (spread {spread:.2e})")

    return EpsilonResult(epsilon=eps, sup_ratio=sup_ratio, verified=verified)


def bilaplacian_sup(profile: CutoffProfile, samples: int) -> float:
    """sup |Lap^2 phi_R| by dense radial sampling (scales as 1/R^2)."""
    rho = _rho_samples(profile, samples)
    return float(np.max(np.abs(profile.bilaplacian_phi_R(rho * profile.R))))
