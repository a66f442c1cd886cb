"""Localization weight construction and its pointwise certificates."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import BPoly

import inlslab

from inlslab.cli import main
from inlslab.core import InvariantError, ProblemParams
from inlslab.cutoff import (
    ANTIDERIVATIVE,
    ConstraintError,
    CutoffProfile,
    UnboundedRatioError,
    bilaplacian_sup,
    build_cutoff,
    check_k,
    default_k,
    find_epsilon,
    grad_weight_bound,
    k_lower_bounds,
    r_star,
    verify_phicond,
    weight_exponent,
    _rho_samples,
)

P1 = ProblemParams(1, 0.5)


class TestProfileShape:
    def test_r_star_closed_form(self):
        assert r_star(2) == pytest.approx(1.5)
        for k in (3, 4, 7):
            assert r_star(k) == pytest.approx(1.0 + (1.0 / k) ** (1.0 / (k - 1)))

    def test_v_piecewise_values_k2(self, unchecked_cutoff):
        p = ProblemParams(2, 1.5)  # k=2 is admissible here
        prof = unchecked_cutoff(2, 1.0, p)
        assert prof.v(np.array([1.0]))[0] == pytest.approx(2.0)
        assert prof.v(np.array([1.5]))[0] == pytest.approx(2.5)
        assert prof.v(np.array([3.0]))[0] == 0.0

    def test_v_linear_inner_and_zero_outer(self):
        prof = build_cutoff(5, 1.0, P1)
        rho = np.linspace(0.01, 1.0, 50)
        assert np.allclose(prof.v(rho), 2.0 * rho)
        assert np.all(prof.v(np.linspace(2.0, 5.0, 50)) == 0.0)

    def test_bridge_strictly_decreasing(self, unchecked_cutoff):
        for k in (2, 3, 4, 5, 9, 41, 401, 4001):
            prof = unchecked_cutoff(k, 1.0, P1)
            rho = np.linspace(prof.r_star, 2.0, 10**4 + 2)[1:-1]
            v1 = prof.v_derivs(rho)[1]
            assert np.all(v1 < 0.0)

    def test_profiles_with_the_same_k_share_one_bridge(self):
        # the bridge depends on k alone: built and checked once per k
        prof = build_cutoff(5, 1.0, P1)
        assert build_cutoff(5, 7.0, ProblemParams(3, 0.5)).bridge is prof.bridge
        assert build_cutoff(6, 1.0, P1).bridge is not prof.bridge

    @pytest.mark.parametrize("k", [3, 5, 9])
    def test_v_smooth_at_joints(self, k, unchecked_cutoff):
        # both branches are closed forms: v through its third derivative
        # must agree across r_star, and v must vanish smoothly at 2
        prof = unchecked_cutoff(k, 1.0, P1)
        eps = 1e-12
        below = [val[0] for val in prof.v_derivs(np.array([prof.r_star - eps]))]
        above = [val[0] for val in prof.v_derivs(np.array([prof.r_star + eps]))]
        for lo, hi in zip(below, above):
            assert abs(lo - hi) < 1e-8
        at_two = [val[0] for val in prof.v_derivs(np.array([2.0 - eps]))]
        for val in at_two:
            assert abs(val) < 1e-8

    def test_derivative_caps(self, unchecked_cutoff):
        # dphi_R <= 2r and d2phi_R <= 2 everywhere, densely sampled
        for k in (3, 5):
            prof = unchecked_cutoff(k, 2.5, P1)
            r = np.linspace(1e-3, 12.0, 20001)
            assert np.all(prof.dphi_R(r) <= 2.0 * r + 1e-12)
            assert np.all(prof.d2phi_R(r) <= 2.0 + 1e-12)

    def test_phi_is_antiderivative_of_v(self):
        prof = build_cutoff(5, 1.0, P1)
        rho = np.linspace(0.05, 3.5, 997)
        step = 1e-6
        fd = (prof.phi(rho + step) - prof.phi(rho - step)) / (2.0 * step)
        assert np.max(np.abs(fd - prof.v(rho))) < 1e-7

    def test_phi_R_scaling(self):
        prof1 = build_cutoff(5, 1.0, P1)
        prof7 = build_cutoff(5, 7.0, P1)
        rho = np.linspace(0.1, 3.0, 101)
        assert np.allclose(prof7.phi_R(7.0 * rho), 49.0 * prof1.phi_R(rho))


def _left_derivatives(k, a):
    """v and its first five derivatives at a = r_star, from 2r - 2(r-1)^k."""
    d = a - 1.0
    out = [2.0 * a - 2.0 * d**k, 0.0]
    for n in range(2, 6):
        c = -2.0
        for j in range(n):
            c *= k - j
        out.append(c * d ** (k - n) if k >= n else 0.0)
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5, 9, 41, 401, 4001])
class TestBridgeKernel:
    def test_matches_bpoly(self, k, unchecked_cutoff):
        # the closed-form Bernstein coefficients and their cached
        # derivatives and antiderivative against scipy's construction
        prof = unchecked_cutoff(k, 1.0, P1)
        a = prof.r_star
        ref = BPoly.from_derivatives([a, 2.0], [_left_derivatives(k, a), [0.0] * 6])
        x = np.linspace(a, 2.0, 20001)
        got = prof.bridge(x, (0, 1, 2, 3, ANTIDERIVATIVE))
        want = [ref(x)] + [ref.derivative(n)(x) for n in (1, 2, 3)] + [ref.antiderivative()(x)]
        for order, g, w in zip((0, 1, 2, 3, ANTIDERIVATIVE), got, want):
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), order

    def test_v_derivs_match_left_data_at_r_star(self, k, unchecked_cutoff):
        prof = unchecked_cutoff(k, 1.0, P1)
        # one ulp right of r_star, so the bridge branch answers
        rho = np.array([np.nextafter(prof.r_star, 2.0)])
        for got, want in zip(prof.v_derivs(rho), _left_derivatives(k, prof.r_star)):
            assert abs(got[0] - want) <= 1e-10 * max(abs(want), 1.0)

    def test_vanishes_to_fifth_order_at_two(self, k, unchecked_cutoff):
        prof = unchecked_cutoff(k, 1.0, P1)
        assert all(val[0] == 0.0 for val in prof.bridge(np.array([2.0]), (0, 1, 2, 3)))
        # v(2 - delta) ~ C delta^6 with C > 0, kept to relative accuracy
        h = 2.0 - prof.r_star
        delta = h * np.array([1e-3, 1e-4, 1e-5])
        ratio = prof.v(2.0 - delta) / delta**6
        assert np.all(ratio > 0.0)
        assert abs(ratio[2] / ratio[1] - 1.0) < 1e-3
        assert abs(ratio[1] / ratio[0] - 1.0) < 1e-2


class TestKRule:
    def test_lower_bounds(self):
        assert k_lower_bounds(ProblemParams(1, 0.5)) == [2.5, 4.0]
        assert k_lower_bounds(ProblemParams(2, 1.0)) == [2.0, 4.0]
        assert k_lower_bounds(ProblemParams(3, 1.5)) == [1.5, 2.0 / 1.5]

    def test_default_k_satisfies_strict_bounds(self):
        for N in (1, 2, 3):
            for b in (0.5, 1.0, 1.5):
                p = ProblemParams(N, b)
                check_k(default_k(p), p)  # must not raise

    def test_check_k_rejects_boundary(self):
        with pytest.raises(ConstraintError):
            check_k(4, ProblemParams(1, 0.5))  # k = 2/b exactly
        with pytest.raises(ConstraintError):
            check_k(4, ProblemParams(2, 1.0))  # k = 4/b exactly

    def test_build_rejects_non_integer_or_small_k(self):
        # 2.5 and 1 are also under check_k's bounds: the integer check fires first
        with pytest.raises(ConstraintError, match=r"^k must be an integer >= 2, got 2\.5$"):
            build_cutoff(2.5, 1.0, P1)
        with pytest.raises(ConstraintError, match=r"^k must be an integer >= 2, got 1$"):
            build_cutoff(1, 1.0, P1)

    def test_build_rejects_k_under_the_bounds(self, unchecked_cutoff):
        with pytest.raises(ConstraintError, match="strictly greater than 4"):
            build_cutoff(4, 1.0, P1)
        # past the bounds the tests' unchecked profile is the built one
        assert unchecked_cutoff(5, 2.0, P1) == build_cutoff(5, 2.0, P1)

    def test_build_rejects_bad_R(self):
        with pytest.raises(InvariantError):
            build_cutoff(5, -1.0, P1)

    @pytest.mark.parametrize("R", [float("nan"), float("inf")])
    def test_build_rejects_a_non_finite_R(self, R):
        # a NaN R gave NaN z_R beside finite K1 and K2; an infinite one
        # divided by zero in the epsilon search
        with pytest.raises(InvariantError, match="R must be positive and finite"):
            build_cutoff(5, R, P1)


class TestPhicond:
    def test_inner_region_is_exactly_zero(self):
        prof = build_cutoff(5, 1.0, P1)
        r = np.linspace(0.01, 1.0, 200)
        assert np.all(prof.phicond_expr(r) == 0.0)

    def test_middle_region_closed_form(self, unchecked_cutoff):
        # dphi_R - r d2phi_R = 2R d^(k-1) (k rho - d) with d = rho - 1
        k, R = 4, 2.5
        prof = unchecked_cutoff(k, R, P1)
        rho = np.linspace(1.0 + 1e-6, prof.r_star, 50)
        d = rho - 1.0
        expect = R * 2.0 * d ** (k - 1) * (k * rho - d)
        got = prof.phicond_expr(rho * R)
        assert np.allclose(got, expect, rtol=1e-12)
        assert np.all(got > 0.0)

    @pytest.mark.parametrize("R", [1.0, 2.5])
    def test_verify_phicond_passes(self, R, unchecked_cutoff):
        prof = unchecked_cutoff(4, R, P1)
        rep = verify_phicond(prof, 10**4)
        assert rep["passed"]
        assert rep["min"] >= -1e-12

    def test_matches_direct_derivatives(self):
        prof = build_cutoff(5, 1.0, P1)
        r = np.linspace(1.01, 3.0, 400)
        direct = prof.dphi_R(r) - r * prof.d2phi_R(r)
        assert np.max(np.abs(direct - prof.phicond_expr(r))) < 1e-10


class TestWeights:
    def test_inner_region_vanishes(self):
        prof = build_cutoff(5, 2.0, P1)
        r = np.linspace(0.01, 2.0, 100)
        assert np.all(prof.phi1(r) == 0.0)
        assert np.all(prof.phi2(r) == 0.0)

    def test_outer_constants(self):
        prof = build_cutoff(5, 1.0, ProblemParams(3, 1.0))
        r = np.linspace(2.0, 6.0, 50)
        assert np.allclose(prof.phi1(r), 8.0)
        assert np.allclose(prof.phi2(r), 6.0)  # 8*3/(3+2-1)
        prof = build_cutoff(5, 1.0, P1)
        assert np.allclose(prof.phi1(r), 8.0)
        assert np.allclose(prof.phi2(r), 8.0 / (1.0 + 2.0 - 0.5))

    def test_nonnegative_everywhere(self):
        for N in (1, 2, 3):
            p = ProblemParams(N, 0.5)
            prof = build_cutoff(default_k(p), 1.0, p)
            r = np.linspace(1e-3, 5.0, 30001)
            assert np.all(prof.phi1(r) >= 0.0)
            assert np.all(prof.phi2(r) >= -1e-15)

    def test_region_forms_match_definitions(self, unchecked_cutoff):
        # Phi_1 = 4(2 - dphi_R/r), Phi_2 from the derivative combination
        p = ProblemParams(1, 0.5)
        prof = unchecked_cutoff(4, 1.0, p)
        r = np.linspace(1.05, 3.5, 400)
        phi1_direct = 4.0 * (2.0 - prof.dphi_R_over_r(r))
        assert np.max(np.abs(prof.phi1(r) - phi1_direct)) < 1e-10
        cN = p.ndim + 2.0 - p.b
        phi2_direct = (2.0 / cN) * (
            (2.0 - p.b) * (2.0 - prof.d2phi_R(r))
            + (2.0 * p.ndim - 2.0 + p.b) * (2.0 - prof.dphi_R_over_r(r))
        )
        assert np.max(np.abs(prof.phi2(r) - phi2_direct)) < 1e-10

    def test_scale_invariance(self):
        rho = np.linspace(0.2, 3.8, 500)
        base = build_cutoff(5, 1.0, P1)
        for R in (10.0, 100.0):
            prof = build_cutoff(5, R, P1)
            assert np.allclose(prof.phi1(rho * R), base.phi1(rho), rtol=1e-13)
            assert np.allclose(prof.phi2(rho * R), base.phi2(rho), rtol=1e-13)


class TestDeficits:
    def test_constant_off_the_transition(self):
        prof = build_cutoff(5, 2.0, P1)
        for r, value in ((np.linspace(0.0, 2.0, 100), 0.0), (np.linspace(4.0, 9.0, 100), 2.0)):
            a, c, dc = prof.deficits(r)
            assert np.all(a == value) and np.all(c == value) and np.all(dc == 0.0)

    def test_phi1_is_the_middle_closed_form(self):
        prof = build_cutoff(5, 1.0, P1)
        rho = np.linspace(1.0, prof.r_star, 500)[1:]
        assert np.array_equal(prof.phi1(rho), 8.0 * (rho - 1.0) ** 5 / rho)


class TestGradWeightBound:
    def test_r_independence(self):
        # the bound is the sup of the rho-derivative, with no factor of R: a
        # tiny R neither overflows nor moves it
        for N in (1, 2, 3):
            for b in (0.1, 0.5, 1.0, 1.5, 1.9):
                p = ProblemParams(N, b)
                vals = [
                    grad_weight_bound(build_cutoff(default_k(p), R, p), 10**4)
                    for R in (1.0, 10.0, 100.0, 0.125, 7.0, 1e-300)
                ]
                assert (max(vals) - min(vals)) / max(vals) < 1e-12, (N, b)

    def test_finite_and_positive(self):
        assert 0.0 < grad_weight_bound(build_cutoff(5, 1.0, P1), 10**4) < np.inf

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("R", [1.0, 10.0])
    def test_derivative_matches_central_differences(self, N, b, R):
        p = ProblemParams(N, b)
        prof = build_cutoff(default_k(p), R, p)
        e = weight_exponent(p)
        h = 1e-7 * R
        for lo, hi in ((1.0, prof.r_star), (prof.r_star, 2.0)):
            # the piece less a twentieth of it at each joint
            gap = 0.05 * (hi - lo)
            r = R * np.linspace(lo + gap, hi - gap, 400)
            fd = (prof.phi2(r + h) ** e - prof.phi2(r - h) ** e) / (2.0 * h)
            assert np.max(np.abs(prof.dphi2_pow(r, e) - fd)) <= 1e-8 * np.max(np.abs(fd))

    def test_derivative_vanishes_on_the_core(self):
        prof = build_cutoff(5, 2.0, P1)
        assert np.all(prof.dphi2_pow(np.linspace(0.0, 2.0, 100), weight_exponent(P1)) == 0.0)


class TestEpsilon:
    def test_valid_k_gives_verified_epsilon(self):
        prof = build_cutoff(5, 1.0, P1)
        res = find_epsilon(prof, 1.0, 10**4)
        assert res.epsilon > 0.0
        assert res.verified

    def test_outer_region_example_bounds_epsilon(self):
        # N=1, b=1, outer ratio (8/2)^2/8 = 2, so eps <= 1/(4c)
        p = ProblemParams(1, 1.0)
        prof = build_cutoff(default_k(p), 1.0, p)
        res = find_epsilon(prof, 1.0, 10**4)
        assert res.epsilon <= 1.0 / 4.0 + 1e-12

    def test_phi1_lower_bound_beyond_r_star(self):
        prof = build_cutoff(5, 1.0, P1)
        k = prof.k
        bound = 8.0 * (1.0 / k) ** (k / (k - 1.0)) / (1.0 + (1.0 / k) ** (1.0 / (k - 1.0)))
        rho = np.linspace(prof.r_star, 4.0, 2000)
        assert np.all(prof.phi1(rho) >= bound - 1e-12)

    def test_epsilon_scales_inversely_with_c(self):
        prof = build_cutoff(5, 1.0, P1)
        e1 = find_epsilon(prof, 1.0, 10**4).epsilon
        e2 = find_epsilon(prof, 2.0, 10**4).epsilon
        assert e1 == pytest.approx(2.0 * e2, rel=1e-12)

    @pytest.mark.parametrize(
        "N,b,kbad",
        [(1, 0.5, 3), (3, 0.5, 3), (2, 0.5, 7), (2, 1.0, 3), (2, 1.5, 2)],
    )
    def test_unbounded_ratio_detected_for_small_k(self, N, b, kbad, unchecked_cutoff):
        p = ProblemParams(N, b)
        prof = unchecked_cutoff(kbad, 1.0, p)
        with pytest.raises(UnboundedRatioError):
            find_epsilon(prof, 1.0, 10**4)

    def test_rejects_nonpositive_c(self):
        prof = build_cutoff(5, 1.0, P1)
        with pytest.raises(InvariantError):
            find_epsilon(prof, 0.0, 10**4)

    def test_too_few_samples_fail_between_them(self, capsys):
        # at 10 samples the sup misses the peak: at rho = 1.8415, between two
        # samples, eps Phi_2^q = 14.56 while Phi_1 = 6.87
        assert main(["cutoff-verify", "--N", "1", "--b", "1.9", "--samples", "10"]) == 2
        assert json.loads(capsys.readouterr().out)["phivare_passed"] is False

    def test_two_ratio_passes(self, monkeypatch):
        # the 3-point probe near r = R, the n samples above rho = 1 + 1e-6
        # and the n - 1 midpoints between them: 2n + 2 points
        prof = build_cutoff(5, 1.0, P1)
        n = int(np.count_nonzero(_rho_samples(prof, 10**4) > 1.0 + 1e-6))
        sizes = []
        deficits = CutoffProfile.deficits

        def counted(self, r):
            sizes.append(np.size(r))
            return deficits(self, r)

        monkeypatch.setattr(CutoffProfile, "deficits", counted)
        find_epsilon(prof, 1.0, 10**4)
        assert sizes == [3, n, n - 1]

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("b", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_r_independence(self, N, b):
        # every profile evaluator divides r by R first; only the rounding of
        # (rho R)/R can differ between radii
        p = ProblemParams(N, b)
        res = [
            find_epsilon(build_cutoff(default_k(p), R, p), 1.0, 10**4)
            for R in (1.0, 10.0, 100.0, 0.125, 7.0)
        ]
        for name in ("epsilon", "sup_ratio"):
            vals = [getattr(r, name) for r in res]
            assert (max(vals) - min(vals)) / max(vals) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("b", [0.02, 0.05, 0.1])
    def test_small_b_certifies(self, N, b, capsys):
        # at the default k (21 to 201) (rho-1)^k underflows to 0 where
        # (rho-1)^(k-1) does not; the ratio must not read that as Phi_1 = 0
        assert main(["cutoff-verify", "--N", str(N), "--b", str(b), "--samples", "10000"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["phicond_passed"] and rep["phivare_passed"] and rep["epsilon"] > 0.0


class TestBilaplacian:
    def test_vanishes_on_inner_region(self):
        prof = build_cutoff(5, 1.0, ProblemParams(3, 0.5))
        r = np.linspace(0.01, 1.0, 100)
        assert np.all(prof.bilaplacian_phi_R(r) == 0.0)

    def test_sup_scales_as_inverse_R_squared(self):
        sups = [R**2 * bilaplacian_sup(build_cutoff(5, R, P1), 10**4) for R in (1.0, 10.0, 100.0)]
        assert (max(sups) - min(sups)) / max(sups) < 1e-6


@pytest.mark.parametrize("N,b", [(1, 0.5), (2, 1.0), (3, 0.5)])
@pytest.mark.parametrize("R", [0.5, 2.0, 4.0])
def test_virial_profile_equals_the_separate_evaluators(N, b, R):
    p = ProblemParams(N, b)
    prof = build_cutoff(default_k(p), R, p)
    # the origin, every piece, both joints and the outer region
    r = np.concatenate([[0.0, R, prof.r_star * R, 2.0 * R], np.linspace(0.0, 5.0 * R, 1001)])
    phi_R, dphi_over_r, d2phi, bilap, phi1, phi2 = prof.virial_profile(r)
    assert np.array_equal(phi_R, prof.phi_R(r))
    assert np.array_equal(dphi_over_r, prof.dphi_R_over_r(r))
    assert np.array_equal(d2phi, prof.d2phi_R(r))
    assert np.array_equal(bilap, prof.bilaplacian_phi_R(r))
    assert np.array_equal(phi1, prof.phi1(r))
    assert np.array_equal(phi2, prof.phi2(r))


def test_cli_imports_no_interpolation_or_optimization():
    # the package needs numpy alone; importing scipy.fft would more than
    # double every command's start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(inlslab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import inlslab.cli, sys; "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


CERTIFICATE_FAULTS = """
import resource

from inlslab.core import ProblemParams
from inlslab.cutoff import build_cutoff, default_k, find_epsilon, grad_weight_bound, verify_phicond

before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for N in (1, 2, 3):
    p = ProblemParams(N, 0.5)
    prof = build_cutoff(default_k(p), 1.0, p)
    verify_phicond(prof, 20000)
    grad_weight_bound(prof, 20000)
    find_epsilon(prof, 1.0, 20000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_certificates_do_not_refault_their_arrays():
    # 20000 samples make 160 KB arrays, above glibc's default mmap threshold;
    # without the heap hold spectral makes at import, every temporary is
    # mapped and unmapped again: about 2500 faults a certificate
    src = os.path.dirname(os.path.dirname(os.path.abspath(inlslab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", CERTIFICATE_FAULTS], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    assert int(out) < 1000
