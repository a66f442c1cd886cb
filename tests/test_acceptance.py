"""End-to-end acceptance checks, one test per numbered criterion.

Each test exercises the library or CLI the way a user would and asserts
the headline properties at their stated tolerances: conservation,
virial-identity agreement, closure-coefficient constancy, cutoff
certificates, the negative-energy blow-up demonstration (centered and
off-center), positive-energy control, the inequality suite, and audit
determinism. Shared long runs are module-scoped fixtures so the suite
pays for each simulation once.
"""

import json
import os

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import bisect

from inlslab.core import Grid, InitialData, ProblemParams, realize
from inlslab.cli import main as cli_main
from inlslab.cutoff import (
    UnboundedRatioError,
    build_cutoff,
    default_k,
    find_epsilon,
    grad_weight_bound,
    verify_phicond,
)
from inlslab.inequalities import (
    IneqCase,
    RadialWeight,
    estimate_constant,
    lhs_rhs,
)
from inlslab.solver import (
    OUTCOME_BLOWUP,
    OUTCOME_REACHED_T_MAX,
    SolverConfig,
    run,
)
from inlslab.spectral import SpectralPlan

PARAMS = ProblemParams(1, 0.5)
CONS_GRID = Grid(1, 20.0, 2048)
CONS_INIT = InitialData(kind="gaussian", amplitude=0.25, width=1.0 / np.sqrt(5.0))
CONS_R = (2.0, 4.0, 8.0)

BLOWUP_WIDTH = 8.0 / np.sqrt(5.0)
BLOWUP_GRID_M = 65536
BLOWUP_R = (0.125, 0.25, 0.5)


def oracle_energy_threshold(width):
    """Amplitude at which the Gaussian's energy changes sign, from
    quadrature integrals and bisection only (no package quadrature)."""
    gradsq = quad(
        lambda x: (x / width**2 * np.exp(-(x**2) / (2.0 * width**2))) ** 2,
        -np.inf,
        np.inf,
    )[0]
    pot = quad(
        lambda x: abs(x) ** -0.5 * np.exp(-2.5 * x**2 / width**2),
        -30.0,
        30.0,
        points=[0.0],
    )[0]

    def energy(A):
        return 0.5 * A**2 * gradsq - 0.2 * A**5 * pot

    assert energy(1e-3) > 0.0 and energy(10.0) < 0.0
    return bisect(energy, 1e-3, 10.0, xtol=1e-12)


@pytest.fixture(scope="module")
def conservation_runs():
    """The conservation experiment at three step sizes, with sample
    strides chosen so all runs report at the same 1001 times."""
    profiles = [build_cutoff(default_k(PARAMS), R, PARAMS) for R in CONS_R]
    reps = {}
    for dt0, stride in ((1e-4, 10), (5e-5, 20), (2.5e-5, 40)):
        cfg = SolverConfig(
            dt0=dt0, dt_floor=dt0 * 1e-4, t_max=1.0, sample_stride=stride
        )
        reps[dt0] = run(CONS_INIT, PARAMS, CONS_GRID, cfg, profiles)
    return reps


@pytest.fixture(scope="module")
def blowup_centered(tmp_path_factory):
    """Negative-energy centered Gaussian run via the CLI, with
    checkpoints, shared with the audit criterion."""
    out_dir = str(tmp_path_factory.mktemp("blowup_centered"))
    grid = Grid(1, 20.0, BLOWUP_GRID_M)
    amplitude = 1.5 * oracle_energy_threshold(BLOWUP_WIDTH)
    init = InitialData(kind="gaussian", amplitude=amplitude, width=BLOWUP_WIDTH)
    gn0 = SpectralPlan(grid).grad_norm(realize(init, PARAMS, grid).values)
    text = f"""
[problem]
N = 1
b = 0.5

[grid]
L = 20.0
M = {BLOWUP_GRID_M}

[init]
kind = gaussian
amplitude = {float(amplitude):.17g}
width = {float(BLOWUP_WIDTH):.17g}

[solver]
dt0 = 1e-4
dt_floor = 9e-5
t_max = 3.0
sample_stride = 50
checkpoint_stride = 500
gradnorm_ceiling = {float(1e3 * gn0):.17g}
supnorm_ceiling = 1e12

[cutoff]
R = {",".join(f"{R:g}" for R in BLOWUP_R)}

[emit]
checkpoints = true
"""
    cfg_path = os.path.join(out_dir, "blowup.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    run_dir = os.path.join(out_dir, "run")
    code = cli_main(["simulate", "--config", cfg_path, "--out-dir", run_dir])
    return code, run_dir, gn0


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array(
            [[float(x) for x in line.split(",")] for line in fh if line.strip()]
        )
    return {name: rows[:, i] for i, name in enumerate(header)}


def test_criterion_1_conservation(conservation_runs):
    drifts = {}
    for dt0, rep in conservation_runs.items():
        assert rep.outcome == OUTCOME_REACHED_T_MAX
        m = np.array([s.conservation.mass for s in rep.series])
        e = np.array([s.conservation.energy for s in rep.series])
        # the headline bound is for the 1e-4 run; the refined runs take
        # 2x and 4x as many steps, so roundoff accumulates further
        mass_cap = 1e-12 if dt0 == 1e-4 else 1e-11
        assert np.max(np.abs(m / m[0] - 1.0)) < mass_cap
        drifts[dt0] = np.max(np.abs(e - e[0])) / abs(e[0])
        assert drifts[dt0] < 1e-6
    assert 3.5 < drifts[1e-4] / drifts[5e-5] < 4.5
    assert drifts[2.5e-5] < drifts[5e-5]
    print(
        f"criterion 1: mass drift < 1e-12, energy drift {drifts[1e-4]:.3e}, "
        f"halving ratio {drifts[1e-4] / drifts[5e-5]:.2f}"
    )


def test_criterion_2_virial_identity(conservation_runs):
    rep1 = conservation_runs[1e-4]
    for R in CONS_R:
        fd = rep1.zR_second_fd(R)
        formula = np.array([s.virials[R].zR_second_formula for s in rep1.series])
        ok = np.isfinite(fd)
        err = np.abs(formula[ok] - fd[ok]) / np.maximum(1.0, np.abs(formula[ok]))
        assert np.max(err) < 1e-3, f"R={R}: max rel err {np.max(err):.3e}"
    # second-order improvement: successive step halvings at fixed sample
    # times shrink the finite-difference curve's change by about 4
    curves = []
    for dt0 in (1e-4, 5e-5, 2.5e-5):
        rep = conservation_runs[dt0]
        t = np.array([s.t for s in rep.series])
        curves.append((t, rep.zR_second_fd(2.0)))
    t1, f1 = curves[0]
    for t, _ in curves[1:]:
        assert np.max(np.abs(t - t1)) < 1e-9
    ok = np.isfinite(f1) & np.isfinite(curves[1][1]) & np.isfinite(curves[2][1])
    d1 = np.max(np.abs(f1 - curves[1][1])[ok])
    d2 = np.max(np.abs(curves[1][1] - curves[2][1])[ok])
    assert 3.0 < d1 / d2 < 4.5
    print(f"criterion 2: identity holds at every sample, refinement ratio {d1 / d2:.2f}")


def test_criterion_3_closure_coefficient():
    profiles = [build_cutoff(default_k(PARAMS), R, PARAMS) for R in CONS_R]
    cfg = SolverConfig(dt0=1e-4, dt_floor=1e-8, t_max=0.2, sample_stride=20)
    w = 1.0 / np.sqrt(5.0)
    datasets = [
        InitialData(kind="gaussian", amplitude=0.25, width=w),
        InitialData(kind="shifted_gaussian", amplitude=0.25, width=w, center=(0.5,)),
        InitialData(
            kind="sum_of_gaussians",
            amplitude=0.25,
            width=w,
            center=(-1.0,),
            amplitude2=0.2,
            width2=0.6,
            center2=(1.5,),
        ),
    ]
    means = []
    for init in datasets:
        rep = run(init, PARAMS, CONS_GRID, cfg, profiles)
        summary = rep.alpha_summary()
        assert summary["count"] > 0
        assert summary["spread"] / abs(summary["mean"]) < 1e-6
        means.append(summary["mean"])
    means = np.array(means)
    assert (means.max() - means.min()) / abs(means.mean()) < 1e-6
    print(
        f"criterion 3: closure coefficient constant at {means.mean():.12g} "
        "(commonly quoted value: 2)"
    )


def test_criterion_4_cutoff_certificates(unchecked_cutoff):
    samples = 10**5
    for N in (1, 2, 3):
        for b in (0.5, 1.0, 1.5):
            params = ProblemParams(N, b)
            k = default_k(params)
            bounds = []
            for R in (1.0, 10.0, 100.0):
                prof = build_cutoff(k, R, params)
                cond = verify_phicond(prof, samples)
                assert cond["passed"] and cond["min"] >= -1e-12
                bounds.append(grad_weight_bound(prof, samples))
                eps = find_epsilon(prof, 1.0, samples)
                assert eps.epsilon > 0.0 and eps.verified
            spread = (max(bounds) - min(bounds)) / max(bounds)
            assert spread < 1e-6, f"N={N} b={b}: gradient bound spread {spread:.3e}"
    # strictly undersized exponents must be caught by the ratio divergence
    for N, b, kbad in ((1, 0.5, 3), (3, 0.5, 3), (2, 0.5, 7), (2, 1.0, 3), (2, 1.5, 2)):
        prof = unchecked_cutoff(kbad, 1.0, ProblemParams(N, b))
        with pytest.raises(UnboundedRatioError):
            find_epsilon(prof, 1.0, samples)
    print("criterion 4: all 27 certificates verified, undersized k rejected")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_5_blowup_demonstration(blowup_centered):
    code, run_dir, gn0 = blowup_centered
    assert code == 10
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        man = json.load(fh)
    assert man["outcome"] == "blowup_detected"
    assert man["E0"] < 0.0
    assert man["dt_floor_hit"] and man["gradnorm_ceiling_hit"]
    assert man["blowup_time_bracket"] is not None
    largest = max(BLOWUP_R)
    cols = _read_csv(os.path.join(run_dir, f"series_R{largest:g}.csv"))
    assert cols["grad_norm"][-1] / cols["grad_norm"][0] > 1e3
    fd = cols["zR_second_fd"][np.isfinite(cols["zR_second_fd"])]
    frac_centered = float(np.mean(fd < 0.0))
    assert frac_centered >= 0.95

    # same experiment with the bump moved off center
    grid = Grid(1, 20.0, BLOWUP_GRID_M)
    amplitude = 1.5 * oracle_energy_threshold(BLOWUP_WIDTH)
    init = InitialData(
        kind="shifted_gaussian", amplitude=amplitude, width=BLOWUP_WIDTH, center=(0.5,)
    )
    gn0_s = SpectralPlan(grid).grad_norm(realize(init, PARAMS, grid).values)
    profiles = [build_cutoff(default_k(PARAMS), R, PARAMS) for R in BLOWUP_R]
    cfg = SolverConfig(
        dt0=1e-4,
        dt_floor=9e-5,
        t_max=3.0,
        sample_stride=50,
        gradnorm_ceiling=1e3 * gn0_s,
        supnorm_ceiling=1e12,
    )
    rep = run(init, PARAMS, grid, cfg, profiles)
    assert rep.outcome == OUTCOME_BLOWUP
    assert rep.E0 < 0.0
    assert rep.dt_floor_hit and rep.gradnorm_ceiling_hit
    assert rep.series[-1].grad_norm / gn0_s > 1e3
    frac_shifted = rep.concavity_fraction(largest)
    assert frac_shifted >= 0.95
    print(
        f"criterion 5: blow-up detected at t={man['t_end']:.4f} (centered) and "
        f"t={rep.t_end:.4f} (offset), concavity {frac_centered:.4f}/{frac_shifted:.4f}"
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_6_positive_energy_control():
    grid = Grid(1, 20.0, BLOWUP_GRID_M)
    amplitude = 0.9 * oracle_energy_threshold(BLOWUP_WIDTH)
    init = InitialData(kind="gaussian", amplitude=amplitude, width=BLOWUP_WIDTH)
    gn0 = SpectralPlan(grid).grad_norm(realize(init, PARAMS, grid).values)
    profiles = [build_cutoff(default_k(PARAMS), R, PARAMS) for R in BLOWUP_R]
    cfg = SolverConfig(
        dt0=1e-4,
        dt_floor=9e-5,
        t_max=2.0,
        sample_stride=100,
        gradnorm_ceiling=1e3 * gn0,
        supnorm_ceiling=1e12,
    )
    rep = run(init, PARAMS, grid, cfg, profiles)
    assert rep.E0 > 0.0
    assert rep.outcome == OUTCOME_REACHED_T_MAX
    assert rep.t_end == pytest.approx(2.0, rel=1e-9)
    assert not rep.dt_floor_hit and not rep.gradnorm_ceiling_hit
    print(f"criterion 6: E0={rep.E0:+.4f} run reached t_max with no detector")


def test_criterion_7_inequality_suite():
    trials = 200
    otn_profile = build_cutoff(default_k(PARAMS), 2.0, PARAMS)
    cases = {
        "interp1_1d": IneqCase(
            "interp1", PARAMS, Grid(1, 12.0, 1024), RadialWeight("gaussian_bump", 3.0)
        ),
        "interp1_3d": IneqCase(
            "interp1",
            ProblemParams(3, 0.5),
            Grid(3, 12.0, 48),
            RadialWeight("gaussian_bump", 3.0),
        ),
        "interp2_2d": IneqCase(
            "interp2",
            ProblemParams(2, 1.0),
            Grid(2, 12.0, 128),
            RadialWeight("gaussian_bump", 3.0),
        ),
        "otn1_1d": IneqCase(
            "otn1", PARAMS, Grid(1, 12.0, 1024),
            RadialWeight("paper_Phi2", profile=otn_profile),
        ),
        "gn_1d": IneqCase("gn", PARAMS, Grid(1, 12.0, 1024)),
    }
    for name, case in cases.items():
        est = estimate_constant(case, trials, seed=0)
        assert est.c_hat >= np.max(est.ratios), name
        assert np.all(np.isfinite(est.ratios)), name
        # homogeneity: the ratio is invariant under u -> 3u
        xs = case.grid.coords()
        r2 = sum((x - 0.3) ** 2 for x in xs)
        u = np.exp(-r2 / 2.0) * np.exp(0.2j * xs[0])
        l1, r1 = lhs_rhs(case, u)
        l2, r2v = lhs_rhs(case, 3.0 * u)
        assert l1 / r1 == pytest.approx(l2 / r2v, rel=1e-10), name

    # mass-preserving rescaling leaves the unweighted ratio unchanged
    gn = cases["gn_1d"]
    x = gn.grid.coords()[0]
    ratios = []
    for lam in (0.5, 1.0, 2.0):
        u = lam**0.5 * np.exp(-((lam * x) ** 2) / 2.0)
        lhs, rhs = lhs_rhs(gn, u + 0.0j)
        ratios.append(lhs / rhs)
    assert max(ratios) / min(ratios) - 1.0 < 1e-6

    # the weight power of the interpolation estimate, 1/(2-b), beats the
    # 1/((4-2b)/N+2) of the classical route and always exceeds 1/2
    def interp_power(b):
        return 1.0 / (2.0 - b)

    def classical_power(N, b):
        return 1.0 / ((4.0 - 2.0 * b) / N + 2.0)

    assert interp_power(1.0) == 1.0
    assert classical_power(1, 1.0) == 0.25
    assert classical_power(3, 0.5) == pytest.approx(1.0 / 3.0)
    for N in (1, 2, 3):
        for b in (0.25 * i for i in range(1, 8)):
            assert interp_power(b) > 0.5 >= classical_power(N, b), (N, b)
    print("criterion 7: all five inequality families bounded by their estimates")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_8_audit_determinism(blowup_centered, tmp_path):
    from inlslab.cli import virial_audit

    _code, run_dir, _gn0 = blowup_centered
    report = virial_audit(run_dir)
    assert report["checked"] > 0
    assert report["passed"]
    assert report["max_rel_err"] <= 1e-12

    text = f"""
[problem]
N = 1
b = 0.5

[grid]
L = 20.0
M = 2048

[init]
kind = gaussian
amplitude = 0.25
width = {float(1.0 / np.sqrt(5.0)):.17g}

[solver]
dt0 = 1e-4
dt_floor = 1e-8
t_max = 1.0
sample_stride = 10

[cutoff]
R = 2,4,8
"""
    cfg_path = tmp_path / "cons.cfg"
    cfg_path.write_text(text)
    blobs = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        assert cli_main(["simulate", "--config", str(cfg_path), "--out-dir", out]) == 0
        chunk = b""
        for R in (2, 4, 8):
            with open(os.path.join(out, f"series_R{R}.csv"), "rb") as fh:
                chunk += fh.read()
        blobs.append(chunk)
    assert blobs[0] == blobs[1]
    print(
        f"criterion 8: audit max rel err {report['max_rel_err']:.3e} over "
        f"{report['checked']} checkpoints; rerun CSVs byte-identical"
    )
