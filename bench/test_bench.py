"""Tests of the benchmark's own logic: each output check accepts a correct
result, accepts a change of a few ulps, and rejects a wrong one; the
determinism guard fails a repetition whose outputs differ; the tracer's
self time and per-step counts add up; and the wrappers reach name imports.

    python3 -m pytest bench/test_bench.py
"""

import copy
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BLOWUP_REF = {"steps": 500, "t_end": 0.04792781843860454, "E0": -484.0157}
DIAG_REF = {"steps": 60, "E0": 0.3141, "checked": 124}
VERIFY_REF = {"cutoff_runs": 27, "c_hat": {"interp1_N1": 0.4452637773303153, "gn_N1": 0.45}}


def blowup_out():
    return {
        "exit_code": 10,
        "manifest": {
            "outcome": "blowup_detected", "E0": -484.0157, "dt_floor_hit": True,
            "gradnorm_ceiling_hit": True, "steps": 500, "t_end": 0.04792781843860454,
        },
        "mass": [1.25, 1.25 * (1 + 2e-13), 1.25 * (1 - 3e-12)],
        "zR_second_fd": [float("nan"), -1.0, float("nan")],
    }


def diag_out():
    return {
        "exit_code": 0,
        "manifest": {"outcome": "reached_t_max", "steps": 60, "E0": 0.3141},
        "audit_exit_code": 0,
        "audit": {"checked": 124, "max_rel_err": 3e-15, "passed": True},
        "checkpoints": 31,
        "radii": 4,
        "svgs": 6,
    }


def verify_out():
    cutoff = [
        {"N": N, "b": 0.5, "R": R, "exit_code": 0,
         "report": {"phicond_passed": True, "phivare_passed": True,
                    "grad_weight_bound": 2.5 * (1 + 1e-12 * R)}}
        for N in (1, 2, 3) for R in (1.0, 10.0, 100.0)
    ] * 3
    interp = [{"case": c, "exit_code": 0, "c_hat": v} for c, v in VERIFY_REF["c_hat"].items()]
    return {"cutoff": cutoff, "interp": interp}


def ulps(x, n=4):
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


def test_correct_outputs_pass():
    assert checks.check("blowup_1d", blowup_out(), BLOWUP_REF) == []
    assert checks.check("diag_audit_2d", diag_out(), DIAG_REF) == []
    assert checks.check("verify_suite", verify_out(), VERIFY_REF) == []


def test_few_ulp_changes_pass():
    out = blowup_out()
    out["manifest"]["t_end"] = ulps(out["manifest"]["t_end"])
    out["manifest"]["E0"] = ulps(out["manifest"]["E0"])
    assert checks.check("blowup_1d", out, BLOWUP_REF) == []
    out = diag_out()
    out["manifest"]["E0"] = ulps(out["manifest"]["E0"])
    assert checks.check("diag_audit_2d", out, DIAG_REF) == []
    out = verify_out()
    out["interp"][0]["c_hat"] = ulps(out["interp"][0]["c_hat"])
    assert checks.check("verify_suite", out, VERIFY_REF) == []


def _set(path, value):
    def mutate(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return mutate


BLOWUP_WRONG = {
    "exit code 20 (instability)": _set(["exit_code"], 20),
    "outcome reached_t_max": _set(["manifest", "outcome"], "reached_t_max"),
    "positive energy": _set(["manifest", "E0"], 1.0),
    "E0 off by 1e-8": _set(["manifest", "E0"], lambda e: e * (1 + 1e-8)),
    "dt floor never hit": _set(["manifest", "dt_floor_hit"], False),
    "ceiling never hit": _set(["manifest", "gradnorm_ceiling_hit"], False),
    "mass drift 1e-10": _set(["mass", 2], lambda m: m * (1 + 1e-10)),
    "step count off by one sample": _set(["manifest", "steps"], 550),
    "t_end off by 1e-7": _set(["manifest", "t_end"], lambda t: t * (1 + 1e-7)),
    "manifest missing a field": lambda out: out["manifest"].pop("E0"),
}

DIAG_WRONG = {
    "simulate exit 20": _set(["exit_code"], 20),
    "audit exit 2": _set(["audit_exit_code"], 2),
    "audit not passed": _set(["audit", "passed"], False),
    "audit checked nothing": lambda out: out.update(
        checkpoints=0, audit=dict(out["audit"], checked=0)),
    "audit skipped a radius": _set(["audit", "checked"], 123),
    "a checkpoint missing and unaudited": lambda out: out.update(
        checkpoints=30, audit=dict(out["audit"], checked=120)),
    "audit error 1e-11": _set(["audit", "max_rel_err"], 1e-11),
    "step count changed": _set(["manifest", "steps"], 58),
    "E0 off by 1e-8": _set(["manifest", "E0"], lambda e: e * (1 + 1e-8)),
    "an SVG missing": _set(["svgs"], 5),
}

VERIFY_WRONG = {
    "phicond certificate fails": _set(["cutoff", 4, "report", "phicond_passed"], False),
    "phivare certificate fails": _set(["cutoff", 7, "report", "phivare_passed"], False),
    "cutoff-verify exit 2": _set(["cutoff", 0, "exit_code"], 2),
    "gradient bound depends on R": _set(["cutoff", 2, "report", "grad_weight_bound"],
                                        lambda g: g * (1 + 1e-5)),
    "a certificate missing": lambda out: out["cutoff"].pop(),
    "c_hat off by 1e-7": _set(["interp", 1, "c_hat"], lambda c: c * (1 + 1e-7)),
    "interp-check case missing": lambda out: out["interp"].pop(),
    "interp-check exit 1": _set(["interp", 0, "exit_code"], 1),
}


@pytest.mark.parametrize(
    "name,make,ref,mutate",
    [("blowup_1d", blowup_out, BLOWUP_REF, m) for m in BLOWUP_WRONG.values()]
    + [("diag_audit_2d", diag_out, DIAG_REF, m) for m in DIAG_WRONG.values()]
    + [("verify_suite", verify_out, VERIFY_REF, m) for m in VERIFY_WRONG.values()],
    ids=list(BLOWUP_WRONG) + list(DIAG_WRONG) + list(VERIFY_WRONG),
)
def test_wrong_output_rejected(name, make, ref, mutate):
    out = copy.deepcopy(make())
    mutate(out)
    assert checks.check(name, out, ref)


def test_determinism_guard_fails_differing_repetition():
    reps = [{"ok": True, "failures": [], "hash": h} for h in ("a", "a", "b", "a")]
    run.determinism_guard(reps)
    assert [r["ok"] for r in reps] == [True, True, False, True]


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    t = run.tail([float(x) for x in range(20)])
    assert t["p"] == 50 and sum(x > t["value"] for x in range(20)) == 10


def test_self_time_and_counts():
    # run(0..10) -> two transforms and a conservation sample with one transform
    spans = [
        ["solver.run", 0.0, 10.0, -1, {"steps": 1, "samples": 1}],
        [tracing.TRANSFORM, 1.0, 2.0, 0, 4],
        [tracing.TRANSFORM, 2.0, 3.0, 0, 4],
        ["observables.conservation", 4.0, 6.0, 0, None],
        ["spectral.SpectralPlan.grad_norm", 4.5, 5.5, 3, None],
        [tracing.TRANSFORM, 4.6, 5.0, 4, 4],
    ]
    m = tracing.layer_metrics(spans)
    assert m["solver.self_s"] == pytest.approx(6.0)
    assert m["observables.self_s"] == pytest.approx(1.0)
    assert m["spectral.transforms"] == 3
    assert m["spectral.transforms_per_step"] == 2
    assert m["spectral.transforms_per_sample"] == 1
    assert m["spectral.bytes_computed"] == 3 * 32 * 4
    assert m["observables.sample_ms_p50"] == pytest.approx(2000.0)


TRACED_RUN = """
import json, os, sys, tempfile
sys.path[:0] = [{bench!r}, {src!r}]
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from inlslab import cli, solver
from inlslab.core import Grid, InitialData, ProblemParams
from inlslab.cutoff import build_cutoff
p = ProblemParams(1, 0.5)
cfg = solver.SolverConfig(dt0=1e-3, dt_floor=1e-6, t_max=4e-3, sample_stride=2,
                          checkpoint_stride=1)
with tempfile.TemporaryDirectory() as d:
    solver.run(InitialData(amplitude=0.2, width=0.5), p, Grid(1, 8.0, 64), cfg,
               [build_cutoff(5, 1.0, p)], checkpoint_dir=d)
    m = tracing.layer_metrics(tracer.spans)
print(json.dumps(m))
"""


def test_wrappers_reach_name_imports():
    src = os.path.join(os.path.dirname(HERE), "src")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN.format(bench=HERE, src=src)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    m = json.loads(proc.stdout.strip().splitlines()[-1])
    assert m["solver.steps"] == 4 and m["solver.samples"] == 3
    # solver.write_checkpoint is a name import: initial, two samples, final
    assert m["core.checkpoint_writes"] == 4 and m["core.checkpoint_bytes"] > 4 * 64 * 16
    assert m["spectral.transforms_per_sample"] == 3
    assert m["spectral.transforms"] > 0 and m["cutoff.points_evaluated"] > 0
