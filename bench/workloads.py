"""The three benchmark workloads: inputs made from a seed, and the command
sequence each one runs against the package.

Input generation is pure Python, so the parent process never imports the
package. ``prepare`` and ``execute`` run in the fresh child process.

The seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``).
Every variant has reference values recorded at the parent commit
(``reference.json``), so every run, whatever its seed, is checked against a
recorded result. Seed 0 is the centered criterion-5 configuration.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import math
import os

VARIANTS = 8

# Amplitude where the 1D Gaussian of width 8/sqrt(5) at b=0.5 changes the
# sign of its energy, from the quadrature oracle of the criterion-5 test
# (scipy quad + bisect, xtol 1e-12).
ENERGY_THRESHOLD_1D = 0.4842397831428435
BLOWUP_WIDTH = 8.0 / math.sqrt(5.0)
# Criterion 5 runs at 1.5x the threshold (about 3,350 steps at 2.0x). At 7x
# the detectors fire after 500 steps, so a repetition takes a few seconds
# and a measured run holds several of them.
BLOWUP_AMPLITUDE_FACTOR = 7.0
BLOWUP_R = (0.125, 0.25, 0.5)

DIAG_R = (0.5, 1.0, 2.0, 4.0)

CUTOFF_GRID = [(N, b, R) for N in (1, 2, 3) for b in (0.5, 1.0, 1.5) for R in (1.0, 10.0, 100.0)]
INTERP_CASES = [
    ("interp1", 1, 0.5),
    ("interp1", 3, 0.5),
    ("interp2", 2, 1.0),
    ("otn1", 1, 0.5),
    ("gn", 1, 0.5),
]
# criterion 4 samples 1e5 points and criterion 7 runs 200 trials; at a
# fifth and a quarter of that a repetition takes about 5 s instead of 20 s,
# so a measured run holds several repetitions
INTERP_TRIALS = 50
CUTOFF_SAMPLES = 20000

NAMES = ("blowup_1d", "diag_audit_2d", "verify_suite")


def variant(seed: int) -> int:
    return seed % VARIANTS


def blowup_offset(seed: int) -> float:
    """Non-radial bump offset; E0 stays far below zero for all variants."""
    return 0.05 * variant(seed)


def diag_center(seed: int) -> tuple:
    v = variant(seed)
    return (0.5 + 0.1 * v, 0.25 - 0.05 * v)


def _blowup_config(seed: int, out_dir: str) -> str:
    amplitude = BLOWUP_AMPLITUDE_FACTOR * ENERGY_THRESHOLD_1D
    # H1 seminorm of A exp(-x^2/(2w^2)) on the line: A (sqrt(pi)/(2w))^(1/2);
    # the ceiling is criterion 5's 1e3 x the initial gradient norm
    gn0 = amplitude * math.sqrt(math.sqrt(math.pi) / (2.0 * BLOWUP_WIDTH))
    return f"""
[problem]
N = 1
b = 0.5

[grid]
L = 20.0
M = 65536

[init]
kind = shifted_gaussian
amplitude = {amplitude:.17g}
width = {BLOWUP_WIDTH:.17g}
center = {blowup_offset(seed):.17g}

[solver]
dt0 = 1e-4
dt_floor = 9e-5
t_max = 3.0
sample_stride = 50
gradnorm_ceiling = {1e3 * gn0:.17g}
supnorm_ceiling = 1e12

[cutoff]
R = {",".join(f"{R:g}" for R in BLOWUP_R)}

[emit]
csv = true
out_dir = {out_dir}
"""


def _diag_config(seed: int, out_dir: str) -> str:
    cx, cy = diag_center(seed)
    return f"""
[problem]
N = 2
b = 1.0

[grid]
L = 10.0
M = 256

[init]
kind = shifted_gaussian
amplitude = 0.5
width = 1.0
center = {cx:.17g},{cy:.17g}

[solver]
dt0 = 1e-3
dt_floor = 1e-6
t_max = 0.06
sample_stride = 2

[cutoff]
R = {",".join(f"{R:g}" for R in DIAG_R)}

[emit]
csv = true
svg = true
checkpoints = true
out_dir = {out_dir}
"""


def inputs(name: str, seed: int, workdir: str) -> dict:
    """The generated inputs of one repetition: config text or CLI argv."""
    out_dir = os.path.join(workdir, "run")
    if name == "blowup_1d":
        return {"config": _blowup_config(seed, out_dir), "out_dir": out_dir}
    if name == "diag_audit_2d":
        return {"config": _diag_config(seed, out_dir), "out_dir": out_dir}
    if name == "verify_suite":
        cutoff = [
            ["cutoff-verify", "--N", str(N), "--b", repr(b), "--R", repr(R),
             "--samples", str(CUTOFF_SAMPLES)]
            for N, b, R in CUTOFF_GRID
        ]
        interp = [
            ["interp-check", "--which", which, "--N", str(N), "--b", repr(b),
             "--trials", str(INTERP_TRIALS), "--seed", str(variant(seed))]
            for which, N, b in INTERP_CASES
        ]
        return {"cutoff": cutoff, "interp": interp}
    raise ValueError(f"unknown workload {name!r}")


def prepare(name: str, inp: dict):
    """Parse the inputs with the package; counted in set-up time."""
    from inlslab import cli

    if name in ("blowup_1d", "diag_audit_2d"):
        return cli.parse_config(inp["config"])
    return inp


def _cli_json(argv):
    from inlslab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _csv_column(path, name):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        i = header.index(name)
        return [float(line.split(",")[i]) for line in fh if line.strip()]


def execute(name: str, prepared, inp: dict) -> dict:
    """Run the workload's command sequence; return what the checks read."""
    from inlslab import cli

    if name == "blowup_1d":
        code = cli.simulate(prepared)
        out_dir = inp["out_dir"]
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        largest = max(BLOWUP_R)
        csv = os.path.join(out_dir, f"series_R{largest:g}.csv")
        return {
            "exit_code": code,
            "manifest": manifest,
            "mass": _csv_column(csv, "mass"),
            "zR_second_fd": _csv_column(csv, "zR_second_fd"),
        }
    if name == "diag_audit_2d":
        code = cli.simulate(prepared)
        out_dir = inp["out_dir"]
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        audit_code, audit = _cli_json(["virial-audit", out_dir])
        return {
            "exit_code": code,
            "manifest": manifest,
            "audit_exit_code": audit_code,
            "audit": audit,
            "checkpoints": len(glob.glob(os.path.join(out_dir, "checkpoints", "ckpt_*.bin"))),
            "radii": len(prepared.cutoff_R),
            "svgs": len(glob.glob(os.path.join(out_dir, "*.svg"))),
        }
    if name == "verify_suite":
        cutoff = []
        for argv, (N, b, R) in zip(inp["cutoff"], CUTOFF_GRID):
            code, report = _cli_json(argv)
            cutoff.append({"N": N, "b": b, "R": R, "exit_code": code, "report": report})
        interp = []
        for argv, (which, N, b) in zip(inp["interp"], INTERP_CASES):
            code, report = _cli_json(argv)
            interp.append({"case": f"{which}_N{N}", "exit_code": code, "c_hat": report["c_hat"]})
        return {"cutoff": cutoff, "interp": interp}
    raise ValueError(f"unknown workload {name!r}")


def hashed_files(name: str, inp: dict) -> list:
    """CSV and JSON files whose bytes must repeat across repetitions.

    Checkpoint sidecars are left out: they carry a creation timestamp.
    """
    if name == "verify_suite":
        return []
    out_dir = inp["out_dir"]
    return sorted(glob.glob(os.path.join(out_dir, "*.csv"))) + [
        os.path.join(out_dir, "manifest.json")
    ]


def computed_kernels(name: str) -> dict:
    """Kernel counts computed from the workload's definition, not measured.

    A complex transform of n points reads and writes 16 n bytes each way and
    costs about 5 n log2(n) flops. Per step the solver does one forward and
    one inverse transform (adjacent linear half-steps are merged), plus one
    pair per sample to flush the pending half-step; a diagnostics sample
    does one transform for the conservation report and 1 + N per radius for
    the virial gradients.
    """

    def kernel(n):
        return {"n": n, "bytes_per_transform": 32 * n, "flops_per_transform": round(5 * n * math.log2(n))}

    if name == "blowup_1d":
        return {"label": "computed", "transforms_per_step": 2,
                "transforms_per_sample": 1 + len(BLOWUP_R) * 2, **kernel(65536)}
    if name == "diag_audit_2d":
        return {"label": "computed", "transforms_per_step": 2,
                "transforms_per_sample": 1 + len(DIAG_R) * 3, **kernel(256 * 256)}
    sizes = {1: 1024, 2: 128**2, 3: 48**3}
    return {
        "label": "computed",
        "transforms_per_lhs_rhs_call": {f"N{N}": 1 + N for N in (1, 2, 3)},
        "interp_grids": {f"N{N}": kernel(n) for N, n in sizes.items()},
    }
