"""Output checks for each workload. Each returns a list of failure messages;
an empty list means the repetition's outputs are correct.

Reference values come from ``reference.json``, recorded at the parent
commit. Floats are compared with a relative tolerance of 1e-9, which a
change of a few ulps passes and a wrong result does not.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
MASS_DRIFT_MAX = 1e-11
AUDIT_REL_ERR_MAX = 1e-12
GRAD_BOUND_SPREAD_MAX = 1e-6


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_blowup_1d(out: dict, ref: dict) -> list:
    errs = []
    man = out["manifest"]
    if out["exit_code"] != 10:
        errs.append(f"exit code {out['exit_code']}, expected 10 (blow-up detected)")
    if man["outcome"] != "blowup_detected":
        errs.append(f"outcome {man['outcome']!r}")
    if not (man["E0"] < 0.0 and _close(man["E0"], ref["E0"])):
        errs.append(f"E0 {man['E0']!r} is not negative or != reference {ref['E0']!r}")
    if not (man["dt_floor_hit"] and man["gradnorm_ceiling_hit"]):
        errs.append("not both detectors fired")
    mass = out["mass"]
    drift = max(abs(m / mass[0] - 1.0) for m in mass) if mass and mass[0] > 0 else math.inf
    if not drift < MASS_DRIFT_MAX:
        errs.append(f"mass drift {drift:.3e} >= {MASS_DRIFT_MAX:g}")
    if man["steps"] != ref["steps"]:
        errs.append(f"steps {man['steps']} != reference {ref['steps']}")
    if not _close(man["t_end"], ref["t_end"]):
        errs.append(f"t_end {man['t_end']!r} != reference {ref['t_end']!r}")
    return errs


def check_diag_audit_2d(out: dict, ref: dict) -> list:
    errs = []
    man, audit = out["manifest"], out["audit"]
    if out["exit_code"] != 0 or man["outcome"] != "reached_t_max":
        errs.append(f"simulate exit code {out['exit_code']}, outcome {man['outcome']!r}")
    if out["audit_exit_code"] != 0 or not audit["passed"]:
        errs.append(f"audit exit code {out['audit_exit_code']}, passed {audit['passed']}")
    expected = out["checkpoints"] * out["radii"]
    if not audit["checked"] == expected == ref["checked"] > 0:
        errs.append(f"audit checked {audit['checked']}, expected {expected} = "
                    f"reference {ref['checked']} > 0")
    if not audit["max_rel_err"] <= AUDIT_REL_ERR_MAX:
        errs.append(f"audit max_rel_err {audit['max_rel_err']:.3e} > {AUDIT_REL_ERR_MAX:g}")
    if man["steps"] != ref["steps"]:
        errs.append(f"steps {man['steps']} != reference {ref['steps']}")
    if not _close(man["E0"], ref["E0"]):
        errs.append(f"E0 {man['E0']!r} != reference {ref['E0']!r}")
    if out["svgs"] != out["radii"] + 2:
        errs.append(f"{out['svgs']} SVG plots, expected {out['radii'] + 2}")
    return errs


def check_verify_suite(out: dict, ref: dict) -> list:
    errs = []
    bounds = {}
    for row in out["cutoff"]:
        rep = row["report"]
        tag = f"N={row['N']} b={row['b']} R={row['R']}"
        if row["exit_code"] != 0 or not (rep["phicond_passed"] and rep["phivare_passed"]):
            errs.append(f"cutoff certificate failed at {tag}")
        bounds.setdefault((row["N"], row["b"]), []).append(rep["grad_weight_bound"])
    for (N, b), vals in bounds.items():
        spread = (max(vals) - min(vals)) / max(vals)
        if not spread < GRAD_BOUND_SPREAD_MAX:
            errs.append(f"gradient bound spread {spread:.3e} over R at N={N} b={b}")
    if len(out["cutoff"]) != ref["cutoff_runs"]:
        errs.append(f"{len(out['cutoff'])} cutoff certificates, expected {ref['cutoff_runs']}")
    c_ref = ref["c_hat"]
    if sorted(row["case"] for row in out["interp"]) != sorted(c_ref):
        errs.append("interp-check cases differ from the reference")
    for row in out["interp"]:
        if row["exit_code"] != 0:
            errs.append(f"interp-check {row['case']} exit code {row['exit_code']}")
        elif row["case"] in c_ref and not _close(row["c_hat"], c_ref[row["case"]]):
            errs.append(f"c_hat {row['case']} {row['c_hat']!r} != reference {c_ref[row['case']]!r}")
    return errs


CHECKS = {
    "blowup_1d": check_blowup_1d,
    "diag_audit_2d": check_diag_audit_2d,
    "verify_suite": check_verify_suite,
}


def check(name: str, out: dict, ref: dict) -> list:
    try:
        return CHECKS[name](out, ref)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def reference_entry(name: str, out: dict) -> dict:
    """The values of one correct repetition that later runs must repeat."""
    if name == "blowup_1d":
        man = out["manifest"]
        return {"steps": man["steps"], "t_end": man["t_end"], "E0": man["E0"]}
    if name == "diag_audit_2d":
        man = out["manifest"]
        return {"steps": man["steps"], "E0": man["E0"], "checked": out["audit"]["checked"]}
    return {
        "cutoff_runs": len(out["cutoff"]),
        "c_hat": {row["case"]: row["c_hat"] for row in out["interp"]},
    }
