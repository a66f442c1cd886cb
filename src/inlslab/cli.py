"""Configuration parsing, experiment orchestration and result emission.

Config files are configparser text with sections problem, grid, init,
solver, cutoff, emit; CONFIG_KEYS maps each key to the dataclass field it
sets. Unknown keys are errors; validation collects every violation.

Exit codes: 0 reached_t_max (a dt-floor crossing included), 10
blowup_detected (a sample over a ceiling: a successful demonstration), 20
instability, 1 config or input error (or a failed sweep value), 2 a failed
check (virial-audit, cutoff-verify).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from . import observables as obs
from .core import Grid, InitialData, InvariantError, ProblemParams, read_checkpoint
from .cutoff import (
    ConstraintError,
    build_cutoff,
    check_k,
    default_k,
    find_epsilon,
    grad_weight_bound,
    verify_phicond,
)
from .inequalities import WHICH, IneqCase, RadialWeight, estimate_constant
from .solver import OUTCOME_BLOWUP, OUTCOME_INSTABILITY, OUTCOME_REACHED_T_MAX, SolverConfig, run
from .spectral import SpectralPlan
from .svgplot import line_plot

EXIT_CODES = {OUTCOME_REACHED_T_MAX: 0, OUTCOME_BLOWUP: 10, OUTCOME_INSTABILITY: 20}

AUDIT_REL_TOL = 1e-12  # largest relative error virial_audit accepts in a column


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    params: ProblemParams
    grid: Grid
    init: InitialData
    solver: SolverConfig
    cutoff_k: int | None = None  # None: default_k(params), resolved by simulate
    cutoff_R: tuple = (2.0, 4.0, 8.0)
    emit_csv: bool = True
    emit_svg: bool = False
    emit_checkpoints: bool = False
    out_dir: str = "run_out"


def _keys(cls, **renamed):
    """config key -> field name for every field of cls; renamed maps a
    field name to its config key where the two differ."""
    return {renamed.get(f.name, f.name): f.name for f in fields(cls)}


# section -> (the dataclass its keys set, config key -> field name)
CONFIG_KEYS = {
    "problem": (ProblemParams, {"N": "ndim", "b": "b"}),
    "grid": (Grid, {"L": "half_width", "M": "points_per_axis"}),
    "init": (InitialData, _keys(InitialData, checkpoint_path="checkpoint")),
    "solver": (SolverConfig, _keys(SolverConfig)),
    "cutoff": (ExperimentConfig, {"k": "cutoff_k", "R": "cutoff_R"}),
    "emit": (
        ExperimentConfig,
        {"csv": "emit_csv", "svg": "emit_svg", "checkpoints": "emit_checkpoints", "out_dir": "out_dir"},
    ),
}
# the only defaults no dataclass owns
DEFAULTS = {"problem": {"ndim": 1, "b": 0.5}, "grid": {"half_width": 20.0, "points_per_axis": 1024}}


def _parse_floats(text):
    return tuple(float(s) for s in text.split(","))


def _parse_bool(text):
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _converter(tp):
    """Text -> value for a field annotated tp (X | None converts as X)."""
    tp = next((a for a in get_args(tp) if a is not type(None)), tp)
    return {bool: _parse_bool, tuple: _parse_floats}.get(tp, tp)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate; raises ConfigError listing all violations.

    Each dataclass is built from the keys present only, so its own defaults
    fill the rest."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep option names case-sensitive (N, L, M, R)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc

    errs = []
    # section -> field name -> value
    given = {section: dict(DEFAULTS.get(section, {})) for section in CONFIG_KEYS}
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            errs.append(f"unknown section [{section}]")
            continue
        cls, keys = CONFIG_KEYS[section]
        types = get_type_hints(cls)
        for key in cp[section]:
            if key not in keys:
                errs.append(f"unknown key {key!r} in [{section}]")
                continue
            try:
                given[section][keys[key]] = _converter(types[keys[key]])(cp.get(section, key))
            except (ValueError, configparser.Error) as exc:
                errs.append(f"[{section}] {key}: {exc}")

    def build(section, cls, **values):
        try:
            return cls(**values)
        except InvariantError as exc:
            errs.append(f"[{section}] {exc}")

    params = build("problem", ProblemParams, **given["problem"])
    grid = build("grid", Grid, ndim=given["problem"]["ndim"], **given["grid"])
    init = build("init", InitialData, **given["init"])
    solver = build("solver", SolverConfig, **given["solver"])
    cfg = ExperimentConfig(params, grid, init, solver, **given["cutoff"], **given["emit"])

    if params is not None and cfg.cutoff_k is not None:
        try:
            check_k(cfg.cutoff_k, params)
        except ConstraintError as exc:
            errs.append(f"[cutoff] {exc}")
    if not all(0.0 < r < np.inf for r in cfg.cutoff_R):
        errs.append("[cutoff] R values must be positive and finite")
    if list(cfg.cutoff_R) != sorted(cfg.cutoff_R):
        errs.append("[cutoff] R values must be sorted ascending")
    clash = _clash(cfg.cutoff_R, lambda R: f"series_R{R:g}.csv")
    if clash:
        errs.append(f"[cutoff] R values must write distinct files: {clash}")
    if cfg.emit_svg and not cfg.emit_csv:
        errs.append("[emit] svg = true needs csv = true: the plots are drawn from the series CSVs")

    if errs:
        raise ConfigError(errs)
    return cfg


def _clash(values, name) -> str:
    """The first two values with the same name(value), as text; "" if none."""
    seen = {}
    for v in values:
        if name(v) in seen:
            return f"{seen[name(v)]!r} and {v!r} both name {name(v)}"
        seen[name(v)] = v
    return ""


def _fmt(x) -> str:
    return format(x, ".17g")  # round-trips every float; NaN prints as nan


def write_series_csv(path, report, R):
    fd = report.zR_second_fd(R)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(obs.CSV_COLUMNS) + "\n")
        for s, s_fd in zip(report.series, fd):
            fh.write(",".join(_fmt(x) for x in s.row(R, float(s_fd)).values()) + "\n")


def simulate(cfg: ExperimentConfig, run_id: str = "run") -> int:
    """Run one experiment and emit manifest, CSVs, optional checkpoints/SVGs."""
    k = default_k(cfg.params) if cfg.cutoff_k is None else cfg.cutoff_k
    # validated before anything is written, so a rejected k or R leaves no directory
    profiles = [build_cutoff(k, R, cfg.params) for R in cfg.cutoff_R]
    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt_dir = os.path.join(cfg.out_dir, "checkpoints") if cfg.emit_checkpoints else None
    report = run(cfg.init, cfg.params, cfg.grid, cfg.solver, profiles, checkpoint_dir=ckpt_dir)

    files = []
    if cfg.emit_csv:
        for R in cfg.cutoff_R:
            name = f"series_R{R:g}.csv"
            write_series_csv(os.path.join(cfg.out_dir, name), report, R)
            files.append(name)
    files.extend(os.path.relpath(p, cfg.out_dir) for p in report.checkpoints)

    # the effective config with k as built (a sweep passes a float), less
    # out_dir: reruns into other directories must write the same bytes
    config = asdict(replace(cfg, cutoff_k=int(k)))
    del config["out_dir"]
    mass_drift, energy_drift = _drifts(
        np.array([s.conservation.mass for s in report.series]),
        np.array([s.conservation.energy for s in report.series]),
    )
    manifest = {
        "run_id": run_id,
        **config,
        "outcome": report.outcome,
        "t_end": report.t_end,
        "steps": report.steps,
        "E0": report.energy0,
        "M0": report.mass0,
        "boundary_decay": report.boundary_decay,
        "alpha_summary": report.alpha_summary(),
        "gradnorm_ceiling_hit": report.gradnorm_ceiling_hit,
        "supnorm_ceiling_hit": report.supnorm_ceiling_hit,
        "dt_floor_hit": report.dt_floor_hit,
        "blowup_time_bracket": report.blowup_time_bracket,
        "tracked_concavity": {f"{R:g}": report.tracked_concavity(R) for R in cfg.cutoff_R},
        "max_mass_drift": float(np.max(mass_drift)),
        "max_energy_drift": float(np.max(energy_drift)),
        "files": files,
    }
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)

    if cfg.emit_svg:
        plot(cfg.out_dir)
    return EXIT_CODES[report.outcome]


SWEEP_AXES = {
    "amplitude": lambda cfg, v: replace(cfg, init=replace(cfg.init, amplitude=v)),
    "R": lambda cfg, v: replace(cfg, cutoff_R=(v,)),
    "b": lambda cfg, v: replace(cfg, params=ProblemParams(cfg.params.ndim, v)),
    "k": lambda cfg, v: replace(cfg, cutoff_k=v),  # build_cutoff rejects a non-integer k
}


def sweep(cfg: ExperimentConfig, axis: str, values) -> int:
    """One run per value, in order; a value that gives an invalid
    experiment becomes an error row, and the sweep returns 1 if any did."""
    if axis not in SWEEP_AXES:
        raise InvariantError(f"sweep axis must be one of {', '.join(SWEEP_AXES)}, not {axis!r}")
    clash = _clash(values, lambda v: f"{axis}_{v:g}")
    if clash:
        raise InvariantError(f"--values must name distinct runs: {clash}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    failed = False
    with open(os.path.join(cfg.out_dir, "summary.csv"), "w") as fh:
        fh.write(f"{axis},outcome,t_end,E0,alpha_mean\n")
        for value in values:
            sub = os.path.join(cfg.out_dir, f"{axis}_{value:g}")
            try:
                run_cfg = replace(SWEEP_AXES[axis](cfg, value), out_dir=sub)
                simulate(run_cfg, run_id=f"sweep_{axis}_{value:g}")
            except InvariantError as exc:
                print(f"error: {axis}={value:g}: {exc}", file=sys.stderr)
                fh.write(f"{_fmt(float(value))},error,nan,nan,nan\n")
                failed = True
                continue
            man = read_manifest(sub)
            fh.write(
                f"{_fmt(float(value))},{man['outcome']},{_fmt(man['t_end'])},"
                f"{_fmt(man['E0'])},{_fmt(man['alpha_summary']['mean'])}\n"
            )
    return 1 if failed else 0


COLUMN = {name: i for i, name in enumerate(obs.CSV_COLUMNS)}


def _read_csv(path):
    """The rows of a series CSV, whose header must be CSV_COLUMNS."""
    with open(path) as fh:
        if fh.readline().strip().split(",") != obs.CSV_COLUMNS:
            raise InvariantError(f"{path} does not have the series CSV columns")
        try:
            rows = [[float(x) for x in line.strip().split(",")] for line in fh if line.strip()]
            return np.array(rows).reshape(-1, len(obs.CSV_COLUMNS))
        except ValueError as exc:
            raise InvariantError(f"{path} is not a numeric series CSV: {exc}") from exc


def _drifts(mass, energy):
    """Relative drift of mass and energy from their first samples."""
    return obs.mass_drift(mass, mass[0]), np.abs(energy - energy[0]) / max(abs(energy[0]), 1e-30)


def read_manifest(run_dir: str) -> dict:
    """The manifest.json simulate wrote in run_dir, a JSON object with at least
    cutoff_k, cutoff_R and files: readers open only the files it lists."""
    path = os.path.join(run_dir, "manifest.json")
    with open(path) as fh:
        try:
            man = json.load(fh)
        except ValueError as exc:
            raise InvariantError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(man, dict) or not {"cutoff_k", "cutoff_R", "files"} <= man.keys():
        raise InvariantError(f"{path} has no cutoff_k/cutoff_R/files; rerun simulate")
    return man


def _listed(run_dir, man, suffix):
    """Paths of the files the manifest lists whose names end in suffix."""
    return [os.path.join(run_dir, name) for name in man["files"] if name.endswith(suffix)]


def plot(run_dir: str) -> int:
    csvs = _listed(run_dir, read_manifest(run_dir), ".csv")
    if not csvs:
        raise FileNotFoundError(f"{run_dir}/manifest.json lists no series CSVs")
    colors = ["#1f77b4", "#d62728"]
    tables = [_read_csv(path) for path in csvs]
    for path, rows in zip(csvs, tables):
        if rows.shape[0] == 0:
            raise InvariantError(f"{path} has no rows to plot")
    rows0 = tables[0]
    t = rows0[:, COLUMN["t"]]

    mass_drift, energy_drift = _drifts(rows0[:, COLUMN["mass"]], rows0[:, COLUMN["energy"]])
    line_plot(
        os.path.join(run_dir, "conservation_drift.svg"),
        [
            ("mass drift", t, mass_drift + 1e-18, colors[0]),
            ("energy drift", t, energy_drift + 1e-18, colors[1]),
        ],
        title="relative conservation drift",
        ylabel="relative drift",
        logy=True,
    )

    for path, rows in zip(csvs, tables):
        tag = os.path.basename(path)[len("series_") : -len(".csv")]
        t_R = rows[:, COLUMN["t"]]
        line_plot(
            os.path.join(run_dir, f"zR_{tag}.svg"),
            [
                ("z_R", t_R, rows[:, COLUMN["zR"]], colors[0]),
                ("second difference", t_R, rows[:, COLUMN["zR_second_fd"]], colors[1]),
            ],
            title=f"localized virial, {tag}",
        )
    line_plot(
        os.path.join(run_dir, "gradnorm.svg"),
        [("grad norm", t, rows0[:, COLUMN["grad_norm"]], colors[0])],
        title="H1 seminorm",
        ylabel="|grad u|_2",
        logy=True,
    )
    return 0


def virial_audit(run_dir: str) -> dict:
    """Recompute diagnostics from stored checkpoints and cross-check the
    stored CSV rows at matching times, in every column one checkpoint
    reproduces (all but dt and zR_second_fd). Fails when nothing was checked
    or when a checkpoint has no row at its time (unmatched, per radius)."""
    man = read_manifest(run_dir)
    k, R_values = man["cutoff_k"], man["cutoff_R"]
    ckpts = _listed(run_dir, man, ".bin")
    if not ckpts:
        raise FileNotFoundError(f"no checkpoints listed in {run_dir}/manifest.json")

    names = {R: f"series_R{R:g}.csv" for R in R_values}
    if not set(names.values()) <= set(man["files"]):
        raise FileNotFoundError(f"{run_dir}/manifest.json does not list every series CSV")
    csv_rows = {R: _read_csv(os.path.join(run_dir, name)) for R, name in names.items()}
    audited = [c for c in obs.CSV_COLUMNS if c not in ("dt", "zR_second_fd")]

    checked = unmatched = 0
    max_err = 0.0
    first = None  # (grid, params) of the first checkpoint
    for path in ckpts:
        f, t = read_checkpoint(path)
        if first is None:
            first = (f.grid, f.params)
            plan = SpectralPlan(f.grid)
            gw = obs.GridWeights(f.grid, f.params)
            pgs = {R: obs.ProfileOnGrid(build_cutoff(k, R, f.params), gw) for R in R_values}
        elif (f.grid, f.params) != first:
            raise InvariantError(f"{path} is not on the grid and b of {ckpts[0]}")
        s = obs.sample(plan, f, gw, pgs, t, float("nan"))
        for R in R_values:
            rows = csv_rows[R]
            match = np.where(np.abs(rows[:, COLUMN["t"]] - t) <= 1e-13 * max(1.0, abs(t)))[0]
            if match.size == 0:
                unmatched += 1
                continue
            stored = rows[match[0]]
            recomputed = s.row(R, float("nan"))
            for name in audited:
                val, ref = recomputed[name], stored[COLUMN[name]]
                if np.isnan(val) and np.isnan(ref):
                    continue
                err = abs(val - ref) / max(1.0, abs(ref))
                # NaN on one side only is a mismatch. A Python float keeps
                # max_err, and so passed, serializable (np.bool_ is not)
                max_err = max(max_err, np.inf if np.isnan(err) else float(err))
            checked += 1
    passed = checked > 0 and unmatched == 0 and max_err <= AUDIT_REL_TOL
    return {"checked": checked, "unmatched": unmatched, "max_rel_err": max_err, "passed": passed}


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="inlslab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one experiment from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out-dir", default=None)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out-dir", default=None)

    p_plot = sub.add_parser("plot", help="emit SVG plots for a finished run")
    p_plot.add_argument("run_dir")

    p_cut = sub.add_parser("cutoff-verify", help="certify the cutoff weight inequalities")
    p_cut.add_argument("--N", type=int, required=True)
    p_cut.add_argument("--b", type=float, required=True)
    p_cut.add_argument("--k", type=int, default=None)
    p_cut.add_argument("--R", type=float, default=1.0)
    p_cut.add_argument("--samples", type=int, default=10**5)

    p_ineq = sub.add_parser("interp-check", help="estimate an inequality constant")
    p_ineq.add_argument("--which", required=True, choices=WHICH)
    p_ineq.add_argument("--N", type=int, required=True)
    p_ineq.add_argument("--b", type=float, required=True)
    p_ineq.add_argument("--trials", type=int, default=100)
    p_ineq.add_argument("--seed", type=int, default=0)

    p_audit = sub.add_parser("virial-audit", help="recompute diagnostics from checkpoints")
    p_audit.add_argument("run_dir")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        if args.command in ("simulate", "sweep"):
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
            if args.out_dir:
                cfg = replace(cfg, out_dir=args.out_dir)
            if args.command == "simulate":
                return simulate(cfg)
            try:
                values = _parse_floats(args.values)
            except ValueError as exc:
                raise InvariantError(f"--values: {exc}") from exc
            return sweep(cfg, args.axis, values)

        if args.command == "plot":
            return plot(args.run_dir)

        if args.command == "cutoff-verify":
            params = ProblemParams(args.N, args.b)
            k = args.k if args.k is not None else default_k(params)
            profile = build_cutoff(k, args.R, params)
            cond = verify_phicond(profile, args.samples)
            gwb = grad_weight_bound(profile, args.samples)
            eps = find_epsilon(profile, 1.0, args.samples)
            report = {
                "N": args.N,
                "b": args.b,
                "k": k,
                "R": args.R,
                "phicond_min": cond["min"],
                "phicond_passed": cond["passed"],
                "grad_weight_bound": gwb,
                "epsilon": eps.epsilon,
                "sup_ratio": eps.sup_ratio,
                "phivare_passed": eps.verified,
            }
            print(json.dumps(report, indent=2))
            return 0 if (cond["passed"] and eps.verified) else 2

        if args.command == "interp-check":
            params = ProblemParams(args.N, args.b)
            # the box [-12, 12)^N, and a weight of scale a quarter of its half-width
            grid = Grid(args.N, 12.0, {1: 1024, 2: 128, 3: 48}[args.N])
            case = IneqCase(args.which, params, grid, RadialWeight("gaussian_bump", 3.0))
            est = estimate_constant(case, args.trials, args.seed)
            hist, edges = np.histogram(est.ratios, bins=20)
            report = {
                "c_hat": est.c_hat,
                "argmax_descriptor": est.argmax,
                "ratio_histogram": {"counts": hist.tolist(), "edges": edges.tolist()},
                "note": "empirical constant over a seeded family, not a proof",
            }
            print(json.dumps(report, indent=2))
            return 0

        if args.command == "virial-audit":
            report = virial_audit(args.run_dir)
            print(json.dumps(report, indent=2))
            return 0 if report["passed"] else 2

    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (InvariantError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
