"""Configuration parsing, experiment orchestration and result emission.

Config files are flat sectioned key=value text (configparser syntax) with
sections problem, grid, init, solver, cutoff, emit. Unknown keys are
errors; validation collects every violation instead of failing fast.

Exit codes: 0 reached_t_max, 10 blowup_detected (a successful
demonstration), 20 instability, 1 config error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import glob
import json
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import observables as obs
from .core import Field, Grid, InitialData, InvariantError, ProblemParams, read_checkpoint
from .cutoff import build_cutoff, default_k, find_epsilon, grad_weight_bound, verify_phicond
from .inequalities import IneqCase, RadialWeight, estimate_constant
from .solver import OUTCOME_BLOWUP, OUTCOME_INSTABILITY, OUTCOME_REACHED_T_MAX, SolverConfig, run
from .spectral import SpectralPlan
from .svgplot import line_plot

EXIT_CODES = {OUTCOME_REACHED_T_MAX: 0, OUTCOME_BLOWUP: 10, OUTCOME_INSTABILITY: 20}

KNOWN_KEYS = {
    "problem": {"N", "b"},
    "grid": {"L", "M"},
    "init": {
        "kind",
        "amplitude",
        "width",
        "center",
        "amplitude2",
        "width2",
        "center2",
        "checkpoint",
    },
    "solver": {
        "dt0",
        "dt_floor",
        "t_max",
        "safety",
        "c_cfl",
        "gradnorm_ceiling",
        "supnorm_ceiling",
        "sample_stride",
        "checkpoint_stride",
    },
    "cutoff": {"k", "R"},
    "emit": {"csv", "svg", "checkpoints", "out_dir"},
}


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
    cutoff_k: int
    cutoff_R: tuple
    emit_csv: bool = True
    emit_svg: bool = False
    emit_checkpoints: bool = False
    out_dir: str = "run_out"


def _parse_floats(text):
    return tuple(float(s) for s in text.split(","))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate; raises ConfigError listing all violations."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep option names case-sensitive (N, L, M, R)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc

    errs = []
    for section in cp.sections():
        if section not in KNOWN_KEYS:
            errs.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in KNOWN_KEYS[section]:
                errs.append(f"unknown key {key!r} in [{section}]")

    def get(section, key, conv, default):
        try:
            raw = cp.get(section, key, fallback=None)
            return default if raw is None else conv(raw)
        except (ValueError, configparser.Error) as exc:
            errs.append(f"[{section}] {key}: {exc}")
            return default

    N = get("problem", "N", int, 1)
    b = get("problem", "b", float, 0.5)
    L = get("grid", "L", float, 20.0)
    M = get("grid", "M", int, 1024)
    kind = get("init", "kind", str, "gaussian")
    amplitude = get("init", "amplitude", float, 1.0)
    width = get("init", "width", float, 1.0)
    center = get("init", "center", _parse_floats, (0.0,))
    amplitude2 = get("init", "amplitude2", float, 0.0)
    width2 = get("init", "width2", float, 1.0)
    center2 = get("init", "center2", _parse_floats, (0.0,))
    checkpoint = get("init", "checkpoint", str, None)

    params = grid = init = None
    try:
        params = ProblemParams(N, b)
    except InvariantError as exc:
        errs.append(f"[problem] {exc}")
    try:
        grid = Grid(N, L, M)
    except InvariantError as exc:
        errs.append(f"[grid] {exc}")
    try:
        init = InitialData(
            kind=kind,
            amplitude=amplitude,
            width=width,
            center=center,
            amplitude2=amplitude2,
            width2=width2,
            center2=center2,
            checkpoint_path=checkpoint,
        )
    except InvariantError as exc:
        errs.append(f"[init] {exc}")

    solver = None
    try:
        solver = SolverConfig(
            dt0=get("solver", "dt0", float, 1e-4),
            dt_floor=get("solver", "dt_floor", float, 1e-9),
            t_max=get("solver", "t_max", float, 1.0),
            safety=get("solver", "safety", float, 1.0),
            c_cfl=get("solver", "c_cfl", float, 0.1),
            gradnorm_ceiling=get("solver", "gradnorm_ceiling", float, 1e6),
            supnorm_ceiling=get("solver", "supnorm_ceiling", float, 1e6),
            sample_stride=get("solver", "sample_stride", int, 10),
            checkpoint_stride=get("solver", "checkpoint_stride", int, 0),
        )
    except InvariantError as exc:
        errs.append(f"[solver] {exc}")

    k = None
    R_values = get("cutoff", "R", _parse_floats, (2.0, 4.0, 8.0))
    if params is not None:
        k = get("cutoff", "k", int, default_k(params))
        from .cutoff import ConstraintError, check_k

        try:
            check_k(k, params)
        except ConstraintError as exc:
            errs.append(f"[cutoff] {exc}")
    if any(r <= 0 for r in R_values):
        errs.append("[cutoff] R values must be positive")
    if list(R_values) != sorted(R_values):
        errs.append("[cutoff] R values must be sorted ascending")

    def get_bool(section, key, default):
        raw = cp.get(section, key, fallback=None)
        if raw is None:
            return default
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        errs.append(f"[{section}] {key}: not a boolean: {raw!r}")
        return default

    emit_csv = get_bool("emit", "csv", True)
    emit_svg = get_bool("emit", "svg", False)
    emit_checkpoints = get_bool("emit", "checkpoints", False)
    out_dir = get("emit", "out_dir", str, "run_out")

    if errs:
        raise ConfigError(errs)
    return ExperimentConfig(
        params=params,
        grid=grid,
        init=init,
        solver=solver,
        cutoff_k=k,
        cutoff_R=R_values,
        emit_csv=emit_csv,
        emit_svg=emit_svg,
        emit_checkpoints=emit_checkpoints,
        out_dir=out_dir,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _fmt(x) -> str:
    if isinstance(x, float):
        return "nan" if np.isnan(x) else format(x, ".17g")
    return str(x)


def write_series_csv(path, report, R):
    fd = report.zR_second_fd(R)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(obs.CSV_COLUMNS) + "\n")
        for i, s in enumerate(report.series):
            v = s.virials[R]
            row = [
                s.t,
                s.dt,
                s.conservation.mass,
                s.conservation.energy,
                s.grad_norm,
                s.sup_norm,
                v.zR,
                v.zR_prime,
                v.zR_second_formula,
                float(fd[i]),
                v.K1,
                v.K2,
                v.K3,
                v.alpha_check,
            ]
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def simulate(cfg: ExperimentConfig, run_id: str = "run") -> int:
    """Run one experiment and emit manifest, CSVs, optional checkpoints/SVGs."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    profiles = [build_cutoff(cfg.cutoff_k, R, cfg.params) for R in cfg.cutoff_R]
    ckpt_dir = os.path.join(cfg.out_dir, "checkpoints") if cfg.emit_checkpoints else None
    solver_cfg = cfg.solver
    if cfg.emit_checkpoints and solver_cfg.checkpoint_stride == 0:
        solver_cfg = replace(solver_cfg, checkpoint_stride=1)
    report = run(
        cfg.init, cfg.params, cfg.grid, solver_cfg, profiles,
        checkpoint_dir=ckpt_dir, run_id=run_id,
    )

    files = []
    if cfg.emit_csv:
        for R in cfg.cutoff_R:
            name = f"series_R{R:g}.csv"
            write_series_csv(os.path.join(cfg.out_dir, name), report, R)
            files.append(name)
    files.extend(os.path.relpath(p, cfg.out_dir) for p in report.checkpoints)

    # the effective config, less out_dir: reruns into other directories
    # must write the same bytes
    config = asdict(replace(cfg, solver=solver_cfg))
    del config["out_dir"]
    manifest = {
        "run_id": run_id,
        **config,
        "outcome": report.outcome,
        "t_end": report.t_end,
        "steps": report.steps,
        "E0": report.energy0,
        "M0": report.mass0,
        "alpha_summary": report.alpha_summary(),
        "gradnorm_ceiling_hit": report.gradnorm_ceiling_hit,
        "dt_floor_hit": report.dt_floor_hit,
        "blowup_time_bracket": report.blowup_time_bracket,
        "files": files,
    }
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)

    if cfg.emit_svg:
        plot(cfg.out_dir)
    return EXIT_CODES[report.outcome]


def _run_one_sweep_value(args):
    cfg, axis, value, sub = args
    if axis == "amplitude":
        cfg = replace(cfg, init=replace(cfg.init, amplitude=value))
    elif axis == "R":
        cfg = replace(cfg, cutoff_R=(value,))
    elif axis == "b":
        cfg = replace(cfg, params=ProblemParams(cfg.params.ndim, value))
    elif axis == "k":
        cfg = replace(cfg, cutoff_k=int(value))
    else:
        raise InvariantError(f"sweep axis must be amplitude, R, b or k, not {axis!r}")
    cfg = replace(cfg, out_dir=sub)
    code = simulate(cfg, run_id=f"sweep_{axis}_{value:g}")
    with open(os.path.join(sub, "manifest.json")) as fh:
        man = json.load(fh)
    return value, code, man


def sweep(cfg: ExperimentConfig, axis: str, values, workers: int = 1) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    jobs = [
        (cfg, axis, v, os.path.join(cfg.out_dir, f"{axis}_{v:g}")) for v in values
    ]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_one_sweep_value, jobs))
    else:
        results = [_run_one_sweep_value(j) for j in jobs]

    with open(os.path.join(cfg.out_dir, "summary.csv"), "w") as fh:
        fh.write(f"{axis},outcome,t_end,E0,alpha_mean\n")
        for value, _code, man in results:
            fh.write(
                f"{_fmt(float(value))},{man['outcome']},{_fmt(man['t_end'])},"
                f"{_fmt(man['E0'])},{_fmt(man['alpha_summary']['mean'])}\n"
            )
    return 0


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.strip().split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


def plot(run_dir: str) -> int:
    csvs = sorted(glob.glob(os.path.join(run_dir, "series_R*.csv")))
    if not csvs:
        raise FileNotFoundError(f"no series CSVs in {run_dir}")
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    header, rows0 = _read_csv(csvs[0])
    col = {name: i for i, name in enumerate(header)}
    t = rows0[:, col["t"]]

    mass0, e0 = rows0[0, col["mass"]], rows0[0, col["energy"]]
    drift_series = [
        ("mass drift", t, np.abs(rows0[:, col["mass"]] / mass0 - 1.0) + 1e-18, colors[0]),
        (
            "energy drift",
            t,
            np.abs(rows0[:, col["energy"]] - e0) / max(abs(e0), 1e-30) + 1e-18,
            colors[1],
        ),
    ]
    line_plot(
        os.path.join(run_dir, "conservation_drift.svg"),
        drift_series,
        title="relative conservation drift",
        ylabel="relative drift",
        logy=True,
    )

    for i, path in enumerate(csvs):
        _, rows = _read_csv(path)
        tag = os.path.basename(path)[len("series_") : -len(".csv")]
        line_plot(
            os.path.join(run_dir, f"zR_{tag}.svg"),
            [
                ("z_R", rows[:, col["t"]], rows[:, col["zR"]], colors[0]),
                (
                    "second difference",
                    rows[:, col["t"]],
                    rows[:, col["zR_second_fd"]],
                    colors[1],
                ),
            ],
            title=f"localized virial, {tag}",
        )
    line_plot(
        os.path.join(run_dir, "gradnorm.svg"),
        [("grad norm", t, rows0[:, col["grad_norm"]], colors[0])],
        title="H1 seminorm",
        ylabel="|grad u|_2",
        logy=True,
    )
    return 0


def virial_audit(run_dir: str, rel_tol: float = 1e-12) -> dict:
    """Recompute diagnostics from stored checkpoints and cross-check the
    stored CSV rows at matching times."""
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        man = json.load(fh)
    if "cutoff_k" not in man or "cutoff_R" not in man:
        raise InvariantError(f"manifest in {run_dir} has no cutoff_k/cutoff_R; rerun simulate")
    k, R_values = man["cutoff_k"], man["cutoff_R"]
    ckpts = sorted(glob.glob(os.path.join(run_dir, "checkpoints", "ckpt_*.bin")))
    if not ckpts:
        raise FileNotFoundError(f"no checkpoints in {run_dir}")

    csv_data = {}
    for R in R_values:
        header, rows = _read_csv(os.path.join(run_dir, f"series_R{R:g}.csv"))
        csv_data[R] = (dict((n, i) for i, n in enumerate(header)), rows)

    checked = 0
    max_err = 0.0
    plan = None
    for path in ckpts:
        f, meta = read_checkpoint(path)
        if plan is None:
            plan = SpectralPlan(f.grid)
            gw = obs.GridWeights(f.grid, f.params)
            pgs = {R: obs.ProfileOnGrid(build_cutoff(k, R, f.params), gw) for R in R_values}
        t = meta["t"]
        cons = obs.conservation(plan, f, gw)
        virials = obs.virial_z_second(plan, f, gw, pgs)
        for R in R_values:
            col, rows = csv_data[R]
            match = np.where(np.abs(rows[:, col["t"]] - t) <= 1e-13 * max(1.0, abs(t)))[0]
            if match.size == 0:
                continue
            row = rows[match[0]]
            v = virials[R]
            recomputed = {
                "mass": cons.mass,
                "energy": cons.energy,
                "grad_norm": float(np.sqrt(cons.kinetic)),
                "zR": v.zR,
                "zR_prime": v.zR_prime,
                "zR_second_formula": v.zR_second_formula,
                "K1": v.K1,
                "K2": v.K2,
                "K3": v.K3,
                "alpha_check": v.alpha_check,
            }
            for name, val in recomputed.items():
                stored = row[col[name]]
                if np.isnan(val) and np.isnan(stored):
                    continue
                err = abs(val - stored) / max(1.0, abs(stored))
                max_err = max(max_err, err)
            checked += 1
    return {"checked": checked, "max_rel_err": max_err, "passed": bool(max_err <= rel_tol)}


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="inlslab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one experiment from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out-dir", default=None)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=["amplitude", "R", "b", "k"])
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out-dir", default=None)

    p_plot = sub.add_parser("plot", help="emit SVG plots for a finished run")
    p_plot.add_argument("run_dir")

    p_cut = sub.add_parser("cutoff-verify", help="certify the cutoff weight inequalities")
    p_cut.add_argument("--N", type=int, required=True)
    p_cut.add_argument("--b", type=float, required=True)
    p_cut.add_argument("--k", type=int, default=None)
    p_cut.add_argument("--R", type=float, default=1.0)
    p_cut.add_argument("--samples", type=int, default=10**5)
    p_cut.add_argument("--c", type=float, default=1.0)

    p_ineq = sub.add_parser("interp-check", help="estimate an inequality constant")
    p_ineq.add_argument("--which", required=True, choices=["interp1", "interp2", "otn1", "gn"])
    p_ineq.add_argument("--N", type=int, required=True)
    p_ineq.add_argument("--b", type=float, required=True)
    p_ineq.add_argument("--trials", type=int, default=100)
    p_ineq.add_argument("--seed", type=int, default=0)
    p_ineq.add_argument("--L", type=float, default=12.0)
    p_ineq.add_argument("--M", type=int, default=None)

    p_audit = sub.add_parser("virial-audit", help="recompute diagnostics from checkpoints")
    p_audit.add_argument("run_dir")

    args = ap.parse_args(argv)

    try:
        if args.command == "simulate":
            cfg = load_config(args.config)
            if args.out_dir:
                cfg = replace(cfg, out_dir=args.out_dir)
            return simulate(cfg)

        if args.command == "sweep":
            cfg = load_config(args.config)
            if args.out_dir:
                cfg = replace(cfg, out_dir=args.out_dir)
            values = [float(s) for s in args.values.split(",")]
            return sweep(cfg, args.axis, values, workers=args.workers)

        if args.command == "plot":
            return plot(args.run_dir)

        if args.command == "cutoff-verify":
            params = ProblemParams(args.N, args.b)
            k = args.k if args.k is not None else default_k(params)
            profile = build_cutoff(k, args.R, params)
            cond = verify_phicond(profile, args.samples)
            gwb = grad_weight_bound(profile, args.samples)
            eps = find_epsilon(profile, args.c, args.samples)
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
            M = args.M if args.M is not None else {1: 1024, 2: 128, 3: 48}[args.N]
            grid = Grid(args.N, args.L, M)
            case = IneqCase(args.which, params, grid, RadialWeight("gaussian_bump", args.L / 4))
            est = estimate_constant(case, args.trials, args.seed)
            hist, edges = np.histogram(est.ratios, bins=20)
            print(
                json.dumps(
                    {
                        "c_hat": est.c_hat,
                        "argmax_descriptor": est.argmax,
                        "ratio_histogram": {
                            "counts": hist.tolist(),
                            "edges": edges.tolist(),
                        },
                        "note": "empirical constant over a seeded family, not a proof",
                    },
                    indent=2,
                )
            )
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
