"""Config parsing, orchestration subcommands, and emitted artifacts."""

import argparse
import dataclasses
import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inlslab import cli, observables
from inlslab.cli import (
    CONFIG_KEYS,
    EXIT_CODES,
    ConfigError,
    ExperimentConfig,
    build_parser,
    main,
    parse_config,
    virial_audit,
)
from inlslab.core import (
    BOUNDARY_DECAY_TOL,
    BoundaryDecayWarning,
    Field,
    Grid,
    InitialData,
    ProblemParams,
    read_checkpoint,
    write_checkpoint,
)
from inlslab.solver import RunReport, SolverConfig, run

# few, reproducible examples: these run in the default suite
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

MINIMAL = """
[problem]
N = 1
b = 0.5

[grid]
L = 10.0
M = 256

[init]
kind = gaussian
amplitude = 0.4
width = 1.0

[solver]
dt0 = 1e-3
dt_floor = 1e-7
t_max = 0.02
sample_stride = 5

[cutoff]
R = 2,4
"""


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _float_lists(lo, hi, sort=False):
    # sorted lists are R values, whose {:g} names must be distinct
    unique_by = (lambda x: f"{x:g}") if sort else None
    lists = st.lists(st.floats(lo, hi), min_size=1, max_size=3, unique_by=unique_by)
    return lists.map(lambda xs: ",".join(repr(x) for x in (sorted(xs) if sort else xs)))


# valid text for every config key
KEY_VALUES = {
    "problem": {"N": st.sampled_from("123"), "b": _floats(0.05, 1.95)},
    "grid": {"L": _floats(1.0, 50.0), "M": st.sampled_from(["16", "64", "256"])},
    "init": {
        "kind": st.sampled_from(["gaussian", "shifted_gaussian", "sum_of_gaussians"]),
        "amplitude": _floats(-2.0, 2.0),
        "width": _floats(0.1, 3.0),
        "center": _float_lists(-1.0, 1.0),
        "amplitude2": _floats(-2.0, 2.0),
        "width2": _floats(0.1, 3.0),
        "center2": _float_lists(-1.0, 1.0),
        "checkpoint": st.sampled_from(["seed.bin", "runs/a/ckpt_final.bin"]),
    },
    "solver": {
        "dt0": _floats(1e-4, 1e-2),
        "dt_floor": _floats(1e-9, 1e-5),
        "t_max": _floats(0.01, 2.0),
        "c_cfl": _floats(0.01, 1.0),
        "gradnorm_ceiling": _floats(1.0, 1e9),
        "supnorm_ceiling": _floats(1.0, 1e9),
        "sample_stride": st.integers(1, 50).map(str),
        "checkpoint_stride": st.integers(1, 5).map(str),
    },
    # past every lower bound on k for N <= 3
    "cutoff": {"k": st.integers(100, 200).map(str), "R": _float_lists(0.5, 10.0, sort=True)},
    "emit": {
        "csv": st.sampled_from(["true", "false", "yes", "0"]),
        "svg": st.sampled_from(["True", "no"]),
        "checkpoints": st.sampled_from(["1", "false"]),
        "out_dir": st.sampled_from(["run_out", "runs/sweep 1"]),
    },
}


@st.composite
def config_texts(draw):
    """A valid config with a random subset of its keys."""
    lines = []
    for section, keys in KEY_VALUES.items():
        lines.append(f"[{section}]")
        for key, values in keys.items():
            if draw(st.booleans()):
                lines.append(f"{key} = {draw(values)}")
    # svg plots are drawn from the series CSVs, so svg = true needs them
    if "svg = True" in lines and any(f"csv = {no}" in lines for no in ("false", "0")):
        lines.remove("svg = True")
    # the dynamics take b < min(2, N): below 1 when N is 1, its default included
    b_line = next((line for line in lines if line.startswith("b = ")), None)
    if b_line and not any(f"N = {n}" in lines for n in (2, 3)):
        lines[lines.index(b_line)] = f"b = {draw(_floats(0.05, 0.95))}"
    return "\n".join(lines) + "\n"


def render(cfg):
    """Config text for cfg, from the key table read backwards."""
    holders = {
        "problem": cfg.params, "grid": cfg.grid, "init": cfg.init, "solver": cfg.solver,
        "cutoff": cfg, "emit": cfg,
    }
    lines = []
    for section, (_cls, keys) in CONFIG_KEYS.items():
        lines.append(f"[{section}]")
        for key, name in keys.items():
            value = getattr(holders[section], name)
            if isinstance(value, tuple):
                value = ",".join(repr(x) for x in value)
            if value is not None:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.params.ndim == 1
        assert cfg.cutoff_k is None  # simulate resolves it; see the manifest test
        assert cfg.cutoff_R == (2.0, 4.0)
        assert cfg.emit_csv is True

    def test_defaults_come_from_the_dataclasses(self):
        cfg = parse_config("[problem]\nb = 0.5\n")
        assert cfg.params == ProblemParams(1, 0.5)
        assert cfg.grid == Grid(1, 20.0, 1024)
        assert cfg.init == InitialData()
        assert cfg.solver == SolverConfig()
        assert (cfg.cutoff_k, cfg.cutoff_R) == (None, (2.0, 4.0, 8.0))
        assert (cfg.emit_csv, cfg.emit_svg, cfg.emit_checkpoints) == (True, False, False)
        assert cfg.out_dir == "run_out"

    @PROPERTY
    @given(text=config_texts())
    def test_render_and_parse_is_a_fixed_point(self, text):
        cfg = parse_config(text)
        assert parse_config(render(cfg)) == cfg

    def test_bad_values_are_named_and_collected(self):
        text = MINIMAL.replace("M = 256", "M = many") + "\n[emit]\ncsv = maybe\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.violations == [
            "[grid] M: invalid literal for int() with base 10: 'many'",
            "[emit] csv: not a boolean: 'maybe'",
        ]

    def test_default_sample_stride(self):
        cfg = parse_config(MINIMAL.replace("sample_stride = 5\n", ""))
        assert cfg.solver.sample_stride == 10

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "\n[emit]\ncolor = red\n")

    def test_unknown_section_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[plotting]\nx = 1\n")

    def test_b_out_of_range_names_constraint(self):
        with pytest.raises(ConfigError, match=r"\(0, 2\)"):
            parse_config(MINIMAL.replace("b = 0.5", "b = 2.5"))
        # |x|^-b is not integrable at 0 in 1D for b >= 1; in 2D it is
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("b = 0.5", "b = 1.5"))
        assert exc.value.violations == [
            "[problem] the dynamics need b in (0, 1) for N=1, got b=1.5"
        ]
        parse_config(MINIMAL.replace("N = 1", "N = 2").replace("b = 0.5", "b = 1.5"))

    def test_n2_small_k_rejected(self):
        text = MINIMAL.replace("N = 1", "N = 2").replace("b = 0.5", "b = 1.0")
        text += "k = 3\n"
        with pytest.raises(ConfigError, match="strictly greater than 4"):
            parse_config(text)

    def test_all_violations_collected(self):
        text = MINIMAL.replace("b = 0.5", "b = 2.5").replace("M = 256", "M = -4")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert len(exc.value.violations) >= 2

    def test_unsorted_R_rejected(self):
        with pytest.raises(ConfigError, match="sorted"):
            parse_config(MINIMAL.replace("R = 2,4", "R = 4,2"))

    @pytest.mark.parametrize(
        "R, clash",
        [("2,2", "2.0 and 2.0 both name series_R2.csv"),
         ("1.0000001,1.0000002", "1.0000001 and 1.0000002 both name series_R1.csv")],
    )
    def test_R_values_with_one_file_name_rejected(self, R, clash):
        # each R writes series_R{R:g}.csv; a repeated name would overwrite one
        with pytest.raises(ConfigError, match="distinct files") as exc:
            parse_config(MINIMAL.replace("R = 2,4", f"R = {R}"))
        assert clash in str(exc.value)

    def test_svg_without_csv_is_an_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[emit]\ncsv = false\nsvg = true\n")
        assert exc.value.violations == [
            "[emit] svg = true needs csv = true: the plots are drawn from the series CSVs"
        ]

    def test_safety_is_an_unknown_key(self):
        # a step-size factor below 1 let the step fall under dt_floor at the
        # first step and report a blow-up for positive-energy data
        text = MINIMAL.replace("dt_floor = 1e-7", "dt_floor = 5e-4\nsafety = 0.25")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.violations == ["unknown key 'safety' in [solver]"]

    @pytest.mark.parametrize(
        "line, violation",
        [
            ("c_cfl = 0", "[solver] t_max, c_cfl and ceilings must be positive"),
            ("c_cfl = -1", "[solver] t_max, c_cfl and ceilings must be positive"),
            ("t_max = nan", "[solver] t_max must be finite"),
            ("gradnorm_ceiling = nan", "[solver] gradnorm_ceiling must be finite"),
        ],
    )
    def test_non_positive_c_cfl_and_non_finite_floats_are_errors(self, line, violation):
        # c_cfl <= 0 clamped every step to dt_floor and reported a blow-up
        # for positive-energy data; a NaN t_max ran no step
        text = MINIMAL.replace("t_max = 0.02\n", f"{line}\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.violations == [violation]

    @pytest.mark.parametrize(
        "text, violation",
        [
            ("[problem\nN = 1\n", "syntax: "),
            (MINIMAL.replace("R = 2,4", "R = 0,4"), "[cutoff] R values must be positive"),
            # a NaN radius ran to t_max with NaN z_R and finite garbage in K1, K2
            (MINIMAL.replace("R = 2,4", "R = nan"), "[cutoff] R values must be positive and finite"),
        ],
        ids=["syntax", "R-not-positive", "R-nan"],
    )
    def test_rejected_texts(self, text, violation):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.violations[0].startswith(violation)

    @pytest.mark.parametrize(
        "old, new, violation",
        [
            ("L = 10.0", "L = nan", "[grid] half_width must be positive and finite"),
            ("L = 10.0", "L = inf", "[grid] half_width must be positive and finite"),
            ("width = 1.0", "width = nan", "[init] widths must be positive and finite"),
            ("width = 1.0", "width = 1.0\ncenter = nan", "[init] center must be finite"),
        ],
        ids=["L-nan", "L-inf", "width-nan", "center-nan"],
    )
    def test_non_finite_geometry_is_named_at_parse(self, old, new, violation):
        # these once parsed and failed in the run as a field with NaN or
        # Inf samples, a message that named no section or key
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace(old, new))
        assert exc.value.violations == [violation]

    def test_checkpoint_stride_zero_is_an_error(self):
        text = MINIMAL.replace("sample_stride = 5\n", "sample_stride = 5\ncheckpoint_stride = 0\n")
        with pytest.raises(ConfigError, match="checkpoint_stride must be >= 1"):
            parse_config(text)


class TestSimulate:
    def write_cfg(self, tmp_path, text=MINIMAL, extra=""):
        path = tmp_path / "run.cfg"
        path.write_text(text + extra)
        return str(path)

    def test_writes_manifest_and_csv(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", self.write_cfg(tmp_path), "--out-dir", out])
        assert code == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            man = json.load(fh)
        assert man["outcome"] == "reached_t_max"
        assert set(man["files"]) == {"series_R2.csv", "series_R4.csv"}
        with open(os.path.join(out, "series_R2.csv")) as fh:
            header = fh.readline().strip()
        assert header.startswith("t,dt,mass,energy,grad_norm")
        assert man["cutoff_k"] == 5  # default rule for N=1, b=0.5
        # the certificate's third leg and the drifts agree with the CSV rows
        rows = np.loadtxt(os.path.join(out, "series_R2.csv"), delimiter=",", skiprows=1)
        mass, energy, fd = rows[:, 2], rows[:, 3], rows[:, 9]
        assert man["max_mass_drift"] == np.max(np.abs(mass / mass[0] - 1.0))
        assert man["max_energy_drift"] == np.max(np.abs(energy - energy[0])) / abs(energy[0])
        assert man["max_mass_drift"] < 1e-12
        assert set(man["tracked_concavity"]) == {"2", "4"}
        fd = fd[np.isfinite(fd)]
        assert fd.size > 0
        assert man["tracked_concavity"]["2"] == np.mean(fd < 0.0)

    def test_zero_amplitude_run(self, tmp_path):
        # the zero field stays zero: no mass drift, and log plots with no
        # positive value to draw
        text = MINIMAL.replace("amplitude = 0.4", "amplitude = 0")
        out = tmp_path / "zero"
        cfg_path = self.write_cfg(tmp_path, text, "\n[emit]\nsvg = true\n")
        assert main(["simulate", "--config", cfg_path, "--out-dir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["max_mass_drift"] == 0.0
        assert sorted(p.name for p in out.glob("*.svg")) == [
            "conservation_drift.svg", "gradnorm.svg", "zR_R2.svg", "zR_R4.svg",
        ]

    @pytest.mark.parametrize("ndim,b,M", [(1, "0.5", 256), (2, "1.0", 64)])
    def test_alpha_check_closes_against_the_row_energy(self, tmp_path, ndim, b, M):
        text = MINIMAL.replace("N = 1", f"N = {ndim}").replace("b = 0.5", f"b = {b}")
        out = tmp_path / "out"
        cfg_path = self.write_cfg(tmp_path, text.replace("M = 256", f"M = {M}"))
        assert main(["simulate", "--config", cfg_path, "--out-dir", str(out)]) == 0
        for R in ("2", "4"):
            lines = (out / f"series_R{R}.csv").read_text().splitlines()
            header = lines[0].split(",")
            assert len(lines) > 3
            for line in lines[1:]:
                row = dict(zip(header, map(float, line.split(","))))
                closed = row["zR_second_formula"] - row["K1"] - row["K2"] - row["K3"]
                assert row["alpha_check"] == closed / row["energy"], (R, row["t"])

    def test_rerun_is_byte_identical(self, tmp_path):
        # the whole run directory, checkpoints included
        cfg_path = self.write_cfg(tmp_path, extra="\n[emit]\ncheckpoints = true\n")
        trees = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg_path, "--out-dir", str(out)]) == 0
            trees.append({str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert trees[0] == trees[1]
        ckpts = [name for name in trees[0] if name.startswith("checkpoints")]
        assert len(ckpts) >= 2
        assert all(os.path.basename(n).startswith("ckpt_") and n.endswith(".bin") for n in ckpts)
        man = json.loads(trees[0]["manifest.json"])
        for key in ("amplitude2", "width2", "center2", "checkpoint_path"):
            assert key in man["init"]
        for key in ("supnorm_ceiling", "checkpoint_stride"):
            assert key in man["solver"]

    def test_manifest_records_boundary_decay(self, tmp_path):
        # width 4 on L = 10: the Gaussian wraps around the box, realize
        # warns, and the manifest keeps the ratio it warned about
        text = MINIMAL.replace("width = 1.0", "width = 4.0")
        out = tmp_path / "wide"
        with pytest.warns(BoundaryDecayWarning):
            assert main(["simulate", "--config", self.write_cfg(tmp_path, text), "--out-dir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        # cell-centered: the peak sample is at h/2, the edge one at L - h/2
        half = 10.0 / 256
        expected = np.exp(-((10.0 - half) ** 2 - half**2) / 32.0)
        assert man["boundary_decay"] == pytest.approx(expected, rel=1e-12)
        assert man["boundary_decay"] > BOUNDARY_DECAY_TOL

        # data read from a checkpoint is taken as is: nothing to record
        ckpt = tmp_path / "start.bin"
        grid = Grid(1, 10.0, 256)
        u = 0.4 * np.exp(-(grid.axis_coords() ** 2) / 2.0) + 0.0j
        write_checkpoint(str(ckpt), Field(ProblemParams(1, 0.5), grid, u))
        text = MINIMAL.replace("kind = gaussian", f"kind = from_checkpoint\ncheckpoint = {ckpt}")
        out = tmp_path / "restart"
        assert main(["simulate", "--config", self.write_cfg(tmp_path, text), "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["boundary_decay"] is None

    def test_detection_exit_code(self, tmp_path):
        text = MINIMAL.replace(
            "sample_stride = 5\n", "sample_stride = 5\ngradnorm_ceiling = 1e-12\n"
        )
        cfg_path = self.write_cfg(tmp_path, text)
        code = main(["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "o")])
        assert code == 10

    @pytest.mark.parametrize("ceiling", ["supnorm", "gradnorm"])
    def test_ceiling_stop_is_named_in_the_manifest(self, tmp_path, ceiling):
        # the 0.4-amplitude bump starts over a sup-norm ceiling of 0.1 and
        # far under the default gradient-norm one, and the other way round
        value = {"supnorm": "0.1", "gradnorm": "1e-12"}[ceiling]
        text = MINIMAL.replace("sample_stride = 5\n", f"sample_stride = 5\n{ceiling}_ceiling = {value}\n")
        out = tmp_path / ceiling
        assert main(["simulate", "--config", self.write_cfg(tmp_path, text), "--out-dir", str(out)]) == 10
        man = json.loads((out / "manifest.json").read_text())
        assert man["outcome"] == "blowup_detected" and not man["dt_floor_hit"]
        assert man["supnorm_ceiling_hit"] == (ceiling == "supnorm")
        assert man["gradnorm_ceiling_hit"] == (ceiling == "gradnorm")

    def test_center_longer_than_n_is_an_error(self, tmp_path, capsys):
        # the manifest would record both coordinates of a run centred at 0.5
        text = MINIMAL.replace("width = 1.0", "width = 1.0\ncenter = 0.5,7")
        cfg_path = self.write_cfg(tmp_path, text)
        assert main(["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 1
        assert "center has 2 coordinates, more than N = 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("is_dir", [False, True], ids=["missing", "directory"])
    def test_restart_checkpoint_that_cannot_be_read_is_an_error(self, tmp_path, capsys, is_dir):
        # a directory raises IsADirectoryError, not FileNotFoundError
        ckpt = tmp_path / "start.bin"
        if is_dir:
            ckpt.mkdir()
        text = MINIMAL.replace("kind = gaussian", f"kind = from_checkpoint\ncheckpoint = {ckpt}")
        out = tmp_path / "restart"
        extra = "\n[emit]\ncheckpoints = true\n"
        assert main(["simulate", "--config", self.write_cfg(tmp_path, text, extra), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ckpt) in err
        assert not out.exists()

    def test_config_that_is_a_directory_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert not out.exists()

    def test_grid_too_large_to_allocate_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate the grid")

        monkeypatch.setattr(cli, "run", too_large)
        out = tmp_path / "o"
        assert main(["simulate", "--config", self.write_cfg(tmp_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate the grid\n"
        assert not out.exists()

    def test_out_dir_that_cannot_be_made_is_reported_after_the_run(self, tmp_path, capsys, monkeypatch):
        # out_dir is created only once run has accepted the inputs and returned
        runs = []
        monkeypatch.setattr(cli, "run", lambda *a, **kw: runs.append(1) or run(*a, **kw))
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--config", self.write_cfg(tmp_path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert runs == [1] and out.read_text() == ""

    def test_floor_crossing_alone_is_not_a_blowup(self, tmp_path):
        # a narrow positive-energy bump: the step falls under dt_floor, but
        # ||grad u|| only grows from 7.4 to 9.5 and no ceiling is crossed.
        # A clamped step is step control, not a demonstration of blow-up.
        text = (
            MINIMAL.replace("M = 256", "M = 2048")
            .replace("amplitude = 0.4\nwidth = 1.0", "amplitude = 2.5\nwidth = 0.1")
            .replace("dt_floor = 1e-7", "dt_floor = 5e-4")
        )
        out = tmp_path / "floor"
        assert main(["simulate", "--config", self.write_cfg(tmp_path, text), "--out-dir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["E0"] == pytest.approx(12.22, abs=0.01)
        assert man["outcome"] == "reached_t_max"
        assert man["t_end"] == pytest.approx(0.02, rel=1e-12)
        assert man["dt_floor_hit"] and not man["gradnorm_ceiling_hit"]
        assert man["blowup_time_bracket"] is None
        # no bracket, so the tracked window is the whole run
        rows = np.loadtxt(out / "series_R2.csv", delimiter=",", skiprows=1)
        fd = rows[:, 9][np.isfinite(rows[:, 9])]
        assert man["tracked_concavity"]["2"] == np.mean(fd < 0.0)

    def test_manifest_keys_are_the_config_and_report_fields(self, tmp_path):
        # a RunReport field added later lands in the manifest by itself
        out = tmp_path / "out"
        assert main(["simulate", "--config", self.write_cfg(tmp_path), "--out-dir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        config_keys = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "out_dir"]
        report_keys = [f.name for f in dataclasses.fields(RunReport)]
        report_keys = [k for k in report_keys if k not in ("series", "checkpoints")]
        derived = ["alpha_summary", "tracked_concavity", "max_mass_drift", "max_energy_drift"]
        assert list(man) == ["run_id", *config_keys, *report_keys, *derived, "files"]
        assert {"E0", "M0", "steps", "blowup_time_bracket"} <= set(report_keys)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        for b, message in (("2.5", "b must lie in (0, 2)"), ("1.5", "b in (0, 1) for N=1")):
            cfg_path = self.write_cfg(tmp_path, MINIMAL.replace("b = 0.5", f"b = {b}"))
            out = tmp_path / "out"
            assert main(["simulate", "--config", cfg_path, "--out-dir", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_mass_drift_is_an_instability(self, tmp_path, monkeypatch):
        # every sample after the first reports 1e-5 more mass than it has
        real = observables.sample

        def inflating(u, gw, pgs, t, dt):
            s = real(u, gw, pgs, t, dt)
            if t > 0:
                mass = s.conservation.mass * (1.0 + 1e-5)
                s.conservation = dataclasses.replace(s.conservation, mass=mass)
            return s

        monkeypatch.setattr(observables, "sample", inflating)
        cfg_path = self.write_cfg(tmp_path, extra="\n[emit]\ncheckpoints = true\n")
        out = tmp_path / "drift"
        assert main(["simulate", "--config", cfg_path, "--out-dir", str(out)]) == 20
        man = json.loads((out / "manifest.json").read_text())
        assert man["outcome"] == "instability_detected"
        assert man["t_end"] == pytest.approx(5e-3, rel=1e-12)  # the first sample after t = 0
        assert os.listdir(out / "checkpoints") == ["ckpt_000000000.bin"]

    def test_checkpoints_emitted_when_requested(self, tmp_path):
        extra = "\n[emit]\ncheckpoints = true\nout_dir = %s\n" % (tmp_path / "ck")
        cfg_path = self.write_cfg(tmp_path, MINIMAL, extra)
        assert main(["simulate", "--config", cfg_path]) == 0
        ckdir = os.path.join(str(tmp_path / "ck"), "checkpoints")
        assert len(os.listdir(ckdir)) >= 2


class TestSweepPlotAudit:
    def test_sweep_amplitude(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out = str(tmp_path / "sw")
        code = main(
            [
                "sweep",
                "--config",
                str(cfg_path),
                "--axis",
                "amplitude",
                "--values",
                "0.1,0.2",
                "--out-dir",
                out,
            ]
        )
        assert code == 0
        with open(os.path.join(out, "summary.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "amplitude,outcome,t_end,E0,alpha_mean"
        assert len(lines) == 3

    def sweep_b(self, tmp_path, values):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out = str(tmp_path / "sw")
        argv = ["sweep", "--config", str(cfg_path), "--axis", "b", "--values", values]
        code = main(argv + ["--out-dir", out])
        with open(os.path.join(out, "summary.csv")) as fh:
            return code, out, fh.read().strip().splitlines()

    def test_sweep_over_b_uses_the_default_k_of_each_b(self, tmp_path):
        # k = 5 suits b = 0.5 but not b = 0.3, which needs k > 6.67
        code, out, lines = self.sweep_b(tmp_path, "0.5,0.3")
        assert code == 0
        assert [line.split(",")[1] for line in lines[1:]] == ["reached_t_max"] * 2
        ks = []
        for b in ("0.5", "0.3"):
            with open(os.path.join(out, f"b_{b}", "manifest.json")) as fh:
                ks.append(json.load(fh)["cutoff_k"])
        assert ks == [5, 8]

    def test_sweep_value_that_fails_is_an_error_row(self, tmp_path, capsys):
        # b = 1.5 is a valid ProblemParams, past the range of the 1D dynamics
        for bad in ("2.5", "1.5"):
            code, out, lines = self.sweep_b(tmp_path, f"{bad},0.5")
            assert code == 1
            assert lines[1] == f"{bad},error,nan,nan,nan"
            assert lines[2].startswith("0.5,reached_t_max,")
            assert f"b={bad}" in capsys.readouterr().err
            assert not os.path.exists(os.path.join(out, f"b_{bad}"))

    def test_sweep_value_too_large_to_allocate_is_an_error_row(self, tmp_path, capsys, monkeypatch):
        # as main reports it: the other values still run
        real = cli.run

        def allocating(init, params, *args, **kwargs):
            if params.b == 0.75:
                raise MemoryError("Unable to allocate the grid")
            return real(init, params, *args, **kwargs)

        monkeypatch.setattr(cli, "run", allocating)
        code, out, lines = self.sweep_b(tmp_path, "0.75,0.5")
        assert code == 1
        assert lines[1] == "0.75,error,nan,nan,nan"
        assert lines[2].startswith("0.5,reached_t_max,")
        assert "error: b=0.75: Unable to allocate the grid" in capsys.readouterr().err

    def test_sweep_over_a_non_integer_k_is_an_error_row(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out = str(tmp_path / "sw")
        argv = ["sweep", "--config", str(cfg_path), "--axis", "k", "--values", "5.5,inf,6"]
        assert main(argv + ["--out-dir", out]) == 1
        with open(os.path.join(out, "summary.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[1:3] == ["5.5,error,nan,nan,nan", "inf,error,nan,nan,nan"]
        assert lines[3].startswith("6,reached_t_max,")
        assert "k must be an integer" in capsys.readouterr().err
        with open(os.path.join(out, "k_6", "manifest.json")) as fh:
            assert '"cutoff_k": 6,' in fh.read()
        # a rejected value is only a summary row: no directory is left for it
        assert sorted(os.listdir(out)) == ["k_6", "summary.csv"]

    def test_sweep_over_a_nan_R_is_an_error_row(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out = tmp_path / "sw"
        argv = ["sweep", "--config", str(cfg_path), "--axis", "R", "--values", "nan,2"]
        assert main(argv + ["--out-dir", str(out)]) == 1
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[1] == "nan,error,nan,nan,nan"
        assert lines[2].startswith("2,reached_t_max,")
        assert "R must be positive and finite" in capsys.readouterr().err

    def test_sweep_with_a_missing_restart_checkpoint_gives_every_value_an_error_row(
        self, tmp_path, capsys
    ):
        # the unreadable file is an OSError, not an InvariantError: once it
        # escaped the loop and left a summary of just its header
        missing = tmp_path / "gone.bin"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            MINIMAL.replace("kind = gaussian", f"kind = from_checkpoint\ncheckpoint = {missing}")
        )
        out = tmp_path / "sw"
        argv = ["sweep", "--config", str(cfg_path), "--axis", "R", "--values", "2,4"]
        assert main(argv + ["--out-dir", str(out)]) == 1
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines == ["R,outcome,t_end,E0,alpha_mean", "2,error,nan,nan,nan", "4,error,nan,nan,nan"]
        err = capsys.readouterr().err
        assert "R=2" in err and "R=4" in err and "gone.bin" in err
        assert sorted(os.listdir(out)) == ["summary.csv"]

    def test_sweep_value_that_is_not_a_number_is_a_clean_error(self, tmp_path, capsys):
        # once a ValueError traceback; now rejected before any run starts
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out = tmp_path / "sw"
        argv = ["sweep", "--config", str(cfg_path), "--axis", "amplitude", "--values", "0.1,abc"]
        assert main(argv + ["--out-dir", str(out)]) == 1
        assert "'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_values_with_one_run_name_are_a_clean_error(self, tmp_path, capsys):
        # both would run into amplitude_0.3, the second overwriting the first
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out = tmp_path / "sw"
        values = "0.2,0.3000001,0.3000002"
        argv = ["sweep", "--config", str(cfg_path), "--axis", "amplitude", "--values", values]
        assert main(argv + ["--out-dir", str(out)]) == 1
        assert "0.3000001 and 0.3000002 both name amplitude_0.3" in capsys.readouterr().err
        assert not out.exists()

    def simulate_with_checkpoints(self, tmp_path, text=MINIMAL):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text + "\n[emit]\ncheckpoints = true\n")
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", out]) == 0
        return out

    def test_audit_fails_when_no_checkpoint_matches(self, tmp_path):
        out = self.simulate_with_checkpoints(tmp_path)
        # one listed checkpoint now holds a field at a time no row has
        grid = Grid(1, 10.0, 256)
        f = Field(ProblemParams(1, 0.5), grid, np.exp(-grid.radii() ** 2))
        write_checkpoint(os.path.join(out, "checkpoints", "ckpt_000000010.bin"), f, t=0.0123)
        report = virial_audit(out)
        # six listed checkpoints, two radii: the other five still match
        assert (report["checked"], report["unmatched"], report["passed"]) == (10, 2, False)
        assert main(["virial-audit", out]) == 2

    def rerun_into_used_dir(self, tmp_path, second):
        """A run with radii 1 and 2, then a run changed by second (old, new
        pairs) into the same directory; returns it and its manifest."""
        text = MINIMAL.replace("sample_stride = 5", "sample_stride = 2")
        first = self.simulate_with_checkpoints(tmp_path, text.replace("R = 2,4", "R = 1,2"))
        for old, new in second:
            text = text.replace(old, new)
        assert self.simulate_with_checkpoints(tmp_path, text) == first
        with open(os.path.join(first, "manifest.json")) as fh:
            return first, json.load(fh)

    def test_rerun_with_fewer_radii_and_steps_is_audited_alone(self, tmp_path):
        # the first run leaves series_R2.csv and the checkpoints of steps 12-20
        out, man = self.rerun_into_used_dir(
            tmp_path, [("t_max = 0.02", "t_max = 0.01"), ("R = 2,4", "R = 1")]
        )
        ckpts = [name for name in man["files"] if name.endswith(".bin")]
        assert len(ckpts) == 7 and len(os.listdir(os.path.join(out, "checkpoints"))) == 12
        report = virial_audit(out)
        assert (report["checked"], report["unmatched"], report["passed"]) == (7, 0, True)
        assert main(["virial-audit", out]) == 0
        assert main(["plot", out]) == 0
        assert sorted(n for n in os.listdir(out) if n.startswith("zR_")) == ["zR_R1.svg"]

    def test_rerun_on_another_grid_is_audited_alone(self, tmp_path):
        # the first run's checkpoints past step 10 are left on a 256-point grid
        out, _man = self.rerun_into_used_dir(
            tmp_path, [("M = 256", "M = 128"), ("t_max = 0.02", "t_max = 0.01")]
        )
        report = virial_audit(out)
        assert (report["checked"], report["unmatched"], report["passed"]) == (14, 0, True)

    def test_listed_checkpoint_on_another_grid_is_a_clean_error(self, tmp_path, capsys):
        out = self.simulate_with_checkpoints(tmp_path)
        path = os.path.join(out, "checkpoints", "ckpt_000000010.bin")
        f, t = read_checkpoint(path)
        grid = Grid(1, 10.0, 128)
        write_checkpoint(path, Field(f.params, grid, np.exp(-grid.radii() ** 2)), t=t)
        assert main(["virial-audit", out]) == 1
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("factor, code", [(1.0 + 4e-16, 0), (1.0 + 1e-6, 2)])
    def test_audit_reports_a_perturbed_cell(self, tmp_path, capsys, factor, code):
        # once a TypeError traceback whenever an error was nonzero: np.bool_
        # does not serialize
        out = self.simulate_with_checkpoints(tmp_path)
        path = os.path.join(out, "series_R2.csv")
        with open(path) as fh:
            lines = fh.readlines()
        cells = lines[1].split(",")  # the row at t = 0, which a checkpoint holds
        cells[2] = format(float(cells[2]) * factor, ".17g")  # the mass
        lines[1] = ",".join(cells)
        with open(path, "w") as fh:
            fh.writelines(lines)
        assert main(["virial-audit", out]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is (code == 0)
        assert 0.0 < report["max_rel_err"] < (1e-12 if code == 0 else 1e-5)

    def test_audit_of_header_only_csvs_fails_cleanly(self, tmp_path):
        out = self.simulate_with_checkpoints(tmp_path)
        for R in (2, 4):
            path = os.path.join(out, f"series_R{R}.csv")
            with open(path) as fh:
                header = fh.readline()
            with open(path, "w") as fh:
                fh.write(header)
        report = virial_audit(out)
        assert report["checked"] == 0 and report["unmatched"] > 0 and not report["passed"]
        assert main(["virial-audit", out]) == 2

    def test_audit_checks_the_last_step_of_a_roundoff_short_run(self, tmp_path):
        # ten steps of 0.1 end at 0.9999999999999999, off the stride of 3
        text = (
            MINIMAL.replace("dt0 = 1e-3", "dt0 = 0.1")
            .replace("dt_floor = 1e-7", "dt_floor = 1e-3")
            .replace("t_max = 0.02", "t_max = 1.0")
            .replace("sample_stride = 5", "sample_stride = 3")
        )
        out = self.simulate_with_checkpoints(tmp_path, text)
        assert len(os.listdir(os.path.join(out, "checkpoints"))) == 5
        report = virial_audit(out)
        assert (report["checked"], report["unmatched"], report["passed"]) == (2 * 5, 0, True)

    def test_corrupt_checkpoint_is_a_clean_error(self, tmp_path, capsys):
        out = self.simulate_with_checkpoints(tmp_path)
        path = os.path.join(out, "checkpoints", "ckpt_final.bin")
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-3])
        assert main(["virial-audit", out]) == 1
        assert "bytes, expected" in capsys.readouterr().err

    def test_version_1_checkpoint_is_a_clean_error(self, tmp_path, capsys):
        out = self.simulate_with_checkpoints(tmp_path)
        path = os.path.join(out, "checkpoints", "ckpt_final.bin")
        f, _t = read_checkpoint(path)
        # the version-1 layout: no time in the header
        header = struct.pack("<2q2d", 1, f.grid.points_per_axis, f.grid.half_width, f.params.b)
        with open(path, "wb") as fh:
            fh.write(b"INLSLAB\x00CKPT\x00\x00\x01\x00" + header + f.values.astype("<c16").tobytes())
        assert main(["virial-audit", out]) == 1
        assert "bad checkpoint magic" in capsys.readouterr().err

    def test_audit_without_checkpoints_is_a_clean_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", out]) == 0
        assert main(["virial-audit", out]) == 1
        assert "no checkpoints" in capsys.readouterr().err

    MALFORMED = {
        "manifest_files": ("files", [3]),
        "manifest_R": ("cutoff_R", ["2"]),
        "manifest_empty_R": ("cutoff_R", []),
        "manifest_k": ("cutoff_k", True),
    }

    @pytest.mark.parametrize(
        "command, corrupt",
        [
            ("plot", "csv_cell"),
            ("virial-audit", "csv_cell"),
            ("plot", "csv_header"),
            ("virial-audit", "csv_header"),
            ("virial-audit", "manifest"),
            ("virial-audit", "manifest_not_object"),
            ("plot", "manifest_files"),
            ("virial-audit", "manifest_files"),
            ("plot", "manifest_R"),
            ("virial-audit", "manifest_R"),
            ("plot", "manifest_empty_R"),
            ("virial-audit", "manifest_k"),
            ("virial-audit", "nan_checkpoint"),
            ("simulate", "nan_checkpoint"),
        ],
    )
    def test_corrupt_run_file_is_a_clean_error(self, tmp_path, capsys, command, corrupt):
        out = self.simulate_with_checkpoints(tmp_path)
        if corrupt.startswith("csv"):
            path = os.path.join(out, "series_R4.csv")
            with open(path) as fh:
                lines = fh.readlines()
            # the time of the second row, or the name of the time column
            i = 2 if corrupt == "csv_cell" else 0
            lines[i] = "x" + lines[i]
            with open(path, "w") as fh:
                fh.writelines(lines)
        elif corrupt in ("manifest", "manifest_not_object"):
            path = os.path.join(out, "manifest.json")
            with open(path, "w") as fh:
                fh.write('{"cutoff_k": 5,' if corrupt == "manifest" else "5")
        elif corrupt.startswith("manifest"):
            # a key of another shape than simulate writes: once an
            # AttributeError (files [3]) or a ValueError (R "2") traceback
            path = os.path.join(out, "manifest.json")
            with open(path) as fh:
                man = json.load(fh)
            key, value = self.MALFORMED[corrupt]
            man[key] = value
            with open(path, "w") as fh:
                json.dump(man, fh)
        else:
            path = os.path.join(out, "checkpoints", "ckpt_final.bin")
            with open(path, "r+b") as fh:
                fh.seek(-8, os.SEEK_END)
                fh.write(struct.pack("<d", float("nan")))
        argv = [command, out]
        if command == "simulate":
            # a restart from the corrupt checkpoint
            cfg_path = tmp_path / "restart.cfg"
            restart = f"kind = from_checkpoint\ncheckpoint = {path}"
            cfg_path.write_text(MINIMAL.replace("kind = gaussian", restart))
            argv = ["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "restart")]
        assert main(argv) == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "restart").exists()

    @pytest.mark.parametrize("command", ["plot", "virial-audit"])
    def test_unlisted_series_csv_is_a_clean_error(self, tmp_path, capsys, command):
        out = self.simulate_with_checkpoints(tmp_path)
        path = os.path.join(out, "manifest.json")
        with open(path) as fh:
            man = json.load(fh)
        man["files"].remove("series_R4.csv")
        with open(path, "w") as fh:
            json.dump(man, fh)
        assert main([command, out]) == 1
        assert "manifest.json does not list series_R4.csv" in capsys.readouterr().err
        assert not any(n.endswith(".svg") for n in os.listdir(out))

    def test_plot_emits_svg(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out = str(tmp_path / "p")
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", out]) == 0
        assert main(["plot", out]) == 0
        names = os.listdir(out)
        assert "conservation_drift.svg" in names
        assert "gradnorm.svg" in names
        assert any(n.startswith("zR_") for n in names)

    def test_plot_on_empty_dir_fails_cleanly(self, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        assert main(["plot", empty]) == 1
        assert os.listdir(empty) == []

    def test_plot_of_header_only_csvs_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out = str(tmp_path / "p")
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", out]) == 0
        for R in (2, 4):
            path = os.path.join(out, f"series_R{R}.csv")
            with open(path) as fh:
                header = fh.readline()
            with open(path, "w") as fh:
                fh.write(header)
        assert main(["plot", out]) == 1
        assert "no rows to plot" in capsys.readouterr().err
        assert not any(n.endswith(".svg") for n in os.listdir(out))

    def test_virial_audit_round_trip(self, tmp_path):
        text = MINIMAL.replace(
            "sample_stride = 5\n", "sample_stride = 5\ncheckpoint_stride = 1\n"
        )
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text + "\n[emit]\ncheckpoints = true\n")
        out = str(tmp_path / "audit")
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", out]) == 0
        report = virial_audit(out)
        assert report["checked"] > 0
        assert report["passed"]
        assert report["max_rel_err"] <= 1e-12
        assert main(["virial-audit", out]) == 0


    def test_virial_audit_rejects_manifest_without_cutoff(self, tmp_path, capsys):
        # the layout written before the manifest came from the config
        (tmp_path / "manifest.json").write_text(json.dumps({"cutoff": {"k": 5, "R": [2.0]}}))
        assert main(["virial-audit", str(tmp_path)]) == 1
        assert "cutoff_k" in capsys.readouterr().err


class TestToolSubcommands:
    def test_cutoff_verify(self, capsys):
        code = main(["cutoff-verify", "--N", "1", "--b", "0.5", "--samples", "10000"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["phicond_passed"] and report["phivare_passed"]
        assert report["epsilon"] > 0

    @pytest.mark.parametrize("samples", ["0", "9"])
    def test_cutoff_verify_fails_when_a_piece_is_unsampled(self, samples, capsys):
        # too few samples leave only the tail rho in [2, 4], where the
        # conditions hold trivially; that must not be a passing verdict
        code = main(["cutoff-verify", "--N", "1", "--b", "0.5", "--samples", samples])
        assert code == 1
        assert "unsampled" in capsys.readouterr().err

    @pytest.mark.parametrize("R", ["nan", "inf"])
    def test_cutoff_verify_rejects_a_non_finite_R(self, R, capsys):
        # once a ZeroDivisionError traceback
        code = main(["cutoff-verify", "--N", "1", "--b", "0.5", "--R", R, "--samples", "10000"])
        assert code == 1
        assert "R must be positive and finite" in capsys.readouterr().err

    def test_cutoff_verify_rejects_bad_k(self, capsys):
        code = main(["cutoff-verify", "--N", "1", "--b", "0.5", "--k", "4"])
        assert code == 1

    def test_cutoff_verify_out_of_memory_is_a_clean_error(self, capsys, monkeypatch):
        # a --samples too large to allocate; nothing is allocated for real
        def too_large(profile, samples):
            raise MemoryError(f"Unable to allocate for {samples} samples")

        monkeypatch.setattr(cli, "verify_phicond", too_large)
        code = main(["cutoff-verify", "--N", "1", "--b", "0.5", "--samples", "100000000000"])
        assert code == 1
        assert capsys.readouterr().err == "error: Unable to allocate for 100000000000 samples\n"

    def test_interp_check(self, capsys):
        code = main(
            ["interp-check", "--which", "gn", "--N", "1", "--b", "0.5", "--trials", "10"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c_hat"] > 0
        assert "not a proof" in report["note"]

    def test_interp_check_rejects_a_negative_seed(self, capsys):
        # once a ValueError traceback from numpy's default_rng
        code = main(["interp-check", "--which", "gn", "--N", "1", "--b", "0.5", "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"


def test_readme_lists_every_flag_of_every_subcommand():
    # each "### <subcommand>" section of the README names exactly the
    # flags its parser takes
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    sections = dict(re.findall(r"^### (\S+)\n(.*?)(?=^##)", readme, flags=re.M | re.S))
    actions = build_parser()._actions
    (subparsers,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) <= set(sections)
    for name, parser in subparsers.choices.items():
        flags = {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
        listed = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", sections[name]))
        assert listed == flags, name


def test_readme_outcome_table_matches_the_exit_codes():
    # the "### simulate" table lists every outcome with its exit code
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    (section,) = re.findall(r"^### simulate\n(.*?)(?=^##)", readme, flags=re.M | re.S)
    rows = re.findall(r"^\| `(\w+)` \| (\d+) \|", section, flags=re.M)
    assert {outcome: int(code) for outcome, code in rows} == EXIT_CODES
    assert len(rows) == len(EXIT_CODES)
