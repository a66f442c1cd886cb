"""Config parsing, orchestration subcommands, and emitted artifacts."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inlslab.cli import (
    CONFIG_KEYS,
    ConfigError,
    main,
    parse_config,
    virial_audit,
)
from inlslab.core import Field, Grid, InitialData, ProblemParams, write_checkpoint
from inlslab.solver import SolverConfig

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
    lists = st.lists(st.floats(lo, hi), min_size=1, max_size=3)
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
        "safety": _floats(0.1, 1.0),
        "c_cfl": _floats(0.01, 1.0),
        "gradnorm_ceiling": _floats(1.0, 1e9),
        "supnorm_ceiling": _floats(1.0, 1e9),
        "sample_stride": st.integers(1, 50).map(str),
        "checkpoint_stride": st.integers(0, 5).map(str),
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

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        outs, manifests = [], []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["simulate", "--config", cfg_path, "--out-dir", out]) == 0
            with open(os.path.join(out, "series_R2.csv"), "rb") as fh:
                outs.append(fh.read())
            with open(os.path.join(out, "manifest.json"), "rb") as fh:
                manifests.append(fh.read())
        assert outs[0] == outs[1]
        assert manifests[0] == manifests[1]
        man = json.loads(manifests[0])
        for key in ("amplitude2", "width2", "center2", "checkpoint_path"):
            assert key in man["init"]
        for key in ("supnorm_ceiling", "checkpoint_stride"):
            assert key in man["solver"]

    def test_detection_exit_code(self, tmp_path):
        text = MINIMAL.replace(
            "sample_stride = 5\n", "sample_stride = 5\ngradnorm_ceiling = 1e-12\n"
        )
        cfg_path = self.write_cfg(tmp_path, text)
        code = main(["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "o")])
        assert code == 10

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path, MINIMAL.replace("b = 0.5", "b = 2.5"))
        assert main(["simulate", "--config", cfg_path]) == 1

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
        code, _out, lines = self.sweep_b(tmp_path, "2.5,0.5")
        assert code == 1
        assert lines[1] == "2.5,error,nan,nan,nan"
        assert lines[2].startswith("0.5,reached_t_max,")
        assert "b=2.5" in capsys.readouterr().err

    def simulate_with_checkpoints(self, tmp_path, text=MINIMAL):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text + "\n[emit]\ncheckpoints = true\n")
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", out]) == 0
        return out

    def test_audit_fails_when_no_checkpoint_matches(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", out]) == 0
        # the only checkpoint is at a time no row has
        os.makedirs(os.path.join(out, "checkpoints"))
        grid = Grid(1, 10.0, 256)
        f = Field(ProblemParams(1, 0.5), grid, np.exp(-grid.radii() ** 2))
        write_checkpoint(os.path.join(out, "checkpoints", "ckpt_x.bin"), f, t=0.0123)
        report = virial_audit(out)
        assert (report["checked"], report["unmatched"], report["passed"]) == (0, 2, False)
        assert main(["virial-audit", out]) == 2

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
        assert len(os.listdir(os.path.join(out, "checkpoints"))) == 2 * 5
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

    def test_checkpoint_without_sidecar_is_a_clean_error(self, tmp_path, capsys):
        out = self.simulate_with_checkpoints(tmp_path)
        os.remove(os.path.join(out, "checkpoints", "ckpt_final.bin.json"))
        assert main(["virial-audit", out]) == 1
        assert "ckpt_final.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", ["{not json", "[1, 2]"])
    def test_corrupt_checkpoint_sidecar_is_a_clean_error(self, tmp_path, capsys, sidecar):
        out = self.simulate_with_checkpoints(tmp_path)
        with open(os.path.join(out, "checkpoints", "ckpt_final.bin.json"), "w") as fh:
            fh.write(sidecar)
        assert main(["virial-audit", out]) == 1
        assert "ckpt_final.bin.json" in capsys.readouterr().err

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

    def test_cutoff_verify_rejects_bad_k(self, capsys):
        code = main(["cutoff-verify", "--N", "1", "--b", "0.5", "--k", "4"])
        assert code == 1

    def test_interp_check(self, capsys):
        code = main(
            ["interp-check", "--which", "gn", "--N", "1", "--b", "0.5", "--trials", "10",
             "--M", "256"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c_hat"] > 0
        assert "not a proof" in report["note"]
