"""Config parsing, orchestration subcommands, and emitted artifacts."""

import json
import os

import pytest

from inlslab.cli import ConfigError, load_config, main, parse_config, simulate, sweep, virial_audit

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


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.params.ndim == 1
        assert cfg.cutoff_k == 5  # default rule for N=1, b=0.5
        assert cfg.cutoff_R == (2.0, 4.0)
        assert cfg.emit_csv is True

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
