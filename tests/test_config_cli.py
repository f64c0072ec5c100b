"""Tests for the experiment config and the command-line runner."""

import json
import subprocess
import sys

import pytest

from slitkit import ConfigInvalid, ExperimentConfig


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.kind == "solve"

    def test_yaml_roundtrip(self):
        cfg = ExperimentConfig(kind="rates", geometry="parabola:0.25", n=2,
                               h=2**-5, grading_p=2.0, k=1)
        back = ExperimentConfig.from_yaml(cfg.to_yaml())
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_digest_distinguishes_configs(self):
        a = ExperimentConfig(h=2**-5)
        b = ExperimentConfig(h=2**-6)
        assert a.digest() != b.digest()
        assert len(a.digest()) == 16

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_yaml("kind: solve\nbogus: 1\n")

    def test_removed_fields_rejected(self):
        for field in ("tolerance: 1.0e-8", "seed: 0"):
            with pytest.raises(ConfigInvalid):
                ExperimentConfig.from_yaml(f"kind: solve\n{field}\n")

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(kind="frobnicate")

    def test_bad_schema_version_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(schema_version=99)

    def test_bad_h_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(h=0.5)

    def test_nonmonotone_scales_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(scales=[0.25, 0.5])

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(geometry="circle")


def run_cli(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "slitkit", *args, "--output", str(tmp_path)],
        capture_output=True, text=True, timeout=600)


@pytest.fixture
def no_solve(monkeypatch):
    from slitkit import solver

    def fail(*args, **kwargs):
        raise AssertionError("solve_fd called")

    monkeypatch.setattr(solver, "solve_fd", fail)


class TestCLI:
    def test_freeboundary_run(self, tmp_path):
        proc = run_cli(["freeboundary", "--G", "1.0"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        outdir = tmp_path / "freeboundary"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["passed"]
        assert len(manifest["config_digest"]) == 16
        body = (outdir / "freeboundary.csv").read_text()
        assert "gamma_star" in body

    def test_neumann_run(self, tmp_path):
        proc = run_cli(["neumann", "--k", "1"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        outdir = tmp_path / "neumann"
        assert (outdir / "constant_T.csv").exists()

    def test_whitney_run(self, tmp_path):
        proc = run_cli(["whitney", "--n", "1"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        outdir = tmp_path / "whitney"
        assert (outdir / "moments.csv").exists()

    def test_rates_default_rejected_before_solve(self, tmp_path, no_solve, capsys):
        # at h = 1/64 the 1/8 ball holds 53 sample nodes, fewer than the
        # rate report's 100, so the default config is refused unsolved
        from slitkit import cli

        assert cli.main(["rates", "--output", str(tmp_path)]) == 2
        assert "scales: ball at scale 0.1250 has 53 nodes < 100" in capsys.readouterr().err

    def test_energy_run_needs_no_solve(self, tmp_path, no_solve):
        # the energy is that of U0 sampled on the grid
        from slitkit import cli

        assert cli.main(["energy", "--output", str(tmp_path)]) == 0
        body = (tmp_path / "energy" / "energy.csv").read_text()
        assert body.startswith("quantity,value\nenergy,")

    def test_invalid_config_exit_code(self, tmp_path):
        cfgfile = tmp_path / "bad.yaml"
        cfgfile.write_text("kind: solve\nbogus: 3\n")
        proc = run_cli(["solve", "--config", str(cfgfile)], tmp_path)
        assert proc.returncode == 2

    def test_deterministic_output(self, tmp_path):
        p1 = run_cli(["neumann", "--k", "0"], tmp_path / "a")
        p2 = run_cli(["neumann", "--k", "0"], tmp_path / "b")
        assert p1.returncode == 0 and p2.returncode == 0
        f1 = tmp_path / "a" / "neumann" / "constant_T.csv"
        f2 = tmp_path / "b" / "neumann" / "constant_T.csv"
        assert f1.read_text() == f2.read_text()
