"""Tests for the experiment config and the command-line runner."""

import json
import subprocess
import sys
import warnings

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
        for field in ("tolerance: 1.0e-8", "seed: 0", "phi: cos-half", "min_exponent: 1.3",
                      "residual_limit: 0.3", "series_terms: 128"):
            name = field.split(":")[0]
            with pytest.raises(ConfigInvalid, match=rf"unknown fields: \['{name}'\]"):
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
        for geometry, n in [("circle", 1), (3, 1), ("parabola:", 2), ("parabola:abc", 2),
                            ("parabola:nan", 2), ("parabola:inf", 2), ("parabola:0.25", 1)]:
            with pytest.raises(ConfigInvalid, match="geometry"):
                ExperimentConfig(geometry=geometry, n=n)

    def test_exact_parabola_accepted(self):
        assert ExperimentConfig(geometry="parabola:1/4", n=2).geometry == "parabola:1/4"


def run_cli(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "slitkit", *args, "--output", str(tmp_path)],
        capture_output=True, text=True, timeout=600)


def main_with_warnings(args):
    """``cli.main``'s exit code and the category of every warning it raised."""
    from slitkit import cli

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(args)
    return rc, [w.category for w in caught]


@pytest.fixture
def no_solve(monkeypatch):
    from slitkit import solver

    def fail(*args, **kwargs):
        raise AssertionError("solve_fd called")

    monkeypatch.setattr(solver, "solve_fd", fail)


class TestCLI:
    def test_freeboundary_run(self, tmp_path):
        assert main_with_warnings(["freeboundary", "--G", "1.0",
                                   "--output", str(tmp_path)]) == (0, [])
        outdir = tmp_path / "freeboundary"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["passed"]
        assert len(manifest["config_digest"]) == 16
        body = (outdir / "freeboundary.csv").read_text()
        assert "gamma_star" in body

    def test_freeboundary_exit_code_is_series_truncation(self, tmp_path):
        # the root's series takes 128 terms at gamma* = 0.85029 and passes;
        # at gamma* = 0.98002 even 256 terms fail, and only that series warns
        from slitkit import TruncationWarning

        def gamma_star(out):
            rows = (out / "freeboundary" / "freeboundary.csv").read_text().splitlines()
            return float(rows[1].split(",")[1])

        assert main_with_warnings(["freeboundary", "--G", "2.4", "--output",
                                   str(tmp_path / "2.4")]) == (0, [])
        assert main_with_warnings(["freeboundary", "--G", "6.4", "--bracket=-0.99,0.99",
                                   "--output", str(tmp_path / "6.4")]) == (1, [TruncationWarning])
        assert abs(gamma_star(tmp_path / "2.4") - 0.85029) < 1e-5
        assert abs(gamma_star(tmp_path / "6.4") - 0.98002) < 1e-5

    def test_neumann_run(self, tmp_path):
        from slitkit import cli

        assert cli.main(["neumann", "--k", "1", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "neumann" / "constant_T.csv").exists()

    def test_whitney_run(self, tmp_path):
        from slitkit import cli

        assert cli.main(["whitney", "--n", "1", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "whitney" / "moments.csv").exists()

    def test_whitney_second_order_on_parabola_passes(self, tmp_path):
        # the k = 2 jet match: its defects fall at rate >= 3 once the
        # extension's rule is the one its moment conditions were solved on
        from slitkit import cli

        args = ["whitney", "--n", "2", "--k", "2", "--geometry", "parabola:0.25"]
        assert cli.main([*args, "--output", str(tmp_path)]) == 0

    def test_rates_default_rejected_before_solve(self, tmp_path, no_solve, capsys):
        # at h = 1/64 the 1/8 ball holds 53 sample nodes, fewer than the
        # rate report's 100, so the default config is refused unsolved;
        # the output directories the run made are removed again
        from slitkit import cli

        assert cli.main(["rates", "--output", str(tmp_path / "out")]) == 2
        assert "scales: ball at scale 0.1250 has 53 nodes < 100" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_rates_short_scales_rejected_before_solve(self, tmp_path, no_solve, capsys):
        # the rate report's own minimum is 4 scales
        from slitkit import cli

        cfgfile = tmp_path / "short.yaml"
        cfgfile.write_text("scales: [0.5, 0.35, 0.25]\n")
        out = tmp_path / "out"
        assert cli.main(["rates", "--config", str(cfgfile), "--output", str(out)]) == 2
        assert "config error: scales" in capsys.readouterr().err
        assert not out.exists()

    def test_rates_exit_code_is_report_pass_flag(self, tmp_path):
        # a target of 0.1 moves the report's pass rule; the exit code
        # follows the pass column that rates.csv writes
        from slitkit import cli

        cfgfile = tmp_path / "rates.yaml"
        cfgfile.write_text("scales: [0.5, 0.35, 0.25, 0.18]\ntarget: 0.1\n")
        rc = cli.main(["rates", "--config", str(cfgfile), "--h", repr(2**-7),
                       "--output", str(tmp_path)])
        passed = (tmp_path / "rates" / "rates.csv").read_text().splitlines()[-1].split(",")[-1]
        assert passed == "True"
        assert rc == 0

    def test_energy_run_needs_no_solve(self, tmp_path, no_solve):
        # the energy is that of U0 sampled on the grid
        from slitkit import cli

        assert cli.main(["energy", "--output", str(tmp_path)]) == 0
        body = (tmp_path / "energy" / "energy.csv").read_text()
        assert body.startswith("quantity,value\nenergy,")

    @pytest.mark.parametrize("args", [["--n", "2"], ["--geometry", "parabola:0.25", "--n", "2"]])
    def test_energy_refuses_other_slits(self, tmp_path, capsys, args):
        # its reference value pi is the energy of U0 on the flat n = 1 slit
        from slitkit import cli

        assert cli.main(["energy", *args, "--output", str(tmp_path)]) == 2
        assert "config error: geometry" in capsys.readouterr().err
        assert not (tmp_path / "energy" / "energy.csv").exists()
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["solve", "--geometry", "parabola:abc", "--n", "2"],
        ["solve", "--geometry", "parabola:nan", "--n", "2"],
        ["barrier", "--geometry", "parabola:0.25", "--n", "1"],
    ])
    def test_bad_geometry_refused_before_solve(self, tmp_path, no_solve, capsys, args):
        from slitkit import cli

        assert cli.main([*args, "--output", str(tmp_path)]) == 2
        assert "config error: geometry" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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
