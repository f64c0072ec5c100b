"""Tests for the experiment config and the command-line runner."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy

from slitkit import ConfigInvalid, ExperimentConfig, RateReport


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
                      "residual_limit: 0.3", "series_terms: 128", "split: false",
                      "min_cos: 0.5"):
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

    @pytest.mark.parametrize("args", [
        ["solve", "--config", "missing.yaml"],
        ["solve", "--config", "unclosed.yaml"],
        ["freeboundary", "--bracket=a,b"],
        ["freeboundary", "--bracket=0.5"],
        ["freeboundary", "--bracket=-0.5,1.5"],
        ["freeboundary", "--G", "-1"],
    ])
    def test_malformed_input_is_config_error(self, tmp_path, capsys, args):
        # exit 1 means a failed check: bad input is exit 2, with no traceback
        from slitkit import cli

        (tmp_path / "unclosed.yaml").write_text("scales: [0.5\n")
        args = [str(tmp_path / a) if a.endswith(".yaml") else a for a in args]
        out = tmp_path / "out"
        assert cli.main([*args, "--output", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, text", [
        ("neumann", "k: 1.5\n"),
        ("barrier", "n: 1.0\nh: 0.25\n"),
        ("barrier", "n: true\nh: 0.25\n"),
    ])
    def test_non_integer_n_or_k_is_config_error(self, tmp_path, capsys, kind, text):
        # n and k index dimensions and degrees: a float or a bool is bad
        # input, refused before a run makes its output directory
        from slitkit import cli

        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text(text)
        out = tmp_path / "out"
        assert cli.main([kind, "--config", str(cfgfile), "--output", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", None])
    def test_manifest_records_thread_settings(self, tmp_path, monkeypatch, threads):
        from slitkit import cli

        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert cli.main(["neumann", "--k", "0", "--output", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "neumann" / "manifest.json").read_text())
        assert manifest["threads"] == {v: os.environ.get(v) for v in
                                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
        assert manifest["threads"]["OPENBLAS_NUM_THREADS"] == threads
        assert manifest["cpu_count"] == os.cpu_count()
        assert manifest["scipy_version"] == scipy.__version__
        assert manifest["numpy_version"] == np.__version__

    def test_solve_csv_roundtrip(self, tmp_path):
        from slitkit import cli, flat_geometry, solve_fd

        def phi(x, z):
            return np.sqrt((x + np.hypot(x, z)) / 2.0)

        assert cli.main(["solve", "--n", "1", "--h", "0.03125", "--output", str(tmp_path)]) == 0
        path = tmp_path / "solve" / "solution.csv"
        sol = solve_fd(flat_geometry(1), phi, h=2**-5, split=True)
        with open(path) as fh:
            header = fh.readline().strip()
        dims = "x".join(map(str, sol.dims))
        assert header == f"n=1,h=0.03125,dims={dims},grading=uniform"
        back = np.loadtxt(path, delimiter=",", skiprows=1).reshape(sol.dims)
        assert np.array_equal(back, sol.values)

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


def rate_report_of(errors, **kw):
    return RateReport(scales=np.array([2.0**-j for j in range(1, 6)]),
                      errors=np.asarray(errors), exponent=kw.pop("exponent", 1.0),
                      residual=kw.pop("residual", 0.0), target=kw.pop("target", 1.0), **kw)


def rates_csv(tmp_path, monkeypatch, rep) -> str:
    """rates.csv as the ``rates`` runner writes it for the report ``rep``."""
    from slitkit import cli, expansion

    monkeypatch.setattr(expansion, "rate_report", lambda *args, **kwargs: rep)
    monkeypatch.setattr(cli, "_expand_fit", lambda cfg: (None, None))
    assert cli._rates(ExperimentConfig(kind="rates"), tmp_path) == rep.passed
    return (tmp_path / "rates.csv").read_text()


class TestCSV:
    def test_cells_format_by_type(self, tmp_path):
        from slitkit import cli

        cli._write_csv(tmp_path / "t.csv", "a,b,c,d,e",
                       [("x", 3, np.float64(0.1), np.float32(0.5), float("inf"))])
        assert (tmp_path / "t.csv").read_text() == "a,b,c,d,e\nx,3,0.1,0.5,inf\n"

    def test_rates_csv_roundtrip_fields(self, tmp_path, monkeypatch):
        rep = rate_report_of([0.1, 0.05, 0.025, 0.0125, 0.00625], exponent=1.0)
        txt = rates_csv(tmp_path, monkeypatch, rep)
        assert txt.startswith("scale,sup_error")
        assert "fitted_exponent" in txt
        assert txt.strip().endswith("True")

    def test_rates_csv_values_parse_as_floats(self, tmp_path, monkeypatch):
        # numpy scalars must not leak their repr (np.float64(...)) into the
        # file, and a numpy bool pass flag writes True, not 1.0
        rep = rate_report_of(np.array([0.1, 0.05, 0.025, 0.0125, 0.00625]),
                             exponent=np.float64(1.0), residual=np.float64(0.01))
        assert isinstance(rep.passed, np.bool_)
        txt = rates_csv(tmp_path, monkeypatch, rep)
        assert "np." not in txt
        rows = [line.split(",") for line in txt.splitlines()]
        assert rows[0] == ["scale", "sup_error"] and rows[-2][-1] == "pass"
        assert rows[-1][-1] == "True"
        cells = [c for row in rows[1:-2] for c in row] + rows[-1][:3]
        assert len(cells) == 13
        for c in cells:
            float(c)
