"""Command-line experiment runner.

Every subcommand builds one ExperimentConfig (YAML file, then flags by
name), runs one experiment and writes CSV reports and a JSON manifest
into the output directory.  Exit 0 on pass, 1 on a failed library check
(``rates``: the report's ``pass`` column; ``freeboundary``: the root's
series passing its truncation rule), 2 on bad input, 3 on a runtime
error; ``energy`` refuses any config but flat n = 1.  Boundary data is U0
of the configured edge, or cos(theta/2) for ``freeboundary``.  CSV output is
deterministic for a fixed config and BLAS thread count; the manifest
carries the config and its hash, package, NumPy and SciPy versions, CPU
count, BLAS thread variables and wall time.  A refused run removes the
output directories it made while they are still empty.

Output root: --output, else $SLITKIT_OUTPUT_ROOT, else ./slitkit_out.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigInvalid, InsufficientResolution, SlitkitError


def _write_csv(path: Path, header: str, rows) -> None:
    """str and int cells as ``str``, others as ``repr(float(c))``: no NumPy reprs."""
    lines = [header] + [",".join(str(c) if isinstance(c, (str, int)) else repr(float(c))
                                 for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _grading(cfg: ExperimentConfig):
    return {"type": "power", "p": cfg.grading_p} if cfg.grading_p else None


def _solve_fd(cfg):
    """solve_fd with U0 of the configured edge as boundary data."""
    from .solver import solve_fd

    geom = cfg.slit_geometry()

    def phi(*X):
        d = X[-2] - geom.g(X[0])
        return np.sqrt((d + np.hypot(d, X[-1])) / 2.0)

    return solve_fd(geom, phi, h=cfg.h, grading=_grading(cfg), split=True)


def _solve(cfg, outdir):
    sol = _solve_fd(cfg)
    grading = f"power:{cfg.grading_p}" if cfg.grading_p else "uniform"
    with open(outdir / "solution.csv", "w") as fh:
        fh.write(f"n={cfg.n},h={cfg.h!r},dims={'x'.join(map(str, sol.dims))},grading={grading}\n")
        np.savetxt(fh, sol.values.reshape(-1, sol.dims[-1]), delimiter=",", fmt="%.17g")
    fr = sol.node_frames()
    _write_csv(outdir / "summary.csv", "stat,value", [
        ("nodes", sol.values.size), ("max", sol.values.max()), ("min", sol.values.min()),
        ("sup_over_u0", np.nanmax(np.abs(sol.values.ravel()) / np.maximum(fr["u0"], 1e-12))),
    ])
    return True


def _expand_fit(cfg):
    from .expansion import fit_tangent

    sol = _solve_fd(cfg)
    P0 = fit_tangent(sol, Z=np.zeros(sol.n), degree=cfg.k + 1, rmax=0.25)
    return sol, P0


def _expand(cfg, outdir):
    _, P0 = _expand_fit(cfg)
    rows = [("+".join(f"x{i+1}^{e}" for i, e in enumerate(mu) if e) or "1", m, v)
            for (mu, m), v in P0.items()]
    _write_csv(outdir / "tangent.csv", "x_part,r_power,coefficient", rows)
    return True


def _rates(cfg, outdir):
    from .expansion import rate_report
    from .solver import empty_solution
    from .xrpoly import XRPolynomial

    geom = cfg.slit_geometry()

    def report(sol, P0):
        return rate_report(sol, P0, np.zeros(geom.n), cfg.scales, target=cfg.target,
                           mode="ball", min_cos=0.5)

    # the report's node guard reads only the grid: scales too fine for h
    # are a config error, found on the unsolved grid
    try:
        report(empty_solution(geom, cfg.h, _grading(cfg)), XRPolynomial.zero(geom.n))
    except InsufficientResolution as exc:
        raise ConfigInvalid("scales", f"{exc} at h = {cfg.h!r}") from exc
    rep = report(*_expand_fit(cfg))
    _write_csv(outdir / "rates.csv", "scale,sup_error", [
        *zip(rep.scales, rep.errors),
        ("fitted_exponent", "target", "residual", "pass"),
        # a YAML integer target still writes as a float; pass as True/False
        (rep.exponent, float(rep.target), rep.residual, str(rep.passed)),
    ])
    return rep.passed


def _whitney(cfg, outdir):
    from .geometry import parabola_geometry
    from .whitney import YPolynomial, build_mollifier, verify_jet_match

    mol = build_mollifier(cfg.n, cfg.k)
    moments = mol.moments(cfg.k + 2)
    _write_csv(outdir / "moments.csv", "multi_index,moment",
               [("|".join(map(str, mu)), v) for mu, v in sorted(moments.items())])
    bad = max(abs(v) for mu, v in moments.items() if sum(mu) > 0)
    mass_err = abs(moments[tuple([0] * mol.n)] - 1.0)
    ok = bad <= 1e-12 and mass_err <= 1e-12
    if cfg.n == 2:
        geo = cfg.slit_geometry() if cfg.geometry != "flat" else parabola_geometry(0.25)
        rows = verify_jet_match(mol, YPolynomial(2, {(2, 0): 1.0}), geo,
                                Z=np.zeros(2), orders=(0, 1))
        _write_csv(outdir / "jet_defects.csv", "order,defect,approach_rate",
                   [(r["order"], r["defects"][-1], r["approach_rate"]) for r in rows])
        ok = ok and all(r["approach_rate"] >= cfg.k + 1 for r in rows)
    return ok


def _neumann(cfg, outdir):
    from .geometry import flat_jet
    from .neumann import constant_T, t_nu_on_edge, weighted_laplacian_bracket
    from .xrpoly import XRPolynomial

    n = max(cfg.n, 2)
    q_index = tuple([2] + [0] * (n - 1))
    T = constant_T(n, cfg.k, q={q_index: 1})
    rows = [("|".join(map(str, mu)), m, str(v)) for (mu, m), v in T.items()]
    _write_csv(outdir / "constant_T.csv", "multi_index,r_power,coefficient", rows)
    resid = weighted_laplacian_bracket(T, flat_jet(n))
    tnu = t_nu_on_edge(T)
    neg = t_nu_on_edge(XRPolynomial.monomial(n, (0,) * n, 1))
    _write_csv(outdir / "checks.csv", "check,value", [
        ("bracket_residual_terms", len(list(resid.items()))),
        ("edge_normal_trace_terms", len(list(tnu.items()))),
        ("negative_control_trace", str(neg.coeff((0,) * n, 0))),
    ])
    return resid.is_zero() and tnu.is_zero() and neg.coeff((0,) * n, 0) == 1


def _freeboundary(cfg, outdir):
    from .freeboundary import TipProblem, solve_free_boundary

    prob = TipProblem(phi=lambda th: np.cos(th / 2.0),
                      G=lambda g: cfg.G * np.ones_like(np.asarray(g, dtype=float)),
                      bracket=tuple(cfg.bracket))
    res = solve_free_boundary(prob)
    _write_csv(outdir / "freeboundary.csv", "quantity,value",
               [("gamma_star", res.gamma), ("a", res.a), ("residual", res.residual)])
    _write_csv(outdir / "tip_series.csv", "order,coefficient",
               zip(res.series.orders, res.series.coefficients))
    # the solver only returns roots with residual below 1e-9, so the
    # check is the root's own series passing its truncation rule
    return res.series.resolved


def _barrier(cfg, outdir):
    from .solver import check_barrier

    geom = cfg.slit_geometry()
    b1 = check_barrier(geom, h=cfg.h)
    b2 = check_barrier(geom, h=cfg.h / 2)
    _write_csv(outdir / "barrier.csv", "h,min_r_laplacian", [(cfg.h, b1), (cfg.h / 2, b2)])
    return b1 > 0 and b2 > 0 and abs(b2 - b1) <= 0.1 * abs(b1)


def _energy(cfg, outdir):
    from .geometry import flat_geometry
    from .solver import compute_energy, empty_solution

    # the reference pi is the energy of U0 on the flat n = 1 slit only
    if cfg.geometry != "flat" or cfg.n != 1:
        raise ConfigInvalid("geometry", f"energy runs on flat n = 1 only, got "
                                        f"{cfg.geometry} n = {cfg.n}")
    # the energy of U0 itself, sampled on the flat grid: no solve
    sol = empty_solution(flat_geometry(1), cfg.h)
    sol.values = sol.node_frames()["u0"].reshape(sol.dims)
    e = compute_energy(sol)
    _write_csv(outdir / "energy.csv", "quantity,value", [
        ("energy", e), ("reference", np.pi), ("relative_error", abs(e - np.pi) / np.pi),
    ])
    return abs(e - np.pi) / np.pi <= 0.01


_RUNNERS = {
    "solve": _solve, "expand": _expand, "rates": _rates, "whitney": _whitney,
    "neumann": _neumann, "freeboundary": _freeboundary, "barrier": _barrier,
    "energy": _energy,
}


def run(cfg: ExperimentConfig) -> int:
    root = cfg.output_dir or os.environ.get("SLITKIT_OUTPUT_ROOT", "slitkit_out")
    outdir = Path(root) / cfg.kind
    created = [p for p in (outdir, *outdir.parents) if not p.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    try:
        ok = _RUNNERS[cfg.kind](cfg, outdir)
    except BaseException:
        # a refused run leaves nothing: remove the directories this call
        # made, deepest first, while they are empty (rmdir only)
        for p in created:
            try:
                p.rmdir()
            except OSError:
                break
        raise
    manifest = {
        "config_digest": cfg.digest(),
        "config": json.loads(json.dumps(cfg.__dict__, default=float)),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "wall_time_s": round(time.time() - t0, 3),
        "passed": bool(ok),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return 0 if ok else 1


def _floats(text: str) -> list:
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise ConfigInvalid("bracket", f"not a list of numbers: {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="slitkit",
                                     description="slit-domain expansion toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _RUNNERS:
        p = sub.add_parser(kind)
        p.add_argument("--config", type=str, default=None, help="YAML config file")
        p.add_argument("--geometry", type=str, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--h", type=float, default=None)
        p.add_argument("--grading-p", dest="grading_p", type=float, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--G", type=float, default=None)
        p.add_argument("--bracket", type=_floats, default=None, help="lo,hi")
        p.add_argument("--output", dest="output_dir", type=str, default=None)
    try:
        # --bracket's type raises ConfigInvalid, which argparse lets through
        flags = {k: v for k, v in vars(parser.parse_args(argv)).items() if v is not None}
        config = flags.pop("config", None)
        try:
            text = Path(config).read_text() if config else ""
        except OSError as exc:
            raise ConfigInvalid("config", str(exc)) from exc
        return run(dataclasses.replace(ExperimentConfig.from_yaml(text), **flags))
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SlitkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
