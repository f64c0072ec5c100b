"""Command-line experiment runner.

Every subcommand loads an ExperimentConfig (YAML file plus flag
overrides), runs one experiment, writes CSV reports and a JSON manifest
into the output directory, and exits nonzero iff its library check
failed (``rates``: the report's ``pass`` column; ``freeboundary``: the
root's series passing its truncation rule).  ``energy`` refuses any
config but flat n = 1, the only one its reference value holds for.
Boundary data is U0 of the configured edge, or cos(theta/2) for
``freeboundary``.  CSV output is deterministic for a fixed config; the
manifest carries the config hash, package versions, and wall time.  A
run that raises removes the output directories it made while they are
still empty, so a refusal inside a runner leaves nothing behind.

Output root: --output, else $SLITKIT_OUTPUT_ROOT, else ./slitkit_out.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigInvalid, SlitkitError


def _geometry(cfg: ExperimentConfig):
    from .geometry import flat_geometry, parabola_geometry

    if cfg.geometry == "flat":
        return flat_geometry(cfg.n)
    return parabola_geometry(Fraction(cfg.geometry.split(":", 1)[1]))


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(str(c) if isinstance(c, (str, int)) else _fmt(c)
                                 for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _grading(cfg: ExperimentConfig):
    return {"type": "power", "p": cfg.grading_p} if cfg.grading_p else None


def _solve_fd(cfg):
    """solve_fd with U0 of the configured edge as boundary data."""
    from .solver import solve_fd

    geom = _geometry(cfg)

    def phi(*X):
        d = X[-2] - geom.g(X[0])
        return np.sqrt((d + np.hypot(d, X[-1])) / 2.0)

    return solve_fd(geom, phi, h=cfg.h, grading=_grading(cfg), split=cfg.split)


def _solve(cfg, outdir):
    sol = _solve_fd(cfg)
    sol.save_csv(outdir / "solution.csv")
    fr = sol.node_frames()
    _write_csv(outdir / "summary.csv", "stat,value", [
        ("nodes", sol.values.size),
        ("max", float(sol.values.max())),
        ("min", float(sol.values.min())),
        ("sup_over_u0", float(np.nanmax(np.abs(sol.values.ravel())
                                        / np.maximum(fr["u0"], 1e-12)))),
    ])
    return True


def _expand_fit(cfg):
    from .expansion import fit_tangent

    sol = _solve_fd(cfg)
    P0 = fit_tangent(sol, Z=np.zeros(sol.n), degree=cfg.k + 1, rmax=0.25)
    return sol, P0


def _expand(cfg, outdir):
    _, P0 = _expand_fit(cfg)
    rows = [("+".join(f"x{i+1}^{e}" for i, e in enumerate(mu) if e) or "1", m, _fmt(v))
            for (mu, m), v in P0.items()]
    _write_csv(outdir / "tangent.csv", "x_part,r_power,coefficient", rows)
    return True


def _rates(cfg, outdir):
    from .errors import InsufficientResolution
    from .expansion import rate_report
    from .solver import empty_solution
    from .xrpoly import XRPolynomial

    geom = _geometry(cfg)

    def report(sol, P0):
        return rate_report(sol, P0, np.zeros(geom.n), cfg.scales, target=cfg.target,
                           mode="ball", min_cos=cfg.min_cos)

    # the report's node guard reads only the grid: scales too fine for h
    # are a config error, found on the unsolved grid
    try:
        report(empty_solution(geom, cfg.h, _grading(cfg)), XRPolynomial.zero(geom.n))
    except InsufficientResolution as exc:
        raise ConfigInvalid("scales", f"{exc} at h = {cfg.h!r}") from exc
    rep = report(*_expand_fit(cfg))
    (outdir / "rates.csv").write_text(rep.to_csv())
    return rep.passed


def _whitney(cfg, outdir):
    from .geometry import parabola_geometry
    from .whitney import YPolynomial, build_mollifier, verify_jet_match

    mol = build_mollifier(cfg.n, cfg.k)
    moments = mol.moments(cfg.k + 2)
    _write_csv(outdir / "moments.csv", "multi_index,moment",
               [("|".join(map(str, mu)), _fmt(v)) for mu, v in sorted(moments.items())])
    bad = max(abs(v) for mu, v in moments.items() if sum(mu) > 0)
    mass_err = abs(moments[tuple([0] * mol.n)] - 1.0)
    ok = bad <= 1e-12 and mass_err <= 1e-12
    if cfg.n == 2:
        geo = _geometry(cfg) if cfg.geometry != "flat" else parabola_geometry(0.25)
        rows = verify_jet_match(mol, YPolynomial(2, {(2, 0): 1.0}), geo,
                                Z=np.zeros(2), orders=(0, 1))
        _write_csv(outdir / "jet_defects.csv", "order,defect,approach_rate",
                   [(r["order"], _fmt(r["defects"][-1]), _fmt(r["approach_rate"]))
                    for r in rows])
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
                      bracket=tuple(cfg.bracket), series_terms=cfg.series_terms)
    res = solve_free_boundary(prob)
    _write_csv(outdir / "freeboundary.csv", "quantity,value", [
        ("gamma_star", _fmt(res.gamma)),
        ("a", _fmt(res.a)),
        ("residual", _fmt(res.residual)),
    ])
    _write_csv(outdir / "tip_series.csv", "order,coefficient",
               [(_fmt(q), _fmt(c)) for q, c in
                zip(res.series.orders, res.series.coefficients)])
    # the solver only returns roots with residual below 1e-9, so the
    # check is the root's own series passing its truncation rule
    return res.series.resolved


def _barrier(cfg, outdir):
    from .solver import check_barrier

    geom = _geometry(cfg)
    b1 = check_barrier(geom, h=cfg.h)
    b2 = check_barrier(geom, h=cfg.h / 2)
    _write_csv(outdir / "barrier.csv", "h,min_r_laplacian",
               [(_fmt(cfg.h), _fmt(b1)), (_fmt(cfg.h / 2), _fmt(b2))])
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
        ("energy", _fmt(e)), ("reference", _fmt(np.pi)),
        ("relative_error", _fmt(abs(e - np.pi) / np.pi)),
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
        "wall_time_s": round(time.time() - t0, 3),
        "passed": bool(ok),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return 0 if ok else 1


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
        p.add_argument("--bracket", type=str, default=None, help="lo,hi")
        p.add_argument("--output", type=str, default=None)
    args = parser.parse_args(argv)

    try:
        if args.config:
            cfg = ExperimentConfig.from_yaml(Path(args.config).read_text())
            cfg.kind = args.kind
        else:
            cfg = ExperimentConfig(kind=args.kind)
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("kind", "config", "output", "bracket") and v is not None}
        if args.bracket:
            overrides["bracket"] = [float(s) for s in args.bracket.split(",")]
        if args.output:
            overrides["output_dir"] = args.output
        if overrides:
            cfg = ExperimentConfig(**{**cfg.__dict__, **overrides, "kind": args.kind})
        return run(cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SlitkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
