"""The benchmark's workloads: inputs drawn from the seed, tasks, output checks.

Each workload is a closed loop: one client runs its task list back to
back, single-threaded. Every task ends in at least one check; a task
fails when a check fails or it raises (``SlitkitError`` or a crash).
Only checks that hold at these sizes are gated. Other numbers are reported (printed, or as
``oracle_err_max`` / ``rate_exponent_min``), not gated.

Why these workloads (sizes are set so that three passes of each fit in
one run; a pass is 8-10 s on a 2-core 2.1 GHz VM):

grid3d
    The acceptance pipeline of criteria 3, 4 and 8 at a size that
    repeats: a curved parabola split solve at h = 1/32 with power-2
    grading, then the tangent fit, the rate report, the gradient rate
    checks and the quotient rate. Then the flat 3-D oracle ladder
    (h = 1/16, 1/24, 1/32, graded), which crosses from splu (1/16) to
    Jacobi-preconditioned CG (1/24, 1/32). CG dominates the wall, so
    solver's linear solve is the layer to watch. The ladder's h = 1/16
    rung is kept although it looks wrong: with ``split=True`` its sup
    error is about 0.55 against 0.05 unsplit, and split is still worse
    than unsplit at 1/24. ``oracle_err_max`` shows this defect instead
    of hiding it. The h = 1/48 solve (about 21 s alone) does not fit
    three times in a run.
exact
    The sympy series and the rational sweeps; no grid solver runs.
    ``gamma_jet`` at order 3 and ``foot_jet`` at order 4 on the cubic
    edge g = a t^2 + b t^3 with b never zero, so the jet's cost does not
    swing by seed (order 4 takes about 12 s and does not fit three times
    in a run); ``solve_approximating`` at k = 3 and 4; the pair systems
    at k = 1, 2 and ``constant_T``; formal gradients and Hessians. The
    fixed unit parabola behind the k = 1 corrector shift also gives the
    workload's float oracle: its order-5 distance jet against the Newton
    closest-point frame, whose error and decay exponent are
    ``oracle_err_max`` and ``rate_exponent_min`` here.
planar
    ``solver`` used differently from grid3d: many small direct
    factorizations and spsolves, no CG. The flat 2-D ladder (2^-5..2^-8,
    all splu; its observed order is ``rate_exponent_min``), the disc
    oracle at 2^-8 (mostly Python-loop assembly), the free boundary,
    Whitney extension, barrier, energy and six CLI kinds run
    in-process. It is the only workload that covers ``cli``, ``whitney``
    and ``freeboundary``. It stops at 2^-8 because 2^-9 crosses the
    150k-unknown threshold into Jacobi-CG.
"""

from __future__ import annotations

import random
import shutil
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np
import sympy as sp

from slitkit import cli, expansion, freeboundary, geometry, neumann, solver, whitney, xrpoly
from slitkit.errors import SlitkitError
from slitkit.whitney import YPolynomial
from slitkit.xrpoly import XRPolynomial

GRADED = {"type": "power", "p": 2.0}
SCALES = [2.0**-j for j in range(1, 6)]
T_SYM = sp.Symbol("t")

# every binding the traced run must see called, per workload
MUST_CALL = {
    "grid3d": [
        "slitkit.solver.solve_fd", "slitkit.solver.frame_fields",
        "slitkit.solver.spla.cg", "slitkit.solver.spla.splu",
        "slitkit.expansion.fit_tangent", "slitkit.expansion.rate_report",
        "slitkit.expansion.derivative_rate_checks", "slitkit.expansion.formal_gradient",
        "slitkit.geometry.gamma_jet", "slitkit.geometry.parabola_geometry",
        "slitkit.neumann.quotient", "slitkit.neumann.fit_quotient_expansion",
        "slitkit.neumann.neumann_rate",
    ],
    "exact": [
        "slitkit.geometry.gamma_jet", "slitkit.geometry.foot_jet",
        "slitkit.geometry.frame_fields", "slitkit.geometry.parabola_geometry",
        "slitkit.xrpoly.solve_approximating", "slitkit.xrpoly.laplacian_of_product",
        "slitkit.neumann.solve_pair_systems", "slitkit.neumann.weighted_laplacian_bracket",
        "slitkit.neumann.constant_T", "slitkit.neumann.t_nu_on_edge",
        "slitkit.expansion.formal_gradient", "slitkit.expansion.formal_hessian",
    ],
    "planar": [
        "slitkit.solver.solve_fd", "slitkit.solver.frame_fields",
        "slitkit.solver.spla.splu", "slitkit.solver.spla.spsolve",
        "slitkit.solver.solve_disc_2d", "slitkit.solver.check_barrier",
        "slitkit.solver.compute_energy", "slitkit.freeboundary.solve_series_2d",
        "slitkit.freeboundary.tip_coefficient", "slitkit.freeboundary.solve_free_boundary",
        "slitkit.whitney.build_mollifier", "slitkit.whitney.whitney_extend",
        "slitkit.whitney.verify_jet_match", "slitkit.whitney.frame_fields",
        "slitkit.cli.main",
    ],
}


class Recorder:
    """Task outcomes and the reported (ungated) numbers of one pass."""

    def __init__(self, tracer=None):
        self.tasks: list[dict] = []
        self.oracle_err: dict[str, float] = {}
        self.rates: dict[str, float] = {}
        self.notes: list[str] = []
        self.tracer = tracer
        self._checks: list = []

    def check(self, ok, detail: str) -> None:
        self._checks.append((bool(ok), detail))

    def run(self, name: str, fn, *args) -> None:
        self._checks = []
        t0 = time.perf_counter()
        try:
            fn(self, *args)
        except SlitkitError as exc:
            self.check(False, f"raised {type(exc).__name__}: {exc}")
        except Exception as exc:        # a defect, not a refusal: fail loudly but finish
            traceback.print_exc()
            self.check(False, f"crashed with {type(exc).__name__}: {exc}")
        if not self._checks:
            raise RuntimeError(f"task {name} ran no check")
        self.tasks.append({"task": name, "ok": all(ok for ok, _ in self._checks),
                           "s": time.perf_counter() - t0, "checks": self._checks})

    def count(self, key: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.add(key, value)


def _loglog_slope(scales, errors) -> float:
    A = np.vstack([np.log(scales), np.ones(len(scales))]).T
    return float(np.linalg.lstsq(A, np.log(errors), rcond=None)[0][0])


def _u0(d, z):
    return np.sqrt((d + np.hypot(d, z)) / 2.0)


def _flat_sup_error(sol) -> float:
    """sup |u - U0| over |X| <= 0.5 (criterion 2's oracle)."""
    fr = sol.node_frames()
    grids = np.meshgrid(*sol.axes, indexing="ij")
    dist = np.sqrt(sum(g**2 for g in grids)).ravel()
    return float(np.abs(sol.values.ravel() - fr["u0"])[dist <= 0.5].max())


def _flat_ladder(rec: Recorder, n: int, hs, grading, label: str, report_rate: bool) -> None:
    phi = (lambda x, z: _u0(x, z)) if n == 1 else (lambda x1, x2, z: _u0(x2, z))
    errs = []
    for h in hs:
        sol = solver.solve_fd(geometry.flat_geometry(n), phi, h=h, split=True, grading=grading)
        errs.append(_flat_sup_error(sol))
        rec.oracle_err[f"{label} h={h:.5g}"] = errs[-1]
    order = _loglog_slope(hs, errs)
    if report_rate:
        rec.rates[f"{label} observed order"] = order
    rec.check(order >= 0.9, f"{label} sup errors {', '.join(f'{e:.3g}' for e in errs)}; "
                            f"observed order {order:.2f} >= 0.9")


# ----------------------------------------------------------------------
# grid3d
# ----------------------------------------------------------------------

def _curved_pipeline(rec: Recorder, a: Fraction, b, h: float) -> None:
    a_f = float(a)
    label = f"curved h=1/{round(1 / h)}"

    def phi(x1, x2, z):
        return _u0(x2 - a_f * x1**2, z) * (1.0 + b[0] * x1 + b[1] * x2)

    sol = solver.solve_fd(geometry.parabola_geometry(a), phi, h=h, grading=GRADED, split=True)
    Z = np.zeros(2)
    P0 = expansion.fit_tangent(sol, Z, degree=1, rmax=0.25, dist_power=1.5)
    rep = expansion.rate_report(sol, P0, Z, SCALES, target=1.5, mode="ball", min_cos=0.5)
    jet = geometry.gamma_jet(sp.Rational(a.numerator, a.denominator) * T_SYM**2, 3)
    dreps = expansion.derivative_rate_checks(sol, P0, jet, Z, SCALES, order=1, target=1.5)
    w = neumann.quotient(sol, 0)
    T0 = neumann.fit_quotient_expansion(w, Z, degree=2, rmax=0.25, dist_power=2.5, min_cos=0.7)
    nrep = neumann.neumann_rate(w, T0, Z, [2.0**-j for j in range(2, 6)], target=2.5,
                                min_cos=0.7)
    rec.rates[f"{label} tangent"] = rep.exponent
    for r in dreps:
        rec.rates[f"{label} {r.label}"] = r.exponent
    rec.rates[f"{label} quotient"] = nrep.exponent
    rec.check(rep.exponent >= 1.3, f"{label} tangent exponent {rep.exponent:.3f} >= 1.3")
    for r in dreps:
        rec.check(r.exponent >= 1.3, f"{label} {r.label} exponent {r.exponent:.3f} >= 1.3")
    rec.notes.append(f"{label}: tangent residual {rep.residual:.2f}, quotient exponent "
                     f"{nrep.exponent:.3f} (criterion 8 asks >= 2.2)")


def grid3d(seed: int):
    rng = random.Random(seed)
    a = Fraction(rng.randint(4, 12), 32)                  # a in [1/8, 3/8]
    b = (rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
    inputs = {"a": str(a), "b": [round(v, 6) for v in b]}
    tasks = [
        ("curved h=1/32", _curved_pipeline, a, b, 1 / 32),
        ("flat 3-D ladder", _flat_ladder, 2, [1 / 16, 1 / 24, 1 / 32], GRADED, "flat 3-D", False),
    ]

    def warmup():
        solver.solve_fd(geometry.flat_geometry(2), lambda x1, x2, z: _u0(x2, z),
                        h=1 / 8, split=True, grading=GRADED)

    return inputs, tasks, warmup


# ----------------------------------------------------------------------
# exact
# ----------------------------------------------------------------------

def _jet(rec: Recorder, g, a: Fraction, b: Fraction, out: dict) -> None:
    jet = geometry.gamma_jet(g, 3)
    out["jet"] = jet
    rec.check(jet.d.coeff((0, 1), 0) == 1 and jet.d.coeff((2, 0), 0) == -a
              and jet.d.coeff((3, 0), 0) == -b,
              "distance jet starts x2 - a x1^2 - b x1^3")
    rec.check(jet.kappa == -(jet.d.diff_x(0).diff_x(0) + jet.d.diff_x(1).diff_x(1)).truncate(3),
              "curvature jet is minus the Laplacian of the distance jet")


def _foot(rec: Recorder, g, a: Fraction, out: dict) -> None:
    foot = geometry.foot_jet(g, 4)
    out["foot"] = foot
    rec.check(foot.coeff((1, 0), 0) == 1 and foot.coeff((1, 1), 0) == 2 * a,
              "foot jet starts x1 + 2a x1 x2")


def _approximating(rec: Recorder, R: XRPolynomial, free: dict, out: dict) -> None:
    jet = out["jet"]
    for k in (3, 4):
        P = xrpoly.solve_approximating(jet, R, k, free=free)
        resid = xrpoly.laplacian_of_product(P, jet, k).total.truncate(k)
        rec.check(resid == R and P.degree <= k + 1,
                  f"k={k}: bracket of U0 P equals R through degree {k}")
        out[f"P{k}"] = P


def _pairs(rec: Recorder, Q: YPolynomial, q: dict, a: Fraction, b: Fraction, out: dict) -> None:
    for k in (1, 2):
        pair = neumann.solve_pair_systems(out["jet"], Q, k, foot=out["foot"],
                                          edge=[0, 0, a, b])
        low = [(mu, m) for (mu, m), _ in pair.residual.items() if sum(mu) + m < k + 2]
        if k == 1:
            rec.check(not low, "curved k=1 pair residual lives at degree >= 3 only")
        else:
            rec.notes.append(f"curved k=2 pair residual terms below degree 4: {len(low)}")
        flat = neumann.solve_pair_systems(geometry.flat_jet(2, k + 4), Q, k)
        W = XRPolynomial(2, {(mu, 0): v for mu, v in q.items()}) + 2 * flat.P.mul_r_power(1)
        rec.check(W == neumann.constant_T(2, k, q=q),
                  f"flat k={k} pair Q + 2rP equals constant_T")


def _constant_T(rec: Recorder, q: dict) -> None:
    for k in (1, 2, 3):
        T = neumann.constant_T(2, k, q=q)
        rec.check(neumann.weighted_laplacian_bracket(T, geometry.flat_jet(2, k + 4)).is_zero()
                  and neumann.t_nu_on_edge(T).is_zero(),
                  f"constant_T k={k}: bracket and edge normal trace vanish")


def _unit_parabola(rec: Recorder) -> None:
    """The k = 1 corrector shift 1/16 r^2 - 5/8 x2 r on g = t^2/2, and the
    order-5 distance jet against the float closest-point frame."""
    g = T_SYM**2 / 2
    jet = geometry.gamma_jet(g, 5)
    foot = geometry.foot_jet(g, 4)
    Q = YPolynomial(2, {(2, 0): 1})
    flat = neumann.solve_pair_systems(geometry.flat_jet(2, 5), Q, k=1)
    curved = neumann.solve_pair_systems(jet, Q, k=1, foot=foot, edge=[0, 0, Fraction(1, 2)])
    shift = curved.P - flat.P
    rec.check(shift.coeff((0, 0), 2) == Fraction(1, 16)
              and shift.coeff((0, 1), 1) == Fraction(-5, 8),
              "unit parabola k=1 shift is 1/16 r^2 - 5/8 x2 r")

    radii = [2.0**-j for j in range(2, 6)]
    th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    X = np.concatenate([s * rho * ring for rho in radii for s in (1.0, 0.7, 0.4)])
    d_newton = geometry.frame_fields(geometry.parabola_geometry(Fraction(1, 2)), X,
                                     np.zeros(len(X)))["d"]
    err = np.abs(expansion.evaluate_poly(jet.d, X, np.zeros(len(X))) - d_newton)
    norm = np.hypot(X[:, 0], X[:, 1])
    errs = [float(err[norm <= rho * (1 + 1e-12)].max()) for rho in radii]
    expo = _loglog_slope(radii, errs)
    rec.oracle_err["unit parabola d-jet |X|<=1/4"] = errs[0]
    rec.rates["unit parabola d-jet"] = expo
    rec.check(expo >= 6.0, f"order-5 distance jet error decays like |X|^{expo:.2f} (>= 6)")


def _formal(rec: Recorder, c: Fraction, out: dict) -> None:
    # U0 (2 x2 - r) = Re z^(3/2): gradient (0, 3/2 U0), d22 = (3/4) U0 / r
    P0 = c * XRPolynomial(2, {((0, 1), 0): 2, ((0, 0), 1): -1})
    jet = geometry.flat_jet(2, 3)
    grad = expansion.formal_gradient(P0, jet)
    hess = expansion.formal_hessian(P0, jet)
    r = XRPolynomial.r_var(2)
    rec.check(grad[0].is_zero() and grad[1] == Fraction(3, 2) * c * r
              and hess[1][1] == Fraction(3, 4) * c * r * r,
              "flat Re z^(3/2): formal gradient and d22 exact")
    # the order-3 jet carries the k=3 polynomial's terms through degree 3
    H = expansion.formal_hessian(out["P3"].truncate(3), out["jet"])
    rec.check(H[0][1] == H[1][0], "curved formal Hessian of the k=3 polynomial is symmetric")


def _rational(rng, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.choice([1, -1]) * rng.randint(lo, hi), den)


def exact(seed: int):
    rng = random.Random(seed)
    a = Fraction(rng.randrange(5, 12, 2), 32)             # odd numerator, a in [5/32, 11/32]
    b = _rational(rng, 1, 7, 32)                           # b != 0 always
    g = sp.Rational(a.numerator, a.denominator) * T_SYM**2 \
        + sp.Rational(b.numerator, b.denominator) * T_SYM**3
    free = {(0, 1): _rational(rng, 1, 6, 7), (2, 0): _rational(rng, 1, 6, 7),
            (1, 0): _rational(rng, 1, 6, 7)}
    R = XRPolynomial.constant(2, _rational(rng, 1, 10, 11))
    q = {(2, 0): _rational(rng, 1, 5, 6), (3, 0): _rational(rng, 1, 5, 6)}
    Q = YPolynomial(2, dict(q))
    c = _rational(rng, 1, 9, 10)
    inputs = {"a": str(a), "b": str(b), "free": {str(k): str(v) for k, v in free.items()},
              "R": str(R), "q": {str(k): str(v) for k, v in q.items()}, "c": str(c)}
    out: dict = {}
    tasks = [
        ("gamma_jet order 3", _jet, g, a, b, out),
        ("foot_jet order 4", _foot, g, a, out),
        ("solve_approximating k=3,4", _approximating, R, free, out),
        ("pair systems k=1,2", _pairs, Q, q, a, b, out),
        ("constant_T k=1..3", _constant_T, q),
        ("unit parabola shift + jet oracle", _unit_parabola),
        ("formal gradient/Hessian", _formal, c, out),
    ]

    def warmup():
        geometry.gamma_jet(T_SYM**2 / 3, 1)
        xrpoly.solve_approximating(geometry.flat_jet(2), XRPolynomial.zero(2), 1)

    return inputs, tasks, warmup


# ----------------------------------------------------------------------
# planar
# ----------------------------------------------------------------------

def _disc_phi(t):
    return np.abs(np.cos(t / 2.0))


def _disc_oracle(rec: Recorder, gamma: float) -> None:
    a_fd, _ = solver.solve_disc_2d(gamma, _disc_phi, h=2**-8)
    a_series = freeboundary.tip_coefficient(gamma, _disc_phi)
    gap = abs(a_series - a_fd) / a_series
    rec.oracle_err[f"disc vs series gamma={gamma:.4f}"] = gap
    rec.check(gap <= 0.01, f"gamma={gamma:.4f}: disc vs series tip gap {gap:.2e} <= 1%")
    a3 = freeboundary.tip_coefficient(gamma, lambda t: 3.0 * _disc_phi(t))
    lin = abs(a3 - 3.0 * a_series) / abs(3.0 * a_series)
    rec.check(lin <= 1e-12, f"gamma={gamma:.4f}: tip-coefficient linearity {lin:.1e} <= 1e-12")


def _free_boundary(rec: Recorder, G: float) -> None:
    prob = freeboundary.TipProblem(phi=_disc_phi, G=lambda g: G + 0.0 * np.asarray(g),
                                   bracket=(-0.5, 0.5))
    res = freeboundary.solve_free_boundary(prob)
    rec.check(abs(res.a - G) <= 1e-9 and res.residual <= 1e-9,
              f"G={G:.4f}: gamma* = {res.gamma:.6f}, |a - G| = {abs(res.a - G):.1e} <= 1e-9")


def _whitney(rec: Recorder, a: Fraction) -> None:
    geom = geometry.parabola_geometry(a)
    for k in (0, 1, 2):
        mol = whitney.build_mollifier(2, k)
        moments = mol.moments(k + 2)
        worst = max(max(abs(v) for mu, v in moments.items() if sum(mu) > 0),
                    abs(moments[(0, 0)] - 1.0))
        rec.check(worst <= 1e-12, f"k={k}: mollifier moments {worst:.1e} <= 1e-12")
        rows = whitney.verify_jet_match(mol, YPolynomial(2, {(2, 0): 1.0}), geom,
                                        np.zeros(2), orders=(0, 1))
        rec.notes.append(f"whitney k={k}: jet approach rates "
                         + ", ".join(f"{r['approach_rate']:.2f}" for r in rows)
                         + f" (criterion 6 asks >= {k + 1})")


def _barrier(rec: Recorder) -> None:
    b1 = solver.check_barrier(geometry.flat_geometry(1), h=2**-5)
    b2 = solver.check_barrier(geometry.flat_geometry(1), h=2**-6)
    rec.check(b1 > 0 and b2 > 0 and abs(b2 - b1) <= 0.1 * abs(b1),
              f"flat barrier {b1:.4f} -> {b2:.4f} positive, stable within 10%")


def _energy(rec: Recorder) -> None:
    sol = solver.solve_fd(geometry.flat_geometry(1), lambda x, z: _u0(x, z), h=2**-8,
                          split=False)
    sol.values = sol.node_frames()["u0"].reshape(sol.values.shape)
    e = solver.compute_energy(sol)
    rel = abs(e - np.pi) / np.pi
    rec.check(rel <= 0.01, f"energy {e:.5f} vs pi, relative {rel:.2e} <= 1%")


def _cli(rec: Recorder, args: list, outdir: Path) -> None:
    rc = cli.main([*args, "--output", str(outdir)])
    rec.count("cli.bytes_written", sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file()))
    shutil.rmtree(outdir)
    rec.check(rc == 0, f"slitkit {' '.join(args)} exit code {rc}")


def planar(seed: int, scratch: Path):
    rng = random.Random(seed)
    gamma = round(rng.uniform(-0.4, 0.4), 6)
    G = round(rng.uniform(1.0, 1.05), 6)
    a = Fraction(rng.randint(4, 12), 32)
    G_cli = round(rng.uniform(0.95, 1.05), 6)
    k_whitney = rng.randint(0, 1)
    k_neumann = rng.randint(0, 2)
    inputs = {"gamma": gamma, "G": G, "a": str(a), "G_cli": G_cli,
              "k_whitney": k_whitney, "k_neumann": k_neumann}
    cli_runs = [
        ["solve", "--n", "1", "--h", repr(2**-8)],
        ["freeboundary", "--G", repr(G_cli)],
        ["whitney", "--n", "2", "--k", str(k_whitney)],
        ["neumann", "--k", str(k_neumann)],
        ["barrier", "--n", "1", "--h", repr(2**-5)],
        ["energy", "--n", "1", "--h", repr(2**-8)],
    ]
    tasks = [("flat 2-D ladder", _flat_ladder, 1, [2**-5, 2**-6, 2**-7, 2**-8], None,
              "flat 2-D", True)]
    tasks += [
        ("disc oracle", _disc_oracle, gamma),
        ("free boundary", _free_boundary, G),
        ("whitney k=0..2", _whitney, a),
        ("barrier", _barrier),
        ("energy", _energy),
    ]
    tasks += [(f"cli {args[0]}", _cli, args, scratch / f"cli-{i}")
              for i, args in enumerate(cli_runs)]

    def warmup():
        solver.solve_disc_2d(0.0, _disc_phi, h=1 / 8)
        solver.solve_fd(geometry.flat_geometry(1), lambda x, z: _u0(x, z), h=1 / 8, split=True)

    return inputs, tasks, warmup


def make(workload: str, seed: int, scratch: Path):
    """(inputs, tasks, warmup) of one workload; a task is (name, fn, *args)."""
    if workload == "planar":
        return planar(seed, scratch)
    return {"grid3d": grid3d, "exact": exact}[workload](seed)
