"""Acceptance gate: ten primary verification criteria, one per test.

Each test prints a single "criterion N: PASS/FAIL" line (visible with
pytest -s or on failure) and asserts the stated pass condition at the
stated tolerance.  Criteria 3, 4, and 8 share one large curved solve
(193 x 193 x 97 graded grid), built once per module; they are marked
``slow``, so ``-m "not slow"`` skips that solve.
"""

import itertools
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from slitkit import (
    TipProblem,
    TruncationWarning,
    XRPolynomial,
    YPolynomial,
    build_mollifier,
    check_barrier,
    compute_energy,
    constant_T,
    derivative_rate_checks,
    fit_quotient_expansion,
    fit_tangent,
    flat_geometry,
    flat_jet,
    gamma_jet,
    neumann_rate,
    parabola_geometry,
    quotient,
    rate_report,
    solve_approximating,
    solve_disc_2d,
    solve_fd,
    solve_free_boundary,
    t_nu_on_edge,
    tip_coefficient,
    verify_jet_match,
    weighted_laplacian_bracket,
    whitney_extend,
)
from slitkit.solver import _cell_widths, empty_solution
from slitkit.whitney import jet_match_passed
from slitkit.xrpoly import laplacian_of_product

pytestmark = pytest.mark.acceptance


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def phi_flat_1(x, z):
    return np.sqrt((x + np.hypot(x, z)) / 2.0)


def phi_flat_2(x1, x2, z):
    d = x2 - 0.25 * x1**2
    return np.sqrt((d + np.hypot(d, z)) / 2.0)


@pytest.fixture(scope="module")
def curved_run():
    """Curved acceptance solve: g = x1^2/4, flat-U0 trace data,
    h = 1/96 with power-2 grading toward the coordinate planes."""
    t0 = time.time()
    sol = solve_fd(parabola_geometry(0.25), phi_flat_2, h=1.0 / 96,
                   grading={"type": "power", "p": 2.0}, split=True)
    wall = time.time() - t0
    sol.node_frames()
    return {"sol": sol, "wall": wall}


class TestCriterion1:
    def test_symbolic_harmonicity_kernel(self):
        t0 = time.time()
        jet = flat_jet(2)
        k = 2
        # every unit free input over |mu| <= 3, plus one mixed set
        free_sets = [{mu: 1} for mu in itertools.product(range(4), repeat=2)
                     if 1 <= sum(mu) <= 3]
        free_sets.append({(1, 0): Fraction(1, 3), (0, 2): Fraction(-1, 5)})
        for free in free_sets:
            P = solve_approximating(jet, XRPolynomial.zero(2), k, free=free)
            resid = laplacian_of_product(P, jet, k).total
            assert resid.truncate(k).is_zero(), free
        # specific instance: free x_n input forces P = x_n - r/2
        j1 = flat_jet(1)
        P = solve_approximating(j1, XRPolynomial.zero(1), 4, free={(1,): 1})
        assert P == XRPolynomial(1, {((1,), 0): 1, ((0,), 1): Fraction(-1, 2)})
        # degree-1 law: 2 * (r coefficient) + (x_n coefficient) = 0
        assert 2 * P.coeff((0,), 1) + P.coeff((1,), 0) == 0
        wall = time.time() - t0
        ok = wall < 1.0
        _report(1, ok, f"{len(free_sets)} free sets exact, P = x_n - r/2, "
                       f"2b_{{n+1}} + b_n = 0; {wall:.2f}s")
        assert ok


class TestCriterion2:
    def test_oracle_equivalence_flat(self):
        t0 = time.time()
        hs = [2**-5, 2**-6, 2**-7, 2**-8]
        errs = []
        geom = flat_geometry(1)
        for h in hs:
            sol = solve_fd(geom, phi_flat_1, h=h, split=True)
            fr = sol.node_frames()
            grids = np.meshgrid(*sol.axes, indexing="ij")
            dist = np.sqrt(grids[0] ** 2 + grids[1] ** 2).ravel()
            errs.append(np.abs(sol.values.ravel() - fr["u0"])[dist <= 0.5].max())
        A = np.vstack([np.log(hs), np.ones(len(hs))]).T
        order = float(np.linalg.lstsq(A, np.log(errs), rcond=None)[0][0])
        wall = time.time() - t0
        ok = order >= 0.9 and wall < 120.0
        _report(2, ok, f"sup errors {['%.2e' % e for e in errs]}, "
                       f"order {order:.2f} >= 0.9; {wall:.0f}s")
        assert ok


class TestCriterion3:
    @pytest.mark.slow
    def test_decay_rate_curved(self, curved_run):
        sol = curved_run["sol"]
        scales = [2.0**-j for j in range(1, 6)]
        P0 = fit_tangent(sol, np.zeros(2), degree=1, rmax=0.25, dist_power=1.5)
        rep = rate_report(sol, P0, np.zeros(2), scales, target=1.5,
                          mode="ball", min_cos=0.5)
        ok = (rep.exponent >= 1.3 and rep.residual <= 0.3
              and curved_run["wall"] < 600.0)
        _report(3, ok, f"exponent {rep.exponent:.2f} >= 1.3, "
                       f"residual {rep.residual:.2f} <= 0.3, "
                       f"solve {curved_run['wall']:.0f}s < 600s")
        assert ok


class TestCriterion4:
    @pytest.mark.slow
    def test_gradient_estimate(self, curved_run):
        sol = curved_run["sol"]
        scales = [2.0**-j for j in range(1, 6)]
        P0 = fit_tangent(sol, np.zeros(2), degree=1, rmax=0.25, dist_power=1.5)
        t = sp.symbols("t")
        jet = gamma_jet(t**2 / 4, 3)
        reps = derivative_rate_checks(sol, P0, jet, np.zeros(2), scales,
                                      order=1, target=1.5)
        ok = all(r.exponent >= 1.3 for r in reps)
        _report(4, ok, "; ".join(f"{r.label} exponent {r.exponent:.2f}"
                                 for r in reps) + " (all >= 1.3)")
        assert ok


class TestCriterion5:
    def test_barrier_positivity(self):
        details = []
        ok = True
        for name, geom in [("flat", flat_geometry(1)),
                           ("curved", parabola_geometry(0.25))]:
            b1 = check_barrier(geom, h=2**-5)
            b2 = check_barrier(geom, h=2**-6)
            stable = b1 > 0 and b2 > 0 and abs(b2 - b1) <= 0.1 * abs(b1)
            ok = ok and stable
            details.append(f"{name} {b1:.3f}->{b2:.3f} "
                           f"({abs(b2 - b1) / abs(b1):.1%})")
        _report(5, ok, "; ".join(details))
        assert ok


class TestCriterion6:
    def test_whitney_extension(self):
        geom = parabola_geometry(0.25)
        details = []
        ok = True
        for k in (0, 1):
            mol = build_mollifier(2, k)
            moments = mol.moments(k + 2)
            worst = max(abs(v) for mu, v in moments.items() if sum(mu) > 0)
            worst = max(worst, abs(moments[(0, 0)] - 1.0))
            # flat reproduction of a full degree-(k+2) polynomial
            Q = YPolynomial(2, {(j, 0): 1.0 / (j + 1) for j in range(k + 3)})
            pts = np.array([[0.1, 0.05], [-0.2, 0.15], [0.0, 0.3]])
            rep = np.max(np.abs(whitney_extend(mol, Q, flat_geometry(2), pts)
                                - Q.evaluate_foot(pts[:, 0])))
            rows = verify_jet_match(mol, YPolynomial(2, {(2, 0): 1.0}), geom,
                                    np.zeros(2), orders=(0, 1))
            rate = np.min([r["approach_rate"] for r in rows])
            this = worst <= 1e-12 and rep <= 1e-8 and jet_match_passed(rows, k)
            ok = ok and this
            details.append(f"k={k}: moments {worst:.1e}, flat {rep:.1e}, "
                           f"jet rate {rate:.2f} >= {k + 1}")
        _report(6, ok, "; ".join(details))
        assert ok


class TestCriterion7:
    def test_constant_coefficient_family(self):
        jet = flat_jet(2, 5)
        T = constant_T(2, 1, q={(2, 0): 1})
        assert (T - XRPolynomial(2, {((2, 0), 0): 1, ((0, 0), 2): -1})).is_zero()
        sym_ok = weighted_laplacian_bracket(T, jet).is_zero() \
            and t_nu_on_edge(T).is_zero()

        # numerical normal trace: T evaluated along the edge normal at
        # ts -> 0 off an edge point (x1, 0); slope -> 0 for T, -> 1 for r
        def num_tnu(poly, x1=0.15):
            ts = np.array([2.0**-j for j in range(4, 9)])
            vals = np.array([float(poly.evaluate([x1, s], s)) for s in ts])
            base = float(poly.evaluate([x1, 0.0], 0.0))
            return (vals - base) / ts

        slopes_T = num_tnu(T)
        slopes_r = num_tnu(XRPolynomial(2, {((0, 0), 1): 1}))
        num_ok = abs(slopes_T[-1]) < 0.01 and abs(slopes_T[-1]) < abs(slopes_T[0]) \
            and np.allclose(slopes_r, 1.0, atol=1e-12)
        ok = sym_ok and num_ok
        _report(7, ok, f"T = x1^2 - r^2 exact + T_nu -> {slopes_T[-1]:.1e}; "
                       f"negative control |T_nu| = {slopes_r[-1]:.3f}")
        assert ok


class TestCriterion8:
    @pytest.mark.slow
    def test_quotient_regularity(self, curved_run):
        sol = curved_run["sol"]
        w = quotient(sol, 0)
        T0 = fit_quotient_expansion(w, np.zeros(2), degree=2, rmax=0.25,
                                    dist_power=2.5, min_cos=0.7)
        rep = neumann_rate(w, T0, np.zeros(2), [2.0**-j for j in range(2, 6)],
                           target=2.5, min_cos=0.7)
        trace_ok = True
        ratios = []
        for tpos in (0.15, 0.2, 0.3):
            tr, _ = w.trace_and_normal(np.array([tpos, 0.25 * tpos**2]))
            ratio = tr / (-0.5 * tpos)       # -d/dx1 (x1^2/4) = -x1/2
            ratios.append(ratio)
            trace_ok = trace_ok and abs(ratio - 1.0) <= 0.1
        ok = rep.exponent >= 2.2 and trace_ok
        _report(8, ok, f"exponent {rep.exponent:.2f} >= 2.2 "
                       f"(residual {rep.residual:.2f}); trace ratios "
                       + ", ".join(f"{r:.3f}" for r in ratios))
        assert ok


class TestCriterion9:
    def test_free_boundary(self):
        phi = lambda t: np.abs(np.cos(t / 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            prob = TipProblem(phi=phi, G=lambda g: 1.0 + 0.0 * np.asarray(g),
                              bracket=(-0.5, 0.5))
            res = solve_free_boundary(prob)
        a_series = tip_coefficient(0.3, phi)
        a_fd, _ = solve_disc_2d(0.3, phi, h=2**-8)
        oracle_rel = abs(a_series - a_fd) / a_series
        a_scaled = tip_coefficient(0.3, lambda t: 3.0 * phi(t))
        lin_err = abs(a_scaled - 3.0 * a_series) / abs(3.0 * a_series)
        ok = abs(res.gamma) <= 1e-6 and oracle_rel <= 0.01 and lin_err <= 1e-12
        _report(9, ok, f"|gamma*| = {abs(res.gamma):.1e} <= 1e-6; oracle "
                       f"{oracle_rel:.2%} <= 1%; linearity {lin_err:.1e}")
        assert ok


class TestCriterion10:
    def test_energy(self):
        # U0 sampled on the flat grid; no solve is needed.  The energy less
        # its plate term (pi/2) * measure{u > 0, z = 0} is the gradient
        # part, analytically 2 * int |grad U0|^2 = pi/2 over the half disc
        sol = empty_solution(flat_geometry(1), 2**-8)
        sol.values = sol.node_frames()["u0"].reshape(sol.values.shape)
        e = compute_energy(sol)
        x = sol.axes[0]
        plate = _cell_widths(x)[(sol.values[:, 0] > 0) & (np.abs(x) < 1.0)].sum()
        grad_part = e - np.pi / 2 * plate
        grad_rel = abs(grad_part - np.pi / 2) / (np.pi / 2)
        rel = abs(e - np.pi) / np.pi
        ok = rel <= 0.01 and grad_rel <= 0.01
        _report(10, ok, f"energy {e:.4f} vs pi, rel {rel:.2%} <= 1%; gradient part "
                        f"{grad_part:.4f} vs pi/2, rel {grad_rel:.2%} <= 1%")
        assert ok
