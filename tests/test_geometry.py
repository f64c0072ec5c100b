"""Frames and jets of the slit edge geometry."""

import json
import math
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from slitkit import (
    NonConvergence,
    SlitGeometry,
    XRPolynomial,
    evaluate_poly,
    flat_geometry,
    flat_jet,
    foot_jet,
    frame_fields,
    gamma_jet,
    parabola_geometry,
)


def frame_at(geom, x, z):
    """frame_fields at the single point (x, z), as a dict of scalars."""
    return {k: v[0] for k, v in frame_fields(geom, [x], [z]).items()}


def sampled_distance(g, x, ts=np.linspace(-1.0, 1.0, 20001)):
    """Distance from the in-plane point x to the graph (t, g(t)) by dense
    sampling, independent of the closest-point Newton."""
    return float(np.min(np.hypot(ts - x[0], g(ts) - x[1])))


class TestGeometry:
    def test_coefficients_are_exact(self):
        geom = parabola_geometry(0.1)
        assert geom.coeffs == (0, 0, F(0.1))
        assert SlitGeometry(2, ("0", 0, "1/4", 0)) == parabola_geometry(F(1, 4))
        assert flat_geometry(2).flat and SlitGeometry(1, (0, 0, 0)).flat
        assert not parabola_geometry(F(1, 4)).flat

    def test_derivatives_from_coefficients(self):
        geom = SlitGeometry(2, (0, 0, F(1, 4), F(-1, 8)))
        t = np.array([-0.5, 0.0, 0.3])
        assert np.allclose(geom.g(t), t**2 / 4 - t**3 / 8, rtol=0, atol=1e-16)
        assert np.allclose(geom.dg(t), t / 2 - 3 * t**2 / 8, rtol=0, atol=1e-16)
        assert np.allclose(geom.d2g(t), 0.5 - 3 * t / 4, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("n, coeffs", [
        (1, (0, 0, 1)),             # a curved edge needs n = 2
        (2, (0, 1)),                # g'(0) != 0
        (2, (1,)),                  # g(0) != 0
        (3, ()),                    # unsupported dimension
        (2, (0, 0, math.nan)),
        (2, (0, 0, math.inf)),
        (2, (0, 0, None)),
    ])
    def test_rejects_bad_edges(self, n, coeffs):
        with pytest.raises(ValueError):
            SlitGeometry(n, coeffs)


class TestFlatFrame:
    def test_on_positive_axis(self):
        fr = frame_at(flat_geometry(2), (0.0, 0.5), 0.0)
        assert fr["d"] == 0.5 and fr["r"] == 0.5 and fr["theta"] == 0.0
        assert fr["u0"] == pytest.approx(math.sqrt(0.5))
        assert tuple(fr["nu"]) == (0.0, 1.0)
        assert fr["foot"] == 0.0

    def test_on_slit(self):
        fr = frame_at(flat_geometry(1), (-0.5,), 0.0)
        assert fr["d"] == -0.5 and fr["theta"] == math.pi
        assert fr["u0"] == 0.0

    def test_u0_even_in_vertical(self):
        up = frame_at(flat_geometry(1), (0.3,), 0.2)
        dn = frame_at(flat_geometry(1), (0.3,), -0.2)
        assert up["u0"] == dn["u0"]
        assert up["theta"] == -dn["theta"]

    @given(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
    @settings(max_examples=60, deadline=None)
    def test_polar_identities(self, d, z):
        fr = frame_at(flat_geometry(1), (d,), z)
        assert fr["r"] == pytest.approx(math.hypot(d, z))
        # u0 = r^(1/2) cos(theta/2)
        assert fr["u0"] == pytest.approx(
            math.sqrt(fr["r"]) * math.cos(fr["theta"] / 2), abs=1e-12
        )


class TestClosestPoint:
    def test_parabola_on_axis(self):
        geom = parabola_geometry(F(1, 4))
        fr = frame_at(geom, (0.0, 0.3), 0.0)
        assert fr["d"] == pytest.approx(0.3, abs=1e-12)
        assert tuple(fr["nu"]) == pytest.approx((0.0, 1.0), abs=1e-10)
        assert fr["foot"] == pytest.approx(0.0, abs=1e-10)

    def test_parabola_below_edge_negative_distance(self):
        geom = parabola_geometry(F(1, 4))
        fr = frame_at(geom, (0.2, -0.2), 0.0)
        assert fr["d"] < 0
        assert fr["u0"] == 0.0

    def test_distance_is_true_minimum(self):
        geom = parabola_geometry(F(1, 4))
        x = (0.25, 0.15)
        fr = frame_at(geom, x, 0.0)
        assert abs(fr["d"]) == pytest.approx(sampled_distance(geom.g, x), abs=1e-7)

    def test_eikonal(self):
        # |grad d| = 1 via finite differences of d
        geom = parabola_geometry(F(1, 4))
        h = 1e-6
        x = (0.2, 0.25)
        d = frame_fields(geom, [x, (x[0] + h, x[1]), (x[0], x[1] + h)], np.zeros(3))["d"]
        assert math.hypot(d[1] - d[0], d[2] - d[0]) / h == pytest.approx(1.0, abs=1e-5)

    def test_frame_fields_matches_pointwise(self):
        # |d| is the sampled distance to the graph, its sign the side of
        # the graph, and u0 follows from d and z
        geom = SlitGeometry(2, (0, 0, F(1, 4), F(-1, 8)))
        pts = [(0.1, 0.2), (-0.3, 0.1), (0.05, -0.04), (0.4, 0.0)]
        zs = [0.1, 0.2, 0.15, 0.05]
        out = frame_fields(geom, pts, zs)
        for i, (x, z) in enumerate(zip(pts, zs)):
            d = math.copysign(sampled_distance(geom.g, x), x[1] - float(geom.g(x[0])))
            assert out["d"][i] == pytest.approx(d, abs=1e-7)
            assert out["u0"][i] == pytest.approx(math.sqrt((d + math.hypot(d, z)) / 2),
                                                 abs=1e-7)

    def test_frame_fields_raises_when_newton_fails(self, monkeypatch):
        monkeypatch.setattr(SlitGeometry, "g", lambda self, t: np.nan * np.asarray(t))
        with pytest.raises(NonConvergence):
            frame_fields(parabola_geometry(F(1, 4)), [(0.1, 0.2)], [0.1])

    @given(st.fractions(F(-3, 8), F(3, 8)), st.fractions(F(-3, 8), F(3, 8)),
           st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                              st.floats(-0.5, 0.5)), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_random_cubic_edges(self, c2, c3, pts):
        geom = SlitGeometry(2, (0, 0, c2, c3))
        pts = np.array(pts)
        nu = frame_fields(geom, pts[:, :2], pts[:, 2])["nu"]
        assert np.max(np.abs(np.hypot(nu[:, 0], nu[:, 1]) - 1.0)) <= 1e-14
        # on edge points (t, g(t), 0) the frame is the edge itself
        t = pts[:, 0]
        on = frame_fields(geom, np.stack([t, geom.g(t)], axis=1), np.zeros(len(t)))
        assert np.all(on["d"] == 0.0) and np.all(on["r"] == 0.0)


class TestJets:
    def test_flat_jet(self):
        j = flat_jet(2)
        assert str(j.d) == "1*x2"
        assert j.kappa.is_zero()
        assert j.is_flat

    def test_parabola_distance_jet(self):
        # leading terms of the signed distance to x_2 = x_1^2/4
        j = gamma_jet("t**2/4", order=4)
        assert j.d.coeff((0, 1), 0) == 1
        assert j.d.coeff((2, 0), 0) == F(-1, 4)
        assert j.d.coeff((1, 0), 0) == 0

    def test_parabola_curvature_jet_on_normal_line(self):
        # along x_1 = 0 the curvature of parallel curves is
        # kappa0 / (1 - kappa0 d) with kappa0 = 1/2
        j = gamma_jet("t**2/4", order=5)
        assert j.kappa.coeff((0, 0), 0) == F(1, 2)
        assert j.kappa.coeff((0, 1), 0) == F(1, 4)
        assert j.kappa.coeff((0, 2), 0) == F(1, 8)
        assert j.kappa.coeff((0, 3), 0) == F(1, 16)

    def test_nu_is_gradient_of_d(self):
        j = gamma_jet("t**2/3", order=4)
        assert j.nu[0] == j.d.diff_x(0).truncate(4)
        assert j.nu[1] == j.d.diff_x(1).truncate(4)

    def test_kappa_is_minus_laplacian_of_d(self):
        j = gamma_jet("t**2/3 + t**3/10", order=4)
        lap = j.d.diff_x(0).diff_x(0) + j.d.diff_x(1).diff_x(1)
        assert j.kappa == (-lap).truncate(4)

    def test_jet_matches_numeric_distance(self):
        geom = parabola_geometry(F(1, 4))
        j = gamma_jet("t**2/4", order=8)
        pts = [(0.05, 0.08), (-0.08, 0.05), (0.1, 0.12)]
        d_num = frame_fields(geom, pts, np.zeros(len(pts)))["d"]
        for x, d in zip(pts, d_num):
            d_jet = float(j.d.evaluate([F(x[0]).limit_denominator(10**9),
                                        F(x[1]).limit_denominator(10**9)], 0))
            assert d_jet == pytest.approx(d, abs=5e-8)

    def test_cubic_jet_error_decays_against_frames(self):
        # the order-5 jet of d is off by O(|X|^6) from the frame of the
        # same geometry, over |X| = 2^-2 .. 2^-5
        geom = SlitGeometry(2, (0, 0, F(7, 32), F(5, 32)))
        jet = gamma_jet(geom, 5)
        radii = [2.0**-j for j in range(2, 6)]
        th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        ring = np.stack([np.cos(th), np.sin(th)], axis=1)
        X = np.concatenate([s * rho * ring for rho in radii for s in (1.0, 0.7, 0.4)])
        err = np.abs(evaluate_poly(jet.d, X, np.zeros(len(X)))
                     - frame_fields(geom, X, np.zeros(len(X)))["d"])
        norm = np.hypot(X[:, 0], X[:, 1])
        errs = [err[norm <= rho * (1 + 1e-12)].max() for rho in radii]
        slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
        assert slope >= 6.0, errs

    def test_asymmetric_graph(self):
        # cubic edge: curvature vanishes at the tip but its x_1 slope is g'''(0)
        j = gamma_jet("t**3/6", order=3)
        assert j.kappa.coeff((0, 0), 0) == 0
        assert j.kappa.coeff((1, 0), 0) == F(1, 1)

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            gamma_jet("t + t**2", order=3)
        with pytest.raises(ValueError):
            gamma_jet("1 + t**2", order=3)
        with pytest.raises(ValueError):
            gamma_jet("1 - cos(t)", order=3)
        with pytest.raises(ValueError):
            foot_jet("sqrt(2)*t**2", order=3)
        with pytest.raises(ValueError):
            gamma_jet(flat_geometry(1), order=3)

    def test_matches_reference_jets(self):
        # exact jets recorded from the earlier sympy series implementation
        ref = json.loads((Path(__file__).parent / "data" / "jets.json").read_text())

        def poly(entries):
            return XRPolynomial(2, {((i, j), m): F(c) for i, j, m, c in entries})

        def geometry(g):
            # the graph's coefficients read off by sympy, not by slitkit
            t = sp.Symbol("t")
            return SlitGeometry(2, [F(str(c)) for c in reversed(sp.Poly(g, t).all_coeffs())])

        for case in ref["gamma_jet"]:
            j = gamma_jet(case["g"], case["order"])
            assert j.d == poly(case["d"]), case["g"]
            assert j.nu == [poly(v) for v in case["nu"]], case["g"]
            assert j.kappa == poly(case["kappa"]), case["g"]
            assert gamma_jet(geometry(case["g"]), case["order"]) == j, case["g"]
        for case in ref["foot_jet"]:
            t = foot_jet(case["g"], case["order"])
            assert t == poly(case["t"]), case["g"]
            assert foot_jet(geometry(case["g"]), case["order"]) == t, case["g"]

    def test_import_leaves_sympy_out(self):
        # sympy only parses edge graphs, so importing the package must not load it
        import slitkit

        src = str(Path(slitkit.__file__).resolve().parents[1])
        code = "import sys; import slitkit; sys.exit('sympy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], cwd=src).returncode == 0
