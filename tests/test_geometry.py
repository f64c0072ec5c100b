"""Frames and jets of the slit edge geometry."""

import json
import math
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitkit import (
    NonConvergence,
    OutOfDomain,
    SlitGeometry,
    XRPolynomial,
    closest_point_frame,
    flat_frame,
    flat_geometry,
    flat_jet,
    foot_jet,
    frame_fields,
    gamma_jet,
    parabola_geometry,
)


class TestFlatFrame:
    def test_on_positive_axis(self):
        fr = flat_frame([0.0, 0.5], 0.0)
        assert fr.d == 0.5 and fr.r == 0.5 and fr.theta == 0.0
        assert fr.u0 == pytest.approx(math.sqrt(0.5))
        assert fr.nu == (0.0, 1.0)

    def test_on_slit(self):
        fr = flat_frame([-0.5], 0.0)
        assert fr.d == -0.5 and fr.theta == math.pi
        assert fr.u0 == 0.0
        assert fr.on_slit

    def test_u0_even_in_vertical(self):
        up = flat_frame([0.3], 0.2)
        dn = flat_frame([0.3], -0.2)
        assert up.u0 == dn.u0
        assert up.theta == -dn.theta

    @given(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
    @settings(max_examples=60, deadline=None)
    def test_polar_identities(self, d, z):
        fr = flat_frame([d], z)
        assert fr.r == pytest.approx(math.hypot(d, z))
        # u0 = r^(1/2) cos(theta/2)
        assert fr.u0 == pytest.approx(
            math.sqrt(fr.r) * math.cos(fr.theta / 2), abs=1e-12
        )


class TestClosestPoint:
    def test_outside_ball_raises(self):
        with pytest.raises(OutOfDomain):
            closest_point_frame(flat_geometry(1), [0.9], 0.9)

    def test_parabola_on_axis(self):
        geom = parabola_geometry(F(1, 4))
        fr = closest_point_frame(geom, (0.0, 0.3), 0.0)
        assert fr.d == pytest.approx(0.3, abs=1e-12)
        assert fr.nu == pytest.approx((0.0, 1.0), abs=1e-10)
        assert fr.foot[0] == pytest.approx(0.0, abs=1e-10)

    def test_parabola_below_edge_negative_distance(self):
        geom = parabola_geometry(F(1, 4))
        fr = closest_point_frame(geom, (0.2, -0.2), 0.0)
        assert fr.d < 0
        assert fr.on_slit

    def test_distance_is_true_minimum(self):
        geom = parabola_geometry(F(1, 4))
        x = (0.25, 0.15)
        fr = closest_point_frame(geom, x, 0.0)
        ts = np.linspace(-1.0, 1.0, 20001)
        dist = np.min(np.hypot(ts - x[0], ts**2 / 4 - x[1]))
        assert abs(fr.d) == pytest.approx(dist, abs=1e-7)

    def test_eikonal(self):
        # |grad d| = 1 via finite differences of d
        geom = parabola_geometry(F(1, 4))
        h = 1e-6
        x = (0.2, 0.25)
        d0 = closest_point_frame(geom, x, 0.0).d
        dx = (closest_point_frame(geom, (x[0] + h, x[1]), 0.0).d - d0) / h
        dy = (closest_point_frame(geom, (x[0], x[1] + h), 0.0).d - d0) / h
        assert math.hypot(dx, dy) == pytest.approx(1.0, abs=1e-5)

    def test_frame_fields_matches_pointwise(self):
        geom = parabola_geometry(F(1, 4))
        pts = [(0.1, 0.2), (-0.3, 0.1), (0.05, -0.04)]
        zs = [0.1, 0.2, 0.15]
        out = frame_fields(geom, pts, zs)
        for i, (x, z) in enumerate(zip(pts, zs)):
            fr = closest_point_frame(geom, x, z)
            assert out["d"][i] == pytest.approx(fr.d, abs=1e-11)
            assert out["u0"][i] == pytest.approx(fr.u0, abs=1e-11)

    def test_frame_fields_raises_when_newton_fails(self):
        def nan(t):
            return np.nan * np.asarray(t)

        geom = SlitGeometry(n=2, g=nan, dg=nan, d2g=nan)
        with pytest.raises(NonConvergence):
            frame_fields(geom, [(0.1, 0.2)], [0.1])


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
        for x in [(0.05, 0.08), (-0.08, 0.05), (0.1, 0.12)]:
            d_num = closest_point_frame(geom, x, 0.0).d
            d_jet = float(j.d.evaluate([F(x[0]).limit_denominator(10**9),
                                        F(x[1]).limit_denominator(10**9)], 0))
            assert d_jet == pytest.approx(d_num, abs=5e-8)

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

    def test_matches_reference_jets(self):
        # exact jets recorded from the earlier sympy series implementation
        ref = json.loads((Path(__file__).parent / "data" / "jets.json").read_text())

        def poly(entries):
            return XRPolynomial(2, {((i, j), m): F(c) for i, j, m, c in entries})

        for case in ref["gamma_jet"]:
            j = gamma_jet(case["g"], case["order"])
            assert j.d == poly(case["d"]), case["g"]
            assert j.nu == [poly(v) for v in case["nu"]], case["g"]
            assert j.kappa == poly(case["kappa"]), case["g"]
        for case in ref["foot_jet"]:
            assert foot_jet(case["g"], case["order"]) == poly(case["t"]), case["g"]

    def test_import_leaves_sympy_out(self):
        # sympy only parses edge graphs, so importing the package must not load it
        import slitkit

        src = str(Path(slitkit.__file__).resolve().parents[1])
        code = "import sys; import slitkit; sys.exit('sympy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], cwd=src).returncode == 0
