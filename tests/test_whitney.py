"""Tests for the moment-vanishing mollifier and edge extension."""

import numpy as np
import pytest

from slitkit import (
    Mollifier,
    OutOfChart,
    YPolynomial,
    build_mollifier,
    flat_geometry,
    parabola_geometry,
    verify_jet_match,
    whitney_extend,
)


class TestMollifier:
    @pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)])
    def test_moments_vanish_through_k_plus_2(self, n, k):
        mol = build_mollifier(n, k)
        moms = mol.moments(k + 2)
        for mu, v in moms.items():
            want = 1.0 if sum(mu) == 0 else 0.0
            assert abs(v - want) < 1e-12, (mu, v)

    def test_compact_support(self):
        mol = build_mollifier(1, 1)
        assert mol(np.array([0.5])) == 0.0
        assert mol(np.array([0.51])) == 0.0
        assert mol(np.array([0.0])) != 0.0

    def test_sharpness_of_moment_order(self):
        # k = 1: moments vanish through order 3 and order 4 survives
        # (for even k the next moment vanishes by parity, so k = 1 is
        # the case where the order is visibly sharp)
        mol = build_mollifier(1, 1)
        m4 = mol.moments(4)[(4,)]
        assert abs(m4) > 1e-6

    def test_even_k_parity_bonus(self):
        # the bump and polynomial are even, so odd moments vanish for
        # free: the k = 0 mollifier also kills the order-3 moment
        mol = build_mollifier(1, 0)
        assert abs(mol.moments(3)[(3,)]) < 1e-12

    def test_2d_mollifiers_k0_k1_coincide(self):
        # even multi-indices of order <= 2 and <= 3 are the same set in
        # two variables, so both orders solve the same Gram system
        a = build_mollifier(2, 0).poly_coeffs
        b = build_mollifier(2, 1).poly_coeffs
        assert set(a) == set(b)
        for mu in a:
            assert abs(a[mu] - b[mu]) < 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_mollifier(3, 0)
        with pytest.raises(ValueError):
            build_mollifier(1, 5)


class TestYPolynomial:
    def test_rejects_normal_coordinate_power(self):
        with pytest.raises(ValueError):
            YPolynomial(2, {(0, 1): 1.0})

    def test_degree_and_eval(self):
        Q = YPolynomial(2, {(0, 0): 1.0, (2, 0): -3.0})
        assert Q.degree == 2
        t = np.array([0.0, 0.5])
        assert np.allclose(Q.evaluate_foot(t), [1.0, 1.0 - 0.75])


class TestExtension:
    def test_constant_reproduced_exactly(self):
        mol = build_mollifier(1, 0)
        Q = YPolynomial(1, {(0,): 1.0})
        geom = flat_geometry(1)
        pts = np.array([[0.05], [0.2], [-0.1]])
        vals = whitney_extend(mol, Q, geom, pts)
        assert np.max(np.abs(vals - 1.0)) < 1e-8

    def test_flat_polynomial_reproduction(self):
        # flat edge in n = 2: the foot map is affine, so E reproduces
        # any Q of degree <= k + 2
        mol = build_mollifier(2, 0)
        Q = YPolynomial(2, {(0, 0): 0.5, (1, 0): 1.0, (2, 0): -2.0})
        geom = flat_geometry(2)
        pts = np.array([[0.1, 0.05], [-0.2, 0.15], [0.0, 0.3]])
        vals = whitney_extend(mol, Q, geom, pts)
        expect = Q.evaluate_foot(pts[:, 0])
        assert np.max(np.abs(vals - expect)) < 1e-8

    def test_linearity(self):
        mol = build_mollifier(2, 0)
        geom = parabola_geometry(0.25)
        pts = np.array([[0.1, 0.1], [-0.15, 0.2]])
        Qa = YPolynomial(2, {(1, 0): 1.0})
        Qb = YPolynomial(2, {(2, 0): 1.0})
        Qs = YPolynomial(2, {(1, 0): 2.0, (2, 0): -3.0})
        va = whitney_extend(mol, Qa, geom, pts)
        vb = whitney_extend(mol, Qb, geom, pts)
        vs = whitney_extend(mol, Qs, geom, pts)
        assert np.max(np.abs(vs - (2.0 * va - 3.0 * vb))) < 1e-10

    def test_edge_point_rejected(self):
        mol = build_mollifier(1, 0)
        Q = YPolynomial(1, {(0,): 1.0})
        with pytest.raises(OutOfChart):
            whitney_extend(mol, Q, flat_geometry(1), np.array([[0.0]]))

    def test_chart_exit_rejected(self):
        mol = build_mollifier(1, 0)
        Q = YPolynomial(1, {(0,): 1.0})
        with pytest.raises(OutOfChart):
            whitney_extend(mol, Q, flat_geometry(1), np.array([[0.95]]))


class TestJetMatch:
    def test_curved_jet_defect_rates(self):
        # parabola edge, Q = y1^2: defects of E(Q) vs Q o y vanish to
        # order 0 and 1 with rate at least k + 1 = 1
        mol = build_mollifier(2, 0)
        Q = YPolynomial(2, {(2, 0): 1.0})
        geom = parabola_geometry(0.25)
        rows = verify_jet_match(mol, Q, geom, np.array([0.0, 0.0]),
                                orders=(0, 1))
        for row in rows:
            assert row["approach_rate"] >= 1.0 + 1.0 - 0.3, row
            assert row["defects"][-1] < row["defects"][0]

    def test_second_order_rejected(self):
        mol = build_mollifier(2, 0)
        Q = YPolynomial(2, {(2, 0): 1.0})
        with pytest.raises(ValueError):
            verify_jet_match(mol, Q, flat_geometry(2), np.zeros(2), orders=(2,))

    def test_flat_jet_defects_are_rounding(self):
        # flat edge: the extension is exact, defects sit at quadrature
        # rounding scale for every order
        mol = build_mollifier(2, 0)
        Q = YPolynomial(2, {(1, 0): 1.0, (2, 0): 0.5})
        rows = verify_jet_match(mol, Q, flat_geometry(2),
                                np.array([0.0, 0.0]), orders=(0,))
        assert max(rows[0]["defects"]) < 1e-7
