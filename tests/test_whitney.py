"""Tests for the moment-vanishing mollifier and edge extension."""

import numpy as np
import pytest

from slitkit import whitney
from slitkit.expansion import _order
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
        # a negative order would return the bare bump, with no vanishing moments
        with pytest.raises(ValueError):
            build_mollifier(2, -1)


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

    def test_k2_rates_are_measured(self):
        # at k = 2 the order-0 defects fall 5.4e-12, 7.7e-14, 1.1e-15, ...
        # at rate about 6; an absolute 1e-13 floor kept only the first,
        # so the row read inf.  The floor follows Q on the quadrature ball
        rows = verify_jet_match(build_mollifier(2, 2), YPolynomial(2, {(2, 0): 1.0}),
                                parabola_geometry(0.25), np.zeros(2))
        for row in rows:
            assert 3.0 <= row["approach_rate"] < np.inf, row

    def test_rounding_is_not_a_rate(self):
        # flat edge: E(Q) - Q o y is rounding at every approach, so no
        # defect clears the floor: the rate reads exact (inf), not a
        # fitted number, and the jet match passes, since E(Q)
        # reproduces Q to rounding
        for k in (0, 2):
            rows = verify_jet_match(build_mollifier(2, k),
                                    YPolynomial(2, {(1, 0): 1.0, (2, 0): 0.5}),
                                    flat_geometry(2), np.zeros(2))
            assert [row["approach_rate"] for row in rows] == [np.inf, np.inf]
            assert whitney.jet_match_passed(rows, k)

    def test_unmeasured_rate_fails(self, monkeypatch, tmp_path):
        # one defect above the floor leaves the row's rate unmeasured
        # (NaN), which must not pass the CLI or criterion 6
        from slitkit import cli

        def stub(mol, Q, geom, Z, orders=(0, 1)):
            approaches = [2.0**-j for j in range(3, 8)]
            defects = [3e-13, 2e-17, 1e-17, 1e-17, 1e-17]
            return [{"order": m, "approaches": approaches, "defects": defects,
                     "approach_rate": _order(approaches, defects, 1e-13)[0]} for m in orders]

        monkeypatch.setattr(whitney, "verify_jet_match", stub)
        rows = stub(None, None, None, None)
        assert all(np.isnan(row["approach_rate"]) for row in rows)
        assert not whitney.jet_match_passed(rows, 0)
        assert cli.main(["whitney", "--n", "2", "--output", str(tmp_path)]) == 1

    def test_one_evaluation_pass(self, monkeypatch):
        # one extension call for all 15 sample points, and two frame
        # calls: the normal at Z and the feet of those points
        calls = {"extend": 0, "frames": 0}
        real_frames = whitney.frame_fields

        def extend(mol, Q, geom, points):
            calls["extend"] += 1
            return np.zeros(len(points))

        def frames(*args):
            calls["frames"] += 1
            return real_frames(*args)

        monkeypatch.setattr(whitney, "whitney_extend", extend)
        monkeypatch.setattr(whitney, "frame_fields", frames)
        verify_jet_match(build_mollifier(2, 0), YPolynomial(2, {(2, 0): 1.0}),
                         parabola_geometry(0.25), np.zeros(2))
        assert calls == {"extend": 1, "frames": 2}

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
