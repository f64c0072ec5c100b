"""Exact-arithmetic tests for the (x, r) polynomial calculus."""

import functools
import json
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slitkit.xrpoly
from slitkit import (
    TruncationWarning,
    XRPolynomial,
    YPolynomial,
    constant_T,
    flat_jet,
    flat_principal,
    foot_jet,
    gamma_jet,
    laplacian_monomial,
    laplacian_of_product,
    solve_approximating,
    solve_pair_systems,
)


def xr(n, coeffs):
    return XRPolynomial(n, coeffs)


@functools.lru_cache(maxsize=None)
def _jet(edge):
    return flat_jet(2, 5) if edge == "flat" else gamma_jet(edge, 5)


class TestAlgebra:
    def test_zero_coefficients_dropped(self):
        p = xr(1, {((1,), 0): 1, ((0,), 1): 0})
        assert dict(p.items()) == {((1,), 0): F(1)}
        assert p.degree == 1

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            xr(1, {((0,), 0): 0.5})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            xr(1, {((-1,), 0): 1})

    def test_ring_ops(self):
        x = XRPolynomial.x_var(1, 0)
        r = XRPolynomial.r_var(1)
        p = (x + r) * (x - r)
        assert p == xr(1, {((2,), 0): 1, ((0,), 2): -1})
        assert (p - p).is_zero()
        assert (F(1, 3) * r).coeff((0,), 1) == F(1, 3)

    def test_diff_and_truncate(self):
        p = xr(2, {((2, 1), 3): F(5)})
        assert p.diff_x(0) == xr(2, {((1, 1), 3): 10})
        assert p.diff_r() == xr(2, {((2, 1), 2): 15})
        assert p.truncate(5).is_zero()
        assert p.truncate(6) == p

    def test_exact_evaluation(self):
        p = xr(1, {((1,), 0): 1, ((0,), 1): F(-1, 2)})
        assert p.evaluate([F(3)], F(4)) == F(1)

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_product_evaluation_homomorphism(self, a, b, c):
        p = xr(1, {((1,), 0): a, ((0,), 1): b})
        q = xr(1, {((0,), 0): c, ((2,), 1): 1})
        x, r = F(2, 3), F(5, 7)
        assert (p * q).evaluate([x], r) == p.evaluate([x], r) * q.evaluate([x], r)


class TestFlatTable:
    """Flat-interface Laplacian brackets, all exact identities.

    Oracle values follow from the polar form x_n = r cos(theta),
    x_{n+1} = r sin(theta), U0 = r^(1/2) cos(theta/2): each product
    x_n^a r^m U0 is a combination of r^(a+m+1/2) cos((2j+1) theta/2)
    modes whose Laplacians close under the same family.
    """

    def test_r_u0(self):
        # r U0 = r^(3/2) cos(theta/2); Delta = (3/2*5/2 - 1/4) r^(-1/2) cos = 2 U0/r * r^0... bracket 2
        assert flat_principal(1, (0,), 1) == xr(1, {((0,), 0): 2})

    def test_xn_u0_harmonic_combination(self):
        # U0 (2 x_n - r) = 2 r^(3/2) cos(3 theta/2) is harmonic
        j = flat_jet(1)
        P = xr(1, {((1,), 0): 2, ((0,), 1): -1})
        assert laplacian_of_product(P, j, 8).total.is_zero()

    def test_kernel_xn_minus_half_r(self):
        j = flat_jet(1)
        P = xr(1, {((1,), 0): 1, ((0,), 1): F(-1, 2)})
        res = laplacian_of_product(P, j, 8)
        assert res.total.is_zero()
        assert res.remainder_order == float("inf")

    def test_tangential_monomials(self):
        assert flat_principal(2, (1, 0), 0).is_zero()
        assert flat_principal(2, (2, 0), 0) == xr(2, {((0, 0), 1): 2})

    def test_general_entry(self):
        # Delta(U0 x_n r^2) bracket: 2*(3+2)* x_n r + 1 * r^2
        assert flat_principal(1, (1,), 2) == xr(1, {((1,), 1): 10, ((0,), 2): 1})

    def test_shifted_entry_m_minus_one(self):
        # m = -1 is legal when mu_n = 0 keeps powers nonnegative:
        # Delta(U0 x_1 / r) bracket = 0 (n=2), i.e. U0 x_1 / r is harmonic
        assert flat_principal(2, (1, 0), -1).is_zero()

    def test_negative_power_materialization_raises(self):
        with pytest.raises(ValueError):
            flat_principal(1, (1,), -1)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_numeric_flat_bracket(self, a, b, m):
        """Compare the symbolic flat table with central finite differences."""
        import math

        mu = (a, b)
        j = flat_jet(2)
        bracket = flat_principal(2, mu, m)

        def u(x1, x2, z):
            r = math.hypot(x2, z)
            u0 = math.sqrt(max((x2 + r) / 2, 0.0))
            return u0 * x1**a * x2**b * r**m

        p = (0.31, 0.4, 0.23)
        h = 1e-4
        lap = 0.0
        for i in range(3):
            e = [0.0, 0.0, 0.0]
            e[i] = h
            lap += (u(*(c + d for c, d in zip(p, e))) - 2 * u(*p)
                    + u(*(c - d for c, d in zip(p, e)))) / h**2
        r = math.hypot(p[1], p[2])
        u0 = math.sqrt((p[1] + r) / 2)
        expect = u0 / r * float(bracket.evaluate([F(31, 100), F(2, 5)], F(r)))
        assert lap == pytest.approx(expect, rel=5e-4, abs=5e-4)


class TestCurvedTable:
    def test_constant_profile_picks_up_distance_laplacian(self):
        # parabolic edge x_2 = x_1^2/4 has curvature 1/2 at the tip;
        # Delta d = -1/2 there, so the bracket of Delta(U0 * 1) starts at -1/4
        jet = gamma_jet("t**2/4", order=4)
        res = laplacian_monomial((0, 0), 0, jet, 2)
        curved = res.total - flat_principal(2, (0, 0), 0)
        assert curved == res.total  # U0 itself is flat-harmonic
        assert curved.coeff((0, 0), 0) == F(-1, 4)
        assert res.remainder_order == 3

    def test_remainder_order_is_capped_by_the_jet(self):
        # kappa of an order-3 jet stops at degree 2, so the entry can be
        # wrong from degree 3 on even when asked for degree 4
        jet = gamma_jet("5*t**2/32 - 3*t**3/32", order=3)
        assert laplacian_monomial((1, 0), 1, jet, 4).remainder_order == 3
        assert laplacian_monomial((1, 0), 1, jet, 1).remainder_order == 2

    def test_curved_terms_start_above_flat_degree(self):
        jet = gamma_jet("t**2/4", order=5)
        for mu, m in [((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((0, 0), 1), ((2, 0), 1)]:
            curved = laplacian_monomial(mu, m, jet, 5).total - flat_principal(2, mu, m)
            flat_deg = sum(mu) + m - 1
            if not curved.is_zero():
                low = min(sum(s) + l for (s, l), _ in curved.items())
                assert low > flat_deg

    def test_entries_are_cut_at_k(self):
        # one cut rule: a curved entry keeps no term above degree k, also
        # when its flat part alone reaches past k (|mu| + m > k + 1)
        jet = gamma_jet("5*t**2/32 + 7*t**3/32", order=5)
        for k in range(4):
            for deg in range(k + 4):
                for m in range(deg + 1):
                    for a in range(deg - m + 1):
                        entry = laplacian_monomial((a, deg - m - a), m, jet, k).total
                        assert entry.degree <= k, (a, deg - m - a, m, k)
        assert laplacian_monomial((2, 0), 0, gamma_jet("t**2/4", 3), 0).total.is_zero()

    @given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
                           st.integers(-4, 4), max_size=5),
           st.sampled_from(["flat", "t**2/4", "5*t**2/32 - 3*t**3/32"]), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_product_is_the_sum_of_its_entries(self, coeffs, edge, k):
        jet = _jet(edge)
        P = xr(2, {((a, b), m): F(c, 3) for (a, b, m), c in coeffs.items()})
        entries = [c * laplacian_monomial(mu, m, jet, k).total for (mu, m), c in P.items()]
        assert laplacian_of_product(P, jet, k).total == sum(entries, XRPolynomial.zero(2))

    def test_numeric_curved_bracket(self):
        """Full curved bracket against finite differences of the true frame."""
        import numpy as np

        from slitkit import frame_fields, parabola_geometry

        geom = parabola_geometry(F(1, 4))
        jet = gamma_jet("t**2/4", order=8)
        mu, m = (1, 1), 1

        # the point p, then its neighbours p + h e_i and p - h e_i
        p = np.array([0.11, 0.17, 0.13])
        h = 2e-4
        pts = np.vstack([p, p + h * np.eye(3), p - h * np.eye(3)])
        fr = frame_fields(geom, pts[:, :2], pts[:, 2])
        u = fr["u0"] * pts[:, 0] ** mu[0] * pts[:, 1] ** mu[1] * fr["r"] ** m
        lap = sum(u[1 + i] - 2 * u[0] + u[4 + i] for i in range(3)) / h**2
        bracket = laplacian_monomial(mu, m, jet, 8).total
        r0 = fr["r"][0]
        expect = fr["u0"][0] / r0 * float(bracket.evaluate([F(11, 100), F(17, 100)], F(r0)))
        assert lap == pytest.approx(expect, rel=2e-3)


class TestApproximatingSolve:
    def test_short_curved_jet_warns(self):
        # kappa of an order-3 jet stops at degree 2, short of k = 3
        jet = gamma_jet("5*t**2/32 - 3*t**3/32", order=3)
        with pytest.warns(TruncationWarning, match="order 3"):
            solve_approximating(jet, XRPolynomial.zero(2), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            solve_approximating(jet, XRPolynomial.zero(2), 2)
            solve_approximating(flat_jet(2, 1), XRPolynomial.zero(2), 3)

    def test_flat_constant_rhs(self):
        j = flat_jet(1)
        P = solve_approximating(j, XRPolynomial.constant(1, F(1, 3)), 3)
        assert P == xr(1, {((0,), 1): F(1, 6)})

    def test_flat_free_linear_input(self):
        j = flat_jet(1)
        P = solve_approximating(j, XRPolynomial.zero(1), 4, free={(1,): 1})
        assert P == xr(1, {((1,), 0): 1, ((0,), 1): F(-1, 2)})

    def test_residual_vanishes_to_order_k(self):
        jet = gamma_jet("t**2/4", order=6)
        k = 4
        R = xr(2, {((0, 0), 0): F(1, 5), ((1, 0), 1): F(-1, 7)})
        P = solve_approximating(jet, R, k, free={(0, 1): F(1, 2), (2, 0): F(-1, 3)})
        resid = laplacian_of_product(P, jet, k).total - R
        assert resid.truncate(k).is_zero()
        assert P.degree <= k + 1

    def test_curved_constant_profile_coefficients(self):
        # free a_0 = 1 with curvature 1/2 at the tip: the r-coefficient
        # compensates Delta d / 2 = -1/4, giving a_{0,1} = +1/8
        jet = gamma_jet("t**2/4", order=4)
        P = solve_approximating(jet, XRPolynomial.zero(2), 2, free={(0, 0): 1})
        assert P.coeff((0, 0), 1) == F(1, 8)

    def test_rhs_degree_guard(self):
        j = flat_jet(1)
        with pytest.raises(ValueError):
            solve_approximating(j, XRPolynomial.monomial(1, (3,), 2), 3)

    def test_normalization_guard(self):
        j = flat_jet(1)
        with pytest.raises(ValueError):
            solve_approximating(j, XRPolynomial.constant(1, 2), 3)
        with pytest.raises(ValueError):
            solve_approximating(j, XRPolynomial.zero(1), 3, free={(1,): 2})

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_free_data(self, a, b):
        j = flat_jet(2)
        fa = {(1, 0): F(a, 3)}
        fb = {(0, 1): F(b, 3)}
        Pa = solve_approximating(j, XRPolynomial.zero(2), 3, free=fa)
        Pb = solve_approximating(j, XRPolynomial.zero(2), 3, free=fb)
        Pab = solve_approximating(j, XRPolynomial.zero(2), 3, free={**fa, **fb})
        assert Pab == Pa + Pb


class TestSweep:
    # the recorded sweeps include curved jets shorter than k + 1 on purpose
    @pytest.mark.filterwarnings("ignore::slitkit.errors.TruncationWarning")
    def test_matches_reference_sweeps(self):
        # exact outputs recorded from the earlier per-unknown solvers
        ref = json.loads((Path(__file__).parent / "data" / "sweeps.json").read_text())
        jets, feet = {}, {}

        def jet_of(desc):
            key = json.dumps(desc, sort_keys=True)
            if key not in jets:
                if "flat" in desc:
                    jets[key] = flat_jet(desc["flat"], desc.get("order", 8))
                else:
                    jets[key] = gamma_jet(desc["g"], desc["order"])
            return jets[key]

        def poly(n, entries):
            return XRPolynomial(n, {(tuple(mu), m): F(c) for mu, m, c in entries})

        def data(entries):
            return {tuple(mu): v if isinstance(v, float) else F(v) for mu, v in entries}

        for case in ref["solve_approximating"]:
            jet = jet_of(case["jet"])
            P = solve_approximating(jet, poly(jet.n, case["R"]), case["k"], free=data(case["free"]))
            assert P == poly(jet.n, case["P"]), case
        for case in ref["solve_pair_systems"]:
            desc, kw = case["jet"], {}
            if "weight" in case:
                kw["weight"] = poly(2, case["weight"])
            if "free_b1" in case:
                kw["free_b1"] = data(case["free_b1"])
            if "g" in desc:
                foot_key = (desc["g"], desc["foot_order"])
                if foot_key not in feet:
                    feet[foot_key] = foot_jet(*foot_key)
                kw["foot"] = feet[foot_key]
                kw["edge"] = [F(e) for e in desc["edge"]]
            pair = solve_pair_systems(jet_of(desc), YPolynomial(2, data(case["q"])), case["k"], **kw)
            assert pair.P == poly(2, case["P"]), case
            assert pair.residual == poly(2, case["residual"]), case
        for case in ref["constant_T"]:
            T = constant_T(case["n"], case["k"], q=data(case["q"]), free_b1=data(case["free_b1"]))
            assert T == poly(case["n"], case["T"]), case

    def test_each_table_entry_is_built_once(self, monkeypatch):
        # the sweep adds each pinned coefficient's table entry to a running
        # bracket, so no monomial is tabulated twice and none that P lacks
        calls = []
        real = slitkit.xrpoly.laplacian_monomial

        def counting(mu, m, jet, k):
            calls.append((tuple(mu), m))
            return real(mu, m, jet, k)

        monkeypatch.setattr(slitkit.xrpoly, "laplacian_monomial", counting)
        jet = gamma_jet("5*t**2/32 - 3*t**3/32", order=5)
        R = xr(2, {((0, 0), 0): F(1, 5), ((1, 0), 1): F(-1, 7)})
        P = solve_approximating(jet, R, 4, free={(0, 1): F(1, 2), (2, 0): F(-1, 3)})
        keys = [key for key, _ in P.items()]
        assert len(calls) == len(set(calls)) <= len(keys)
        assert set(calls) <= set(keys)
