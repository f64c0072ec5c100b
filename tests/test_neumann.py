"""Tests for the degenerate Neumann quotient machinery."""

import warnings
from fractions import Fraction

import numpy as np
import sympy as sp
import pytest

from slitkit import (
    DegenerateWeight,
    GridSolution,
    QuotientField,
    TruncationWarning,
    XRPolynomial,
    YPolynomial,
    constant_T,
    fit_quotient_expansion,
    flat_geometry,
    flat_jet,
    gamma_jet,
    neumann_rate,
    parabola_geometry,
    quotient,
    solve_fd,
    solve_pair_systems,
    t_nu_on_edge,
    weighted_laplacian_bracket,
)
from slitkit.solver import make_axes

T_SYM = sp.symbols("t")


class TestBracket:
    def test_constant_weight_is_killed(self):
        # V = r: U0/r * r = U0 is harmonic, bracket must vanish
        jet = flat_jet(1, 3)
        V = XRPolynomial(1, {((0,), 1): 1})
        assert weighted_laplacian_bracket(V, jet).is_zero()

    def test_flat_x_r_pair(self):
        # V = x - r: U0 (x - r)/r = -Re z^{1/2} conj-part... check by
        # the exact identity U0 (2x - r) = r^{3/2} cos(3t/2): the
        # harmonic combination is 2x - r, so its bracket vanishes
        jet = flat_jet(1, 3)
        V = XRPolynomial(1, {((1,), 0): 2, ((0,), 1): -1})
        # note V here multiplies U0/r, so harmonicity needs r * (2x - r)
        assert weighted_laplacian_bracket(V.mul_r_power(1), jet).is_zero()

    def test_linearity(self):
        jet = flat_jet(2, 3)
        A = XRPolynomial(2, {((1, 0), 1): 1})
        B = XRPolynomial(2, {((0, 2), 0): 1, ((0, 0), 2): 3})
        lhs = weighted_laplacian_bracket(A + 2 * B, jet)
        rhs = weighted_laplacian_bracket(A, jet) + 2 * weighted_laplacian_bracket(B, jet)
        assert (lhs - rhs).is_zero()

    def test_curved_terms_enter(self):
        jet = gamma_jet(T_SYM**2 / 2, 3)
        V = XRPolynomial(2, {((0, 0), 1): 1})
        R = weighted_laplacian_bracket(V, jet, degree=3)
        assert not R.is_zero()


class TestConstantT:
    def test_q_x1_squared_gives_x1sq_minus_rsq(self):
        T = constant_T(2, 1, q={(2, 0): 1})
        expect = XRPolynomial(2, {((2, 0), 0): 1, ((0, 0), 2): -1})
        assert (T - expect).is_zero()

    def test_constant_q_is_already_solution(self):
        T = constant_T(2, 0, q={(0, 0): 1})
        assert (T - XRPolynomial.constant(2, 1)).is_zero()

    def test_solution_property(self):
        # any constant_T output is killed by the weighted bracket: the
        # continuum statement is Delta((U0/r) T) = 0
        jet = flat_jet(2, 5)
        for q in ({(2, 0): 1}, {(1, 0): 3}, {(3, 0): 1, (0, 0): -2}):
            T = constant_T(2, 2, q=q)
            R = weighted_laplacian_bracket(T, jet)
            assert R.is_zero(), (q, str(R))

    def test_edge_neumann_trace_vanishes(self):
        T = constant_T(2, 2, q={(3, 0): 1, (2, 0): -1})
        assert t_nu_on_edge(T).is_zero()

    def test_negative_control_r_has_nonzero_trace(self):
        # T = r is not an admissible solution: its edge normal trace is 1
        T = XRPolynomial(2, {((0, 0), 1): 1})
        tr = t_nu_on_edge(T)
        assert float(tr.coeff((0, 0), 0)) == 1.0

    def test_free_b1_layer(self):
        T = constant_T(2, 1, q={(0, 0): 1}, free_b1={(0, 1): Fraction(1, 3)})
        assert T.coeff((0, 1), 1) == Fraction(1, 3)
        jet = flat_jet(2, 4)
        assert weighted_laplacian_bracket(T, jet).is_zero()

    def test_q_on_normal_index_rejected(self):
        with pytest.raises(ValueError):
            constant_T(2, 0, q={(0, 1): 1})


class TestPairSystems:
    def test_flat_k0_x1sq(self):
        # Q = x1^2 with the constant weight 1/2: V = Q/2 + rP harmonic
        # against the weight forces P = -r/2 (matching Q + rP' with the
        # pair scaling)
        jet = flat_jet(2, 4)
        Q = YPolynomial(2, {(2, 0): 1})
        pair = solve_pair_systems(jet, Q, k=0)
        assert pair.residual.is_zero()
        assert pair.P.coeff((0, 0), 1) == Fraction(-1, 2)

    def test_flat_zero_q(self):
        jet = flat_jet(2, 4)
        pair = solve_pair_systems(jet, YPolynomial(2, {}), k=1)
        assert pair.P.is_zero()
        assert pair.residual.is_zero()

    @pytest.mark.parametrize("k, free_b1, q", [
        pytest.param(k, None, None, id=f"k{k}") for k in range(4)
    ] + [pytest.param(2, {(0, 1): Fraction(1, 3), (1, 1): Fraction(-2, 5)}, None,
                      id="k2-free_b1"),
         pytest.param(1, None, {(2, 0): 0.1}, id="k1-float_q")])
    def test_consistency_with_constant_T(self, k, free_b1, q):
        # Q + 2 r P reproduces the constant-coefficient family (for
        # Q = x1^2 at k = 1, T = x1^2 - r^2 means P = -r/2); constant_T is
        # built on this identity, so T is also checked to be a solution.
        # A float Q coefficient enters both entry points as the same
        # exact binary fraction.
        jet = flat_jet(2, k + 4)
        Q = YPolynomial(2, q or {(2, 0): 1, (3, 0): Fraction(-1, 2)})
        half = {mu: v / 2 for mu, v in (free_b1 or {}).items()}
        pair = solve_pair_systems(jet, Q, k=k, free_b1=half)
        T = constant_T(2, k, q=Q.coefficients, free_b1=free_b1)
        W = _q_poly(Q).truncate(k + 2) + 2 * pair.P.mul_r_power(1)
        assert (W - T).is_zero()
        assert weighted_laplacian_bracket(T, jet).is_zero()
        assert t_nu_on_edge(T).is_zero()
        for mu, v in (free_b1 or {}).items():
            assert T.coeff(mu, 1) == v
        if q is not None:
            assert T == XRPolynomial(2, {((2, 0), 0): Fraction(0.1), ((0, 0), 2): -Fraction(0.1)})
        elif k == 1 and free_b1 is None:
            assert T == XRPolynomial(2, {((2, 0), 0): 1, ((0, 0), 2): -1,
                                         ((3, 0), 0): Fraction(-1, 2),
                                         ((1, 0), 2): Fraction(3, 2)})

    def test_curved_k0_no_shift(self):
        # curvature enters the corrector equations only at degree k + 2,
        # so the degree-1 corrector is unchanged from flat
        jet = gamma_jet(T_SYM**2 / 2, 4)
        Q = YPolynomial(2, {(2, 0): 1})
        flat_pair = solve_pair_systems(flat_jet(2, 4), Q, k=0)
        curved = solve_pair_systems(jet, Q, k=0, foot=None,
                                    edge=[0, 0, Fraction(1, 2)])
        assert (curved.P - flat_pair.P).is_zero()

    def test_curved_k1_shift(self):
        # unit-curvature parabola, k = 1: the corrector picks up the
        # curvature shift 1/16 r^2 - 5/8 x2 r relative to flat
        jet = gamma_jet(T_SYM**2 / 2, 5)
        from slitkit import foot_jet
        foot = foot_jet(T_SYM**2 / 2, 4)
        Q = YPolynomial(2, {(2, 0): 1})
        flat_pair = solve_pair_systems(flat_jet(2, 5), Q, k=1)
        curved = solve_pair_systems(jet, Q, k=1, foot=foot,
                                    edge=[0, 0, Fraction(1, 2)])
        shift = curved.P - flat_pair.P
        assert shift.coeff((0, 0), 2) == Fraction(1, 16)
        assert shift.coeff((0, 1), 1) == Fraction(-5, 8)

    def test_curved_residual_is_low_order_only(self):
        # the leftover residual reflects the constant-weight truncation:
        # it may live at degree k + 2 but not below
        jet = gamma_jet(T_SYM**2 / 2, 5)
        from slitkit import foot_jet
        foot = foot_jet(T_SYM**2 / 2, 4)
        Q = YPolynomial(2, {(2, 0): 1})
        pair = solve_pair_systems(jet, Q, k=1, foot=foot,
                                  edge=[0, 0, Fraction(1, 2)])
        for (mu, m), v in pair.residual.items():
            assert sum(mu) + m >= pair.k + 2, (mu, m, v)

    def test_curved_default_foot_is_edge_foot(self):
        # without foot=, Q is composed with the edge's own closest-point
        # parameter, not with t = x1
        from slitkit import foot_jet
        jet = gamma_jet(T_SYM**2 / 2, 5)
        Q = YPolynomial(2, {(2, 0): 1})
        edge = [0, 0, Fraction(1, 2)]
        default = solve_pair_systems(jet, Q, k=1, edge=edge)
        given = solve_pair_systems(jet, Q, k=1, foot=foot_jet(T_SYM**2 / 2, 4), edge=edge)
        assert default.P == given.P
        assert default.residual == given.residual

    def test_short_curved_jet_warns(self):
        # the corrector equals a longer jet's once the jet order reaches
        # k; an order-2 jet at k = 3 changes P from degree 4 on
        Q = YPolynomial(2, {(2, 0): 1})
        edge = [0, 0, Fraction(1, 4)]
        with pytest.warns(TruncationWarning, match="order 2 < k = 3"):
            short = solve_pair_systems(gamma_jet(T_SYM**2 / 4, 2), Q, k=3, edge=edge)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            exact = solve_pair_systems(gamma_jet(T_SYM**2 / 4, 3), Q, k=3, edge=edge)
        assert (short.P - exact.P).truncate(3).is_zero()
        assert not (short.P - exact.P).is_zero()

    def test_missing_edge_series_rejected(self):
        jet = gamma_jet(T_SYM**2 / 2, 4)
        with pytest.raises(ValueError):
            solve_pair_systems(jet, YPolynomial(2, {(2, 0): 1}), k=0)


def _q_poly(Q: YPolynomial) -> XRPolynomial:
    out = XRPolynomial.zero(Q.n)
    for mu, c in Q.coefficients.items():
        out = out + XRPolynomial.monomial(Q.n, mu, 0, Fraction(c))
    return out


def phi_flat(x, z):
    return np.sqrt((x + np.hypot(x, z)) / 2.0)


class TestQuotient:
    @pytest.fixture(scope="class")
    def sol(self):
        return solve_fd(flat_geometry(1), phi_flat, h=2**-5, split=True)

    def test_quotient_of_pure_u0_vanishes(self, sol):
        # n = 1: the only component is i = 0 = n - 1, so w = u_n/u_n = 1
        w = quotient(sol, 0)
        vals = w.values[w.valid]
        assert np.all(np.isfinite(vals))
        assert np.abs(vals - 1.0).max() < 1e-10

    def test_valid_excludes_slit(self, sol):
        w = quotient(sol, 0)
        assert not np.any(w.valid & sol.slit_mask)

    def test_bad_component_rejected(self, sol):
        with pytest.raises(ValueError):
            quotient(sol, 1)

    def test_degenerate_weight_detected(self, sol):
        # flipping the solution's sign on half the domain makes u_n
        # change sign on the valid set
        import copy

        bad = copy.copy(sol)
        bad.values = sol.values * np.where(
            np.arange(sol.values.shape[0])[:, None] < sol.values.shape[0] // 2, -1.0, 1.0)
        with pytest.raises(DegenerateWeight):
            quotient(bad, 0)

    def test_trace_and_normal_flat(self, sol):
        w = quotient(sol, 0)
        tr, dn = w.trace_and_normal(np.zeros(1))
        assert abs(tr - 1.0) < 1e-8
        assert abs(dn) < 1e-6


class TestQuotientGrids:
    @staticmethod
    def _curved_solve(h):
        # the grid3d benchmark's seed-36 data: a = 9/32, b = (-0.220815,
        # -0.239575), the split solve on the power-2 graded grid
        a, b = Fraction(9, 32), (-0.220815, -0.239575)

        def phi(x1, x2, z):
            return phi_flat(x2 - float(a) * x1**2, z) * (1.0 + b[0] * x1 + b[1] * x2)

        return solve_fd(parabola_geometry(a), phi, h=h, grading={"type": "power", "p": 2.0},
                        split=True)

    def test_outer_dirichlet_nodes_do_not_count(self):
        # at h = 1/24 every negative u_n node is an outer Dirichlet node
        # near the box corner (1, 1, 1), where u is the boundary data
        sol = self._curved_solve(1 / 24)
        w = quotient(sol, 0)
        assert not np.any(w.valid & sol.dirichlet_mask)

    def test_interior_sign_change_still_raises(self):
        # at h = 1/16 most negative u_n nodes are interior ones
        with pytest.raises(DegenerateWeight, match="negative nodes"):
            quotient(self._curved_solve(1 / 16), 0)

    def test_trace_uses_the_grid_step(self):
        # make_axes rounds the node count, so h = 0.0624 builds the 1/16
        # grid, and the trace must step by that grid's spacing
        def phi(x1, x2, z):
            return phi_flat(x2, z) * (1.0 + 0.3 * x1 + 0.2 * x2)

        assert all(np.array_equal(a, b) for a, b in zip(make_axes(2, 0.0624), make_axes(2, 1 / 16)))
        Z = np.array([0.1, 0.0])
        traces = [quotient(solve_fd(flat_geometry(2), phi, h=h), 0).trace_and_normal(Z)
                  for h in (0.0624, 1 / 16)]
        assert traces[0] == traces[1]


class TestQuotientRates:
    def test_rate_about_off_origin_edge_point(self):
        # w = 1 + (x1 - 1/4)/2 + r/4 is a degree-1 polynomial in x - Z
        # at Z = (1/4, 0): the fit recovers it and the sup errors of
        # w - T0 sit at rounding level on every ball around Z
        h = 1 / 32
        axes = make_axes(2, h)
        dims = tuple(len(a) for a in axes)
        outer = sum(g**2 for g in np.meshgrid(*axes, indexing="ij")) >= 1.0
        sol = GridSolution(geom=flat_geometry(2), axes=axes, values=np.zeros(dims),
                           slit_mask=np.zeros(dims, bool), dirichlet_mask=outer, h=h)
        fr = sol.node_frames()
        vals = 1.0 + 0.5 * (fr["x"][:, 0] - 0.25) + 0.25 * fr["r"]
        w = QuotientField(u=sol, i=0, values=vals.reshape(dims), valid=~outer)
        Z = np.array([0.25, 0.0])
        T0 = fit_quotient_expansion(w, Z, degree=1, rmax=0.5)
        assert float(T0.coeff((1, 0), 0)) == pytest.approx(0.5, abs=1e-12)
        assert float(T0.coeff((0, 0), 1)) == pytest.approx(0.25, abs=1e-12)
        rep = neumann_rate(w, T0, Z, [0.5, 0.42, 0.35, 0.3], target=2.0)
        assert rep.errors.max() < 1e-12
