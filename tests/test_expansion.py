"""Tests for tangent fitting, rate reports, and formal derivatives."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitkit import (
    IllConditioned,
    InsufficientResolution,
    RateReport,
    XRPolynomial,
    derivative_rate_checks,
    evaluate_poly,
    fit_tangent,
    flat_geometry,
    flat_jet,
    formal_gradient,
    formal_hessian,
    rate_report,
    solve_fd,
)
from slitkit.expansion import _order
from slitkit.solver import empty_solution

SCALES = [2.0**-j for j in range(1, 6)]


def phi_flat(x, z):
    return np.sqrt((x + np.hypot(x, z)) / 2.0)


class TestRateReport:
    def _mk(self, errors, **kw):
        return RateReport(scales=np.array(SCALES), errors=np.asarray(errors),
                          exponent=kw.pop("exponent", 1.0),
                          residual=kw.pop("residual", 0.0),
                          target=kw.pop("target", 1.0), **kw)

    def test_requires_four_scales(self):
        with pytest.raises(ValueError):
            RateReport(scales=np.array([0.5, 0.25, 0.125]),
                       errors=np.zeros(3), exponent=1.0, residual=0.0, target=1.0)

    def test_requires_decreasing_scales(self):
        with pytest.raises(ValueError):
            RateReport(scales=np.array([0.125, 0.25, 0.5, 1.0]),
                       errors=np.zeros(4), exponent=1.0, residual=0.0, target=1.0)

    def test_rejects_negative_errors(self):
        with pytest.raises(ValueError):
            self._mk([1.0, 0.5, -0.1, 0.1, 0.05])

    def test_pass_logic(self):
        e = [0.1, 0.05, 0.025, 0.0125, 0.00625]
        assert self._mk(e, exponent=1.0).passed
        assert not self._mk(e, exponent=0.5).passed          # below target - margin
        assert self._mk(e, exponent=0.85).passed             # inside the margin
        assert not self._mk(e, exponent=1.0, residual=0.5).passed
        assert self._mk(e, exponent=math.inf).passed           # exact decay
        assert not self._mk(e, exponent=math.nan, residual=math.nan).passed  # unmeasured


# four or five dyadic scales, 2^-1 downwards
DYADIC = st.integers(4, 5).map(lambda m: np.array([2.0**-j for j in range(1, m + 1)]))


class TestOrder:
    """``_order``, the one estimator of an observed order."""

    @given(DYADIC, st.floats(0.5, 6.0), st.floats(1e-2, 1e2))
    @settings(max_examples=60, deadline=None)
    def test_power_law_gives_its_exponent(self, s, p, c):
        expo, resid = _order(s, c * s**p, 1e-12)
        assert expo == pytest.approx(p, abs=1e-9)
        assert resid < 1e-9

    @given(DYADIC, st.data())
    @settings(max_examples=60, deadline=None)
    def test_nan_error_is_unmeasured(self, s, data):
        e = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-16, 1e2)),
                                        min_size=len(s), max_size=len(s))))
        e[data.draw(st.integers(0, len(s) - 1))] = math.nan
        expo, resid = _order(s, e, 1e-12)
        assert math.isnan(expo) and math.isnan(resid)

    @staticmethod
    def _at_floor(s, data):
        """A scalar or per-error floor, and errors at or below it."""
        floor = data.draw(st.one_of(
            st.floats(1e-16, 1e-6),
            st.lists(st.floats(1e-16, 1e-6), min_size=len(s), max_size=len(s)).map(np.array)))
        frac = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(s), max_size=len(s)))
        return floor, np.broadcast_to(floor, s.shape) * np.array(frac)

    @given(DYADIC, st.data())
    @settings(max_examples=60, deadline=None)
    def test_errors_at_the_floor_are_exact(self, s, data):
        floor, e = self._at_floor(s, data)
        assert _order(s, e, floor) == (math.inf, 0.0)

    @given(DYADIC, st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_error_above_the_floor_is_unmeasured(self, s, data):
        floor, e = self._at_floor(s, data)
        i = data.draw(st.integers(0, len(s) - 1))
        e[i] = np.broadcast_to(floor, e.shape)[i] * data.draw(st.floats(1.5, 1e6))
        expo, resid = _order(s, e, floor)
        assert math.isnan(expo) and math.isnan(resid)


class TestSeriesRates:
    """The half-angle series fields U0 = Re z^{1/2} and
    U0 + 0.3 Re z^{3/2} = U0 (1 + 0.3 (2x - r)), set exactly at the
    nodes of the flat 2^-9 grid (no solve)."""

    @pytest.fixture(scope="class")
    def grid(self):
        return empty_solution(flat_geometry(1), 2**-9)

    @pytest.fixture(scope="class")
    def exact_u0(self, grid):
        return replace(grid, values=grid.node_frames()["u0"].reshape(grid.dims))

    @pytest.fixture(scope="class")
    def three_half(self, grid):
        fr = grid.node_frames()
        u = fr["u0"] * (1.0 + 0.3 * (2.0 * fr["x"][:, 0] - fr["r"]))
        return replace(grid, values=u.reshape(grid.dims))

    def test_exact_tangent_gives_exact_report(self, exact_u0):
        # u = U0 itself: the quotient is identically 1
        P0 = XRPolynomial.constant(1, 1)
        rep = rate_report(exact_u0, P0, None, SCALES, target=1.0)
        assert rep.exponent == math.inf and rep.passed

    def test_linear_decay_of_truncated_tangent(self, three_half):
        # dropping the linear part of 1 + 0.3 (2x - r) leaves an error
        # decaying like lambda
        P0 = XRPolynomial.constant(1, 1)
        rep = rate_report(three_half, P0, None, SCALES, target=1.0)
        assert abs(rep.exponent - 1.0) < 0.05
        assert rep.residual < 0.1
        assert rep.passed

    def test_fit_tangent_recovers_series_coefficients(self, three_half):
        P0 = fit_tangent(three_half, None, degree=1, rmax=0.25)
        # u/U0 = 1 + 0.3 (2x - r)
        assert abs(float(P0.coeff((0,), 0)) - 1.0) < 1e-6
        assert abs(float(P0.coeff((1,), 0)) - 0.6) < 1e-5
        assert abs(float(P0.coeff((0,), 1)) + 0.3) < 1e-5

    def test_ball_mode_errors_monotone(self, three_half):
        P0 = XRPolynomial.constant(1, 1)
        rep = rate_report(three_half, P0, None, SCALES, target=1.0, mode="ball")
        assert np.all(np.diff(rep.errors) <= 1e-15)

    def test_min_cos_preserves_clean_rate(self, three_half):
        P0 = XRPolynomial.constant(1, 1)
        rep = rate_report(three_half, P0, None, SCALES, target=1.0, min_cos=0.5)
        assert abs(rep.exponent - 1.0) < 0.1

    def test_unknown_mode_rejected(self, exact_u0):
        with pytest.raises(ValueError):
            rate_report(exact_u0, XRPolynomial.constant(1, 1), None, SCALES,
                        target=1.0, mode="annulus")


class TestGridRates:
    @pytest.fixture(scope="class")
    def sol(self):
        return solve_fd(flat_geometry(1), phi_flat, h=2**-5, split=True)

    def test_grid_rate_report(self, sol):
        P0 = fit_tangent(sol, np.zeros(1), degree=1, rmax=0.5)
        rep = rate_report(sol, P0, np.zeros(1), [0.7, 0.5, 0.35, 0.25],
                          target=1.0, min_cos=0.5, mode="ball", min_nodes=30)
        # data is exactly U0: everything is discretization error, so the
        # report must at least be finite and nonnegative
        assert np.all(rep.errors >= 0)
        assert rep.errors[0] < 0.1

    def test_insufficient_resolution(self, sol):
        P0 = XRPolynomial.constant(1, 1)
        with pytest.raises(InsufficientResolution):
            rate_report(sol, P0, np.zeros(1),
                        [2.0**-j for j in range(4, 10)], target=1.0)

    def test_ill_conditioned_fit(self, sol):
        with pytest.raises(IllConditioned):
            fit_tangent(sol, np.zeros(1), degree=2, rmax=0.25, cond_limit=1.0)


class TestFormalDerivatives:
    def test_gradient_of_constant_is_half_nu(self):
        jet = flat_jet(1, 2)
        grads = formal_gradient(XRPolynomial.constant(1, 1), jet)
        assert len(grads) == 1
        assert abs(float(grads[0].coeff((0,), 0)) - 0.5) < 1e-15
        assert grads[0].degree <= 0

    def test_gradient_of_three_half_profile(self):
        # u = U0 (2x - r) = Re z^{3/2}: du/dx = (3/2) U0, so the formal
        # quotient P^x must equal (3/2) r exactly
        jet = flat_jet(1, 3)
        P0 = XRPolynomial(1, {((1,), 0): 2, ((0,), 1): -1})
        gx = formal_gradient(P0, jet)[0]
        assert abs(float(gx.coeff((0,), 1)) - 1.5) < 1e-15
        assert (gx - XRPolynomial(1, {((0,), 1): gx.coeff((0,), 1)})).is_zero()

    def test_gradient_requires_jet_order(self):
        jet = flat_jet(1, 0)
        P0 = XRPolynomial(1, {((1,), 0): 1})
        with pytest.raises(ValueError):
            formal_gradient(P0, jet)

    def test_hessian_shape_and_symmetry_2d(self):
        jet = flat_jet(2, 3)
        P0 = XRPolynomial(2, {((0, 0), 0): 1, ((1, 0), 0): 2})
        H = formal_hessian(P0, jet)
        assert len(H) == 2 and all(len(row) == 2 for row in H)

    def test_evaluate_poly_matches_exact(self):
        P = XRPolynomial(1, {((2,), 1): 3, ((0,), 0): -1})
        x = np.array([[0.5], [-0.25]])
        r = np.array([0.7, 0.9])
        vals = evaluate_poly(P, x, r)
        expect = 3 * x[:, 0] ** 2 * r - 1
        assert np.allclose(vals, expect, rtol=0, atol=1e-15)


class TestDerivativeChecks:
    def test_first_derivative_labels_and_decay(self):
        sol = solve_fd(flat_geometry(1), phi_flat, h=2**-5, split=True)
        P0 = fit_tangent(sol, np.zeros(1), degree=1, rmax=0.25)
        reps = derivative_rate_checks(sol, P0, flat_jet(1, 3), np.zeros(1),
                                      SCALES[:4], order=1, target=1.0)
        assert [r.label for r in reps] == ["d1"]
        # the 1/16 shell holds no node at h = 2^-5: its error is NaN
        errors = reps[0].errors
        assert np.isnan(errors[3]) and np.all(errors[:3] >= 0)

    def test_empty_shells_are_unmeasured(self):
        # at h = 2^-4 the three inner shells of 2^-1 .. 2^-5 hold no node
        # of the cone: they read NaN, not an exact 0, two errors measure
        # no rate, and d1 fails; an empty shell must not count as an exact one
        def phi(x, z):
            return phi_flat(x, z) * (1.0 + 0.3 * (2.0 * x - np.hypot(x, z)))

        sol = solve_fd(flat_geometry(1), phi, h=2**-4, split=True)
        P0 = fit_tangent(sol, np.zeros(1), degree=1, rmax=0.25)
        (rep,) = derivative_rate_checks(sol, P0, flat_jet(1, 3), np.zeros(1), SCALES,
                                        order=1, target=1.0)
        assert rep.errors[0] > 0 and rep.errors[1] > 0
        assert np.isnan(rep.errors[2:]).all()
        assert math.isnan(rep.exponent) and not rep.passed

    def test_only_first_order_is_checked(self):
        sol = empty_solution(flat_geometry(1), 2**-5)
        with pytest.raises(ValueError):
            derivative_rate_checks(sol, XRPolynomial.constant(1, 1), flat_jet(1, 3),
                                   np.zeros(1), SCALES[:4], order=2)
