"""Tests for the planar free boundary (tip location) solver."""

import warnings

import numpy as np
import pytest

from slitkit import (
    FreeBoundaryResult,
    MultipleRoots,
    NoBracket,
    TipProblem,
    TruncationWarning,
    solve_disc_2d,
    solve_free_boundary,
    tip_coefficient,
)
from slitkit import freeboundary, solver
from slitkit.freeboundary import _pulled_back_phi


def phi_u0(t):
    return np.abs(np.cos(t / 2.0))


class TestTipCoefficient:
    def test_centered_u0_data_gives_one(self):
        assert abs(tip_coefficient(0.0, phi_u0) - 1.0) < 1e-10

    def test_linearity_in_data(self):
        a1 = tip_coefficient(0.2, phi_u0)
        a2 = tip_coefficient(0.2, lambda t: 3.0 * phi_u0(t))
        assert abs(a2 - 3.0 * a1) < 1e-9

    def test_methods_agree(self):
        # adaptive-quadrature reference: the 1/2-power projection of the
        # data pulled back by the Moebius map that sends the tip to 0
        from scipy.integrate import quad

        gamma = 0.3

        def pulled(t):
            w = np.exp(1j * t)
            return phi_u0(np.angle((w + gamma) / (1.0 + gamma * w)))

        c, _ = quad(lambda t: pulled(t) * np.cos(t / 2.0), -np.pi, np.pi,
                    epsabs=1e-13, epsrel=1e-13, limit=400)
        aq = c / np.pi / np.sqrt(1.0 - gamma * gamma)
        assert abs(tip_coefficient(gamma, phi_u0) - aq) < 1e-9

    def test_monotone_increasing_in_gamma(self):
        # moving the tip toward the data's mass increases the flux
        a = [tip_coefficient(g, phi_u0) for g in (-0.3, 0.0, 0.3)]
        assert a[0] < a[1] < a[2]

    def test_against_grid_oracle(self):
        # independent 5-point finite-difference disc solve, quotient
        # u/sqrt(t) extrapolated at the shifted tip
        gamma = 0.3
        a_series = tip_coefficient(gamma, phi_u0)
        a_fd, _ = solve_disc_2d(gamma, phi_u0, h=2**-8)
        assert abs(a_series - a_fd) / a_series < 0.01

    def test_tip_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            tip_coefficient(1.0, phi_u0)

    @pytest.mark.parametrize("gamma, a", [
        (-0.9, 0.5130183344353195), (-0.3, 0.8652103302859525), (0.0, 1.0),
        (0.3, 1.1833590745780667), (0.85, 2.3978075346645293), (0.9, 2.9095226360589046)])
    def test_recorded_values_without_warning(self, gamma, a):
        # a is the 1/2-power projection alone: the values a 64-term series
        # gave, with no truncation rule to fail at |gamma| >= 0.85
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tip_coefficient(gamma, phi_u0) == a


class TestTipProblem:
    def test_validates_bracket(self):
        with pytest.raises(ValueError):
            TipProblem(phi=phi_u0, G=lambda g: 1.0 + 0 * g, bracket=(-1.5, 0.5))

    def test_validates_positive_G(self):
        with pytest.raises(ValueError):
            TipProblem(phi=phi_u0, G=lambda g: np.asarray(g) - 0.5)

    def test_validates_nonnegative_phi(self):
        with pytest.raises(ValueError):
            TipProblem(phi=lambda t: np.cos(t), G=lambda g: 1.0 + 0 * g)

    def test_validates_phi_vanishes_at_slit_meeting(self):
        with pytest.raises(ValueError):
            TipProblem(phi=lambda t: 1.0 + 0 * np.asarray(t),
                       G=lambda g: 1.0 + 0 * g)


class TestSolveFreeBoundary:
    def test_unit_flux_root_at_origin(self):
        prob = TipProblem(phi=phi_u0, G=lambda g: 1.0 + 0.0 * np.asarray(g),
                          bracket=(-0.5, 0.5))
        res = solve_free_boundary(prob)
        assert isinstance(res, FreeBoundaryResult)
        assert abs(res.gamma) < 1e-6
        assert abs(res.a - 1.0) < 1e-8
        assert res.residual < 1e-9

    def test_supercritical_flux_moves_tip_forward(self):
        # a(gamma) increases with gamma for this data, so G slightly
        # above 1 puts the root at positive gamma
        prob = TipProblem(phi=phi_u0, G=lambda g: 1.05 + 0.0 * np.asarray(g),
                          bracket=(-0.5, 0.5))
        res = solve_free_boundary(prob)
        assert res.gamma > 0.05
        assert abs(res.a - 1.05) < 1e-8

    def test_no_bracket(self):
        prob = TipProblem(phi=phi_u0, G=lambda g: 5.0 + 0.0 * np.asarray(g),
                          bracket=(-0.5, 0.5))
        with pytest.raises(NoBracket):
            solve_free_boundary(prob)

    @pytest.mark.parametrize("end", [-0.5, 0.5])
    def test_root_at_either_end_of_the_bracket(self, end):
        # a scan point with residual exactly 0 is a root, the last one too
        G = tip_coefficient(end, phi_u0)
        prob = TipProblem(phi=phi_u0, G=lambda g: G + 0.0 * np.asarray(g),
                          bracket=(-0.5, 0.5))
        res = solve_free_boundary(prob)
        assert res.gamma == end and res.residual == 0.0

    @pytest.mark.parametrize("G, bracket, root", [
        (1.03, (-0.5, 0.5), 0.05817950017897332),
        (1.05, (-0.5, 0.5), 0.09492322613910496),
        (2.4, (-0.9, 0.9), 0.8502893593666249),
        (6.4, (-0.99, 0.99), 0.980020141083927)])
    def test_root_to_float_resolution(self, G, bracket, root):
        # root: the earlier search (bisection to width 1e-3, then secant
        # steps to a residual below 1e-9, which reached 6.1e-10 at 6.4)
        prob = TipProblem(phi=phi_u0, G=lambda g: G + 0.0 * np.asarray(g), bracket=bracket)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            res = solve_free_boundary(prob)
        assert res.residual <= 1e-14
        assert abs(res.gamma - root) <= 1e-10

    def test_tip_coefficient_calls_per_root(self, monkeypatch):
        # 41 scan points, at most 48 halvings of a cell at most 0.05
        # wide, and one call at the root
        calls = []

        def counted(gamma, phi):
            calls.append(gamma)
            return tip_coefficient(gamma, phi)

        monkeypatch.setattr(freeboundary, "tip_coefficient", counted)
        prob = TipProblem(phi=phi_u0, G=lambda g: 2.4 + 0.0 * np.asarray(g))
        solve_free_boundary(prob)
        assert 41 < len(calls) <= 90

    def test_multiple_roots_reported(self):
        # a(gamma) is increasing (0.82 at -0.4, 1.0 at 0, 1.27 at 0.4);
        # an inverted parabola above a at 0 and below it at +-0.4
        # crosses twice
        def G(g):
            g = np.asarray(g, dtype=float)
            return 1.05 - 2.0 * g**2

        prob = TipProblem(phi=phi_u0, G=G, bracket=(-0.45, 0.45))
        with pytest.raises(MultipleRoots) as ei:
            solve_free_boundary(prob)
        assert len(ei.value.roots) == 2
        assert ei.value.roots[0] < 0 < ei.value.roots[1]

    def test_one_series_per_solve(self, monkeypatch):
        # the search reads tip_coefficient alone; only the root builds a series
        calls = []

        def counted(phi):
            calls.append(phi)
            return solver.solve_series_2d(phi)

        monkeypatch.setattr(freeboundary, "solve_series_2d", counted)
        prob = TipProblem(phi=phi_u0, G=lambda g: 1.05 + 0.0 * np.asarray(g),
                          bracket=(-0.5, 0.5))
        solve_free_boundary(prob)
        assert len(calls) == 1

    def test_root_series_picks_its_length(self):
        # G = 2.4 puts the root at 0.85029, where 64 terms leave
        # |c_63.5| = 1.4e-6 and 128 pass the truncation rule
        prob = TipProblem(phi=phi_u0, G=lambda g: 2.4 + 0.0 * np.asarray(g))
        res = solve_free_boundary(prob)
        assert abs(res.gamma - 0.85029) < 1e-5
        assert len(res.series.coefficients) == 128 and res.series.resolved

    def test_unresolved_root_series_warns_once_at_the_cap(self):
        prob = TipProblem(phi=phi_u0, G=lambda g: 6.4 + 0.0 * np.asarray(g),
                          bracket=(-0.99, 0.99))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solve_free_boundary(prob)
        assert [w.category for w in caught] == [TruncationWarning]
        assert abs(res.gamma - 0.98002) < 1e-5
        assert len(res.series.coefficients) == 256 and not res.series.resolved


@pytest.mark.parametrize("gamma", [0.3, 0.85, 0.95])
def test_series_cap_within_rule_accuracy(gamma):
    # 256 terms of the pulled-back data against a 4x finer composite
    # Gauss-Legendre rule (256 panels x 24 nodes)
    xg, wg = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(-np.pi, np.pi, 257)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * xg).ravel()
    w = (half[:, None] * wg).ravel()
    pulled = _pulled_back_phi(phi_u0, gamma)
    q = (2 * np.arange(256) + 1) / 2.0
    fine = (np.cos(q[:, None] * t) * (pulled(t) * w)).sum(axis=1) / np.pi
    assert np.abs(solver._half_angle_projection(pulled, 256) - fine).max() < 1e-13
