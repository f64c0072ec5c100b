"""Free boundary location for the planar thin one-phase problem.

The slit {x2 = 0, x1 <= gamma} in the unit disc carries a harmonic u
with Dirichlet data phi on the circle; the tip coefficient
a = lim u(gamma + t, 0)/t^(1/2) depends on gamma, and the free boundary
condition picks the tip where a(gamma) = G(gamma).

The tip is moved to the origin by the disc automorphism
T(z) = (z - gamma)/(1 - gamma z), which maps the slit onto [-1, 0];
the tip coefficient is the 1/2-power projection of the pulled-back
data (a half-angle series is built once, at the root), and
the square-root coordinate transforms with the chain-rule factor
|T'(gamma)|^(1/2) = (1 - gamma^2)^(-1/2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MultipleRoots, NoBracket, NonConvergence
from .solver import HalfAngleSeries, _half_angle_projection, solve_series_2d

__all__ = ["TipProblem", "FreeBoundaryResult", "tip_coefficient",
           "solve_free_boundary"]


@dataclass
class TipProblem:
    """Boundary data phi(theta), flux target G(gamma), search bracket."""

    phi: callable
    G: callable
    bracket: tuple = (-0.9, 0.9)

    def __post_init__(self):
        lo, hi = self.bracket
        if not (-1.0 < lo < hi < 1.0):
            raise ValueError("bracket must satisfy -1 < lo < hi < 1")
        gs = np.asarray(self.G(np.linspace(lo, hi, 33)), dtype=float)
        if np.any(gs <= 0):
            raise ValueError("G must be positive on the bracket")
        th = np.linspace(-np.pi, np.pi, 721)
        ph = np.asarray(self.phi(th), dtype=float)
        if np.any(ph < -1e-12):
            raise ValueError("phi must be nonnegative on the circle")
        if max(abs(ph[0]), abs(ph[-1])) > 1e-6:
            raise ValueError("phi must vanish where the slit meets the circle")


def _pulled_back_phi(phi, gamma: float):
    """phi composed with T^{-1}(e^{i t}), t the angle after the Moebius map."""
    if gamma == 0.0:
        return phi

    def pulled(t):
        t = np.asarray(t, dtype=float)
        w = np.exp(1j * t)
        z = (w + gamma) / (1.0 + gamma * w)
        return phi(np.angle(z))

    return pulled


def tip_coefficient(gamma: float, phi) -> float:
    """a = du/dU0 at the tip (gamma, 0): the 1/2-power projection of the
    pulled-back data times |T'(gamma)|^(1/2).  No series is built."""
    if not -1.0 < gamma < 1.0:
        raise ValueError("tip must be inside the disc")
    c_half = _half_angle_projection(_pulled_back_phi(phi, gamma), 1)[0]
    return float(c_half) / np.sqrt(1.0 - gamma * gamma)


@dataclass
class FreeBoundaryResult:
    gamma: float
    a: float
    residual: float
    series: HalfAngleSeries


def solve_free_boundary(prob: TipProblem) -> FreeBoundaryResult:
    """Bracketed root of a(gamma) - G(gamma).

    Coarse scan at 41 points for sign changes (NoBracket if none,
    MultipleRoots with every refined root if several), bisection to
    width 1e-3, then at most 60 secant steps to a residual below 1e-9.
    The search reads only ``tip_coefficient``; the one series built, the
    root's, is the only source of TruncationWarning.
    """
    residual_tol = 1e-9

    def F(g):
        return tip_coefficient(g, prob.phi) - float(prob.G(g))

    lo, hi = prob.bracket
    gs = np.linspace(lo, hi, 41)
    vals = np.array([F(g) for g in gs])
    sign_changes = [(gs[j], gs[j + 1]) for j in range(len(gs) - 1)
                    if vals[j] == 0.0 or (vals[j] * vals[j + 1] < 0.0)]
    if not sign_changes:
        raise NoBracket(f"a(gamma) - G has no sign change on [{lo}, {hi}]")

    def refine(a_lo, a_hi):
        f_lo = F(a_lo)
        if f_lo == 0.0:
            return a_lo, 0.0
        while a_hi - a_lo > 1e-3:
            mid = 0.5 * (a_lo + a_hi)
            f_mid = F(mid)
            if f_mid == 0.0:
                return mid, 0.0
            if f_lo * f_mid < 0.0:
                a_hi = mid
            else:
                a_lo, f_lo = mid, f_mid
        g0, g1 = a_lo, a_hi
        f0, f1 = F(g0), F(g1)
        for _ in range(60):
            if abs(f1) < residual_tol:
                return g1, f1
            if f1 == f0:
                break
            g2 = g1 - f1 * (g1 - g0) / (f1 - f0)
            g2 = min(max(g2, -0.999999), 0.999999)
            g0, f0, g1 = g1, f1, g2
            f1 = F(g1)
        if abs(f1) >= residual_tol:
            raise NonConvergence(f"secant residual {abs(f1):.3e} above {residual_tol}")
        return g1, f1

    if len(sign_changes) > 1:
        roots = [refine(a, b)[0] for a, b in sign_changes]
        exc = MultipleRoots(f"{len(sign_changes)} sign changes; roots {roots}")
        exc.roots = roots
        raise exc

    g_star, res = refine(*sign_changes[0])
    series = solve_series_2d(_pulled_back_phi(prob.phi, g_star))
    return FreeBoundaryResult(gamma=float(g_star), a=tip_coefficient(g_star, prob.phi),
                              residual=abs(res), series=series)
