"""Free boundary location for the planar thin one-phase problem.

The slit {x2 = 0, x1 <= gamma} in the unit disc carries a harmonic u
with Dirichlet data phi on the circle; the tip coefficient
a = lim u(gamma + t, 0)/t^(1/2) depends on gamma, and the free boundary
condition picks the tip where a(gamma) = G(gamma), found by a scan and
a bisection to float resolution.

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

    A 41-point scan finds the roots: each scan point, ends included, with
    residual exactly 0, and each sign change bisected to width eps (the
    float spacing below 1) or to a midpoint with residual exactly 0,
    taking the end with the smaller residual.  NoBracket if none,
    MultipleRoots with every root if several, NonConvergence unless the
    root's residual is below 1e-9.  The search reads only
    ``tip_coefficient``; the root's series, the one built, is the only
    source of TruncationWarning.
    """
    def F(g):
        return tip_coefficient(g, prob.phi) - float(prob.G(g))

    def bisect(a, b, fa, fb):
        while b - a > np.finfo(float).eps and fa != 0.0:
            mid = 0.5 * (a + b)
            f_mid = F(mid)
            if fa * f_mid < 0.0:
                b, fb = mid, f_mid
            else:
                a, fa = mid, f_mid
        return a if abs(fa) <= abs(fb) else b

    lo, hi = prob.bracket
    gs = np.linspace(lo, hi, 41).tolist()
    fs = [F(g) for g in gs]
    cells = zip(gs, gs[1:], fs, fs[1:])
    roots = sorted([g for g, f in zip(gs, fs) if f == 0.0]
                   + [bisect(a, b, fa, fb) for a, b, fa, fb in cells if fa * fb < 0.0])
    if not roots:
        raise NoBracket(f"a(gamma) - G has no sign change on [{lo}, {hi}]")
    if len(roots) > 1:
        exc = MultipleRoots(f"{len(roots)} roots: {roots}")
        exc.roots = roots
        raise exc

    g_star = roots[0]
    a = tip_coefficient(g_star, prob.phi)
    residual = abs(a - float(prob.G(g_star)))
    if not residual < 1e-9:
        raise NonConvergence(f"residual {residual:.3e} at the root is not below 1e-09")
    series = solve_series_2d(_pulled_back_phi(prob.phi, g_star))
    return FreeBoundaryResult(gamma=g_star, a=a, residual=residual, series=series)
