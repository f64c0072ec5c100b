"""Slit geometry: signed distance frames and interface jets.

A slit domain in R^(n+1) is the unit ball minus the set
{x_{n+1} = 0, x_n <= g(x')} for a graph g with g(0) = 0, grad g(0) = 0.
The singular frame at a point consists of the in-plane signed distance d
to the interface edge, the cone radius r = sqrt(d^2 + x_{n+1}^2), the
angle theta, the edge profile u0 = sqrt((d + r)/2) = r^(1/2) cos(theta/2)
and the horizontal unit normal nu = grad d.

Jets of d, nu and the mean curvature about the origin are produced
symbolically and delivered as exact rational polynomials so that the
Laplacian table stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
import sympy as sp

from .errors import NonConvergence, OutOfDomain
from .xrpoly import XRPolynomial


@dataclass(frozen=True)
class SlitGeometry:
    """Graph description of the slit edge.

    ``g`` maps x' (a float for n=1, a length-(n-1) array for n=2) to the
    edge height in the x_n direction.  Derivative callables follow the
    same convention.  ``flat`` short-circuits everything to g == 0.
    """

    n: int
    g: Callable = None
    dg: Callable = None
    d2g: Callable = None
    flat: bool = False

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only n = 1 and n = 2 are supported")
        if not self.flat and self.g is None:
            raise ValueError("curved geometry needs g")


def flat_geometry(n: int) -> SlitGeometry:
    return SlitGeometry(n=n, flat=True)


def parabola_geometry(a) -> SlitGeometry:
    """n = 2 geometry with parabolic edge graph x_2 = a x_1^2."""
    s = sp.Symbol("t")
    return from_symbolic(2, sp.nsimplify(a, rational=True) * s**2, s)


def from_symbolic(n: int, expr, var) -> SlitGeometry:
    """Build an n = 2 geometry from a sympy expression g(x')."""
    if n != 2:
        raise ValueError("symbolic graphs are for n = 2")
    g, dg, d2g = (sp.lambdify(var, sp.diff(expr, var, j), "numpy") for j in range(3))
    return SlitGeometry(n=n, g=g, dg=dg, d2g=d2g)


@dataclass(frozen=True)
class Frame:
    """Singular frame at one point of the slit domain."""

    x: tuple          # horizontal coordinates (x_1, ..., x_n)
    z: float          # vertical coordinate x_{n+1}
    d: float          # signed in-plane distance to the edge
    r: float          # cone radius sqrt(d^2 + z^2)
    theta: float      # angle in (-pi, pi]
    u0: float         # edge profile r^(1/2) cos(theta/2)
    nu: tuple         # horizontal unit normal grad d
    foot: tuple = None  # closest edge point parameter(s), when available

    @property
    def on_slit(self) -> bool:
        return self.r == 0.0 or (self.z == 0.0 and self.d <= 0.0)


def _frame_from_dz(x, z, d, nu, foot=None) -> Frame:
    r = math.hypot(d, z)
    theta = math.atan2(z, d)
    # (d+r)(r-d) = z^2, so near the slit (d < 0) the conjugate form
    # avoids the cancellation in d + r
    if d >= 0:
        u0 = math.sqrt((d + r) / 2.0)
    elif r > 0:
        u0 = abs(z) / (2.0 * math.sqrt((r - d) / 2.0))
    else:
        u0 = 0.0
    return Frame(x=tuple(x), z=float(z), d=float(d), r=float(r),
                 theta=float(theta), u0=float(u0), nu=tuple(nu), foot=foot)


def flat_frame(x: Sequence[float], z: float) -> Frame:
    x = tuple(float(c) for c in x)
    n = len(x)
    d = x[n - 1]
    nu = (0.0,) * (n - 1) + (1.0,)
    return _frame_from_dz(x, z, d, nu, foot=tuple(x[:n - 1]))


def closest_point_frame(geom: SlitGeometry, x: Sequence[float], z: float,
                        tol: float = 1e-13, max_iter: int = 60) -> Frame:
    """Frame at (x, z) for a possibly curved edge.

    n = 1: the edge is the single point (g-constant treated as 0 here,
    curved n = 1 handled by conformal maps elsewhere), so d = x_1.

    n = 2: damped Newton on the closest-point condition
    F(t) = (t - x_1) + (g(t) - x_2) g'(t) = 0 with a coarse grid seed.
    The signed distance is positive on the side of +e_n.
    """
    x = [float(c) for c in x]
    if math.hypot(math.hypot(*x), z) > 1.0 + 1e-12:
        raise OutOfDomain(f"point {(tuple(x), z)} outside the unit ball")
    if geom.flat or geom.n == 1:
        return flat_frame(x, z)

    x1, x2 = x
    g, dg, d2g = geom.g, geom.dg, geom.d2g

    def F(t):
        return (t - x1) + (g(t) - x2) * dg(t)

    def dF(t):
        return 1.0 + dg(t) ** 2 + (g(t) - x2) * d2g(t)

    # grid seed over the chart
    ts = np.linspace(-1.2, 1.2, 97)
    dist2 = (ts - x1) ** 2 + (np.asarray(g(ts), dtype=float) - x2) ** 2
    t = float(ts[int(np.argmin(dist2))])

    for _ in range(max_iter):
        f = F(t)
        if abs(f) < tol:
            break
        fp = dF(t)
        if fp <= 1e-14:
            fp = 1.0  # fall back to gradient descent scaling
        step = f / fp
        # damp: never jump past several seed grid cells at once
        step = max(min(step, 0.1), -0.1)
        t -= step
    else:
        if abs(F(t)) > 1e-9:
            raise NonConvergence(f"closest-point Newton stalled at {(x1, x2)}")

    gt = g(t)
    dist = math.hypot(x1 - t, x2 - gt)
    # sign: positive above the tangent line of the edge at the foot
    sgn = 1.0 if x2 >= gt + dg(t) * (x1 - t) else -1.0
    d = sgn * dist
    if dist > 1e-14:
        nu = ((x1 - t) / dist * sgn, (x2 - gt) / dist * sgn)
    else:
        sl = math.hypot(1.0, dg(t))
        nu = (-dg(t) / sl, 1.0 / sl)
    return _frame_from_dz(x, z, d, nu, foot=(t,))


def frame_fields(geom: SlitGeometry, X, Z):
    """Vectorized frames over arrays of points; returns dict of arrays."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.asarray(Z, dtype=float).ravel()
    m = Z.size
    d = np.empty(m)
    nu = np.empty((m, geom.n))
    foot = np.empty(m)
    if geom.flat or geom.n == 1:
        d[:] = X[:, geom.n - 1]
        nu[:] = 0.0
        nu[:, geom.n - 1] = 1.0
        foot[:] = X[:, 0] if geom.n == 2 else 0.0
    else:
        # vectorized damped Newton on the closest-point condition;
        # F_t > 0 inside the ball for the small-curvature graphs we use
        x1 = X[:, 0]
        x2 = X[:, 1]
        t = x1.copy()
        for _ in range(200):
            gt = np.asarray(geom.g(t), dtype=float)
            dgt = np.asarray(geom.dg(t), dtype=float)
            d2t = np.asarray(geom.d2g(t), dtype=float)
            Fv = (t - x1) + (gt - x2) * dgt
            if np.max(np.abs(Fv)) < 1e-13:
                break
            dF = 1.0 + dgt**2 + (gt - x2) * d2t
            dF = np.where(dF > 0.25, dF, 0.25)
            t = t - np.clip(Fv / dF, -0.25, 0.25)
        gt = np.asarray(geom.g(t), dtype=float)
        dgt = np.asarray(geom.dg(t), dtype=float)
        res = np.abs((t - x1) + (gt - x2) * dgt)
        bad = ~(res <= 1e-9)  # NaN residuals count as failures
        if bad.any():
            raise NonConvergence(f"closest-point Newton left {int(bad.sum())} points with "
                                 f"residual > 1e-9 (max {np.max(res[bad]):.2e})")
        dist = np.hypot(x1 - t, x2 - gt)
        sgn = np.where(x2 >= gt + dgt * (x1 - t), 1.0, -1.0)
        d[:] = sgn * dist
        safe = np.maximum(dist, 1e-300)
        sl = np.hypot(1.0, dgt)
        on_edge = dist <= 1e-14
        nu[:, 0] = np.where(on_edge, -dgt / sl, (x1 - t) / safe * sgn)
        nu[:, 1] = np.where(on_edge, 1.0 / sl, (x2 - gt) / safe * sgn)
        foot[:] = t
    r = np.hypot(d, Z)
    theta = np.arctan2(Z, d)
    u0 = np.where(
        d >= 0,
        np.sqrt(np.maximum(d + r, 0.0) / 2.0),
        np.abs(Z) / (2.0 * np.sqrt(np.maximum(r - d, 1e-300) / 2.0)),
    )
    return {"d": d, "r": r, "theta": theta, "u0": u0, "nu": nu, "foot": foot}


# ----------------------------------------------------------------------
# Jets
# ----------------------------------------------------------------------

@dataclass
class GammaJet:
    """Taylor data of the edge frame about the origin, to total degree k.

    ``d`` is the jet of the signed distance, ``nu`` the jets of its
    gradient components, ``kappa`` the jet of the in-plane mean
    curvature of the parallel level sets; the distance satisfies
    Laplacian(d) = -kappa exactly along the jet.
    """

    n: int
    order: int
    d: XRPolynomial
    nu: list = field(default_factory=list)
    kappa: XRPolynomial = None
    is_flat: bool = False


def flat_jet(n: int, order: int = 8) -> GammaJet:
    d = XRPolynomial.x_var(n, n - 1)
    nu = [XRPolynomial.zero(n) for _ in range(n)]
    nu[n - 1] = XRPolynomial.constant(n, 1)
    return GammaJet(n=n, order=order, d=d, nu=nu,
                    kappa=XRPolynomial.zero(n), is_flat=True)


def _series_to_xr(expr, xs, order: int, n: int) -> XRPolynomial:
    """Truncate a sympy expression to a rational polynomial jet."""
    poly = sp.expand(expr)
    coeffs = {}
    for mu_total in range(order + 1):
        for a in range(mu_total + 1):
            mu = (a, mu_total - a) if n == 2 else (mu_total,)
            c = poly
            for xi, e in zip(xs, mu):
                c = c.coeff(xi, e)
            for xi in xs:
                c = c.subs(xi, 0)
            c = sp.nsimplify(sp.simplify(c), rational=True)
            if c != 0:
                coeffs[(mu, 0)] = Fraction(int(sp.fraction(c)[0]), int(sp.fraction(c)[1]))
    return XRPolynomial(n, coeffs)


_X1, _X2, _T = sp.symbols("x1 x2 t")


def _foot_series(g_expr, order: int, steps: int):
    """Edge graph g(t) and the closest-point parameter t(x) as a series.

    Newton iteration on the truncated series of
    (t - x_1) + (g(t) - x_2) g'(t) = 0, starting from t = x_1, with
    ``steps`` iterations and truncation at total degree ``order``.
    """
    xs = (_X1, _X2)
    g = sp.sympify(g_expr)
    var = sorted(g.free_symbols, key=str)
    if var:
        g = g.subs(var[0], _T)
    if sp.simplify(g.subs(_T, 0)) != 0 or sp.simplify(sp.diff(g, _T).subs(_T, 0)) != 0:
        raise ValueError("edge graph must satisfy g(0) = 0, g'(0) = 0")
    F = (_T - _X1) + (g - _X2) * sp.diff(g, _T)
    ts = _X1
    for _ in range(steps):
        Ft = F.subs(_T, ts)
        dFt = sp.diff(F, _T).subs(_T, ts)
        ts = _trunc_poly(sp.expand(ts - sp.expand(Ft) * _series_inverse(dFt, xs, order)),
                         xs, order)
    return g, ts


def gamma_jet(g_expr, order: int, n: int = 2) -> GammaJet:
    """Jet of the signed distance frame for the n = 2 edge x_2 = g(x_1).

    Works about the origin (g(0) = 0, g'(0) = 0).  The closest-point
    parameter t(x) comes from ``_foot_series`` through degree order + 1,
    then everything else follows from d = sign * |x - (t, g(t))|.
    """
    if n != 2:
        raise ValueError("jets of curved edges need n = 2")
    xs = (_X1, _X2)
    g, ts = _foot_series(g_expr, order + 1, max(3, order.bit_length() + 2))

    def trunc(e):
        return _trunc_poly(e, xs, order + 1)

    gt = trunc(g.subs(_T, ts))
    dgt = trunc(sp.diff(g, _T).subs(_T, ts))
    # d^2 = (x1 - t)^2 + (x2 - gt)^2 and x1 - t = -(x2 - gt) * dgt, so
    # d = (x2 - gt) * sqrt(1 + dgt^2), positive on the +e_2 side.
    sqrt_series = _sqrt1p_series(trunc(sp.expand(dgt**2)), xs, order + 1)
    d_series = trunc(sp.expand((_X2 - gt) * sqrt_series))

    # nu = grad d and kappa = -Laplacian(d), differentiating the series
    nu1 = trunc(sp.diff(d_series, _X1))
    nu2 = trunc(sp.diff(d_series, _X2))
    kappa = trunc(-(sp.diff(d_series, _X1, 2) + sp.diff(d_series, _X2, 2)))

    return GammaJet(
        n=2, order=order,
        d=_series_to_xr(d_series, xs, order + 1, 2),
        nu=[_series_to_xr(nu1, xs, order, 2), _series_to_xr(nu2, xs, order, 2)],
        kappa=_series_to_xr(kappa, xs, order, 2),
        is_flat=False,
    )


def foot_jet(g_expr, order: int) -> "XRPolynomial":
    """Closest-point parameter t(x) of the n = 2 edge as an x-series.

    The same Newton-on-series construction as gamma_jet; returns the jet
    of the edge-flattening tangential coordinate y_1 = t (an r-free
    polynomial), exact through total degree ``order``.
    """
    _, ts = _foot_series(g_expr, order, max(3, order.bit_length() + 2))
    return _series_to_xr(ts, (_X1, _X2), order, 2)


def _series_inverse(e, xs, order):
    """1/e as a truncated series; e must have nonzero constant term."""
    x1, x2 = xs
    e = sp.expand(e)
    c0 = e.subs({x1: 0, x2: 0})
    if c0 == 0:
        raise ZeroDivisionError("series has zero constant term")
    u = sp.expand(e / c0 - 1)
    inv = sp.Integer(0)
    upow = sp.Integer(1)
    for j in range(order + 1):
        inv += (-1) ** j * upow
        upow = _trunc_poly(sp.expand(upow * u), xs, order)
    return sp.expand(inv / c0)


def _trunc_poly(p, xs, order):
    x1, x2 = xs
    out = sp.Integer(0)
    p = sp.expand(p)
    for tot in range(order + 1):
        for a in range(tot + 1):
            c = p.coeff(x1, a).coeff(x2, tot - a).subs({x1: 0, x2: 0})
            if c != 0:
                out += c * x1**a * x2 ** (tot - a)
    return out


def _sqrt1p_series(s, xs, order):
    """sqrt(1 + s) for a series s with s(0) = 0, via the binomial series."""
    out = sp.Integer(1)
    spow = sp.Integer(1)
    half = sp.Rational(1, 2)
    coeff = sp.Integer(1)
    for j in range(1, order + 1):
        coeff = coeff * (half - (j - 1)) / j
        spow = _trunc_poly(sp.expand(spow * s), xs, order)
        if spow == 0:
            break
        out += coeff * spow
    return _trunc_poly(sp.expand(out), xs, order)
