"""Slit geometry: signed distance frames and interface jets.

A slit domain in R^(n+1) is the unit ball minus the set
{x_{n+1} = 0, x_n <= g(x')} for a graph g with g(0) = 0, grad g(0) = 0.
The singular frame at a point consists of the in-plane signed distance d
to the interface edge, the cone radius r = sqrt(d^2 + x_{n+1}^2), the
edge profile u0 = sqrt((d + r)/2) = r^(1/2) cos(theta/2), with theta the
angle of (d, x_{n+1}), and the horizontal unit normal nu = grad d.

Jets of d, nu and the mean curvature about the origin are computed by
Newton iteration on truncated series in exact rational polynomial
arithmetic, so that the Laplacian table stays exact.  The iteration
stops at its exact fixed point, and every series product forms only the
terms below the truncation degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NonConvergence
from .xrpoly import XRPolynomial


@dataclass(frozen=True)
class SlitGeometry:
    """The slit edge x_n = g(x') through the origin, for n = 1 or 2.

    ``coeffs`` holds the Taylor coefficients g_0, g_1, ... of the graph
    as ``Fraction``s; a float enters as the exact binary value it holds.
    Empty or all-zero means the flat edge g == 0, the only edge n = 1
    has.  Frames evaluate g and its derivatives in floats from these
    coefficients, and the jets use them exactly, so both describe the
    same edge.
    """

    n: int
    coeffs: tuple = ()

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only n = 1 and n = 2 are supported")
        try:
            c = [Fraction(v) for v in self.coeffs]
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"edge graph coefficient is not a finite number: {exc}") from exc
        while c and not c[-1]:
            c.pop()
        if any(c[:2]):
            raise ValueError("edge graph must satisfy g(0) = 0, g'(0) = 0")
        if c and self.n == 1:
            raise ValueError("a curved edge needs n = 2")
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def flat(self) -> bool:
        return not self.coeffs

    def g(self, t):
        return _evaluate(self.coeffs, t)

    def dg(self, t):
        return _evaluate(_derivative(self.coeffs), t)

    def d2g(self, t):
        return _evaluate(_derivative(_derivative(self.coeffs)), t)


# frame_fields' closest-point Newton stops once |F| < _FOOT_TOL; with F_t
# near 1 on the small-curvature graphs used, a foot is known to about this
_FOOT_TOL = 1e-13


def _evaluate(coeffs, t):
    """sum_j c_j t^j in floats over the nonzero c_j, lowest degree first;
    for a single term this is exactly c t^j."""
    terms = [float(c) * t**j for j, c in enumerate(coeffs) if c]
    return sum(terms[1:], terms[0]) if terms else np.zeros_like(t)


def flat_geometry(n: int) -> SlitGeometry:
    return SlitGeometry(n)


def parabola_geometry(a) -> SlitGeometry:
    """n = 2 geometry with parabolic edge graph x_2 = a x_1^2."""
    return SlitGeometry(2, (0, 0, a))


def frame_fields(geom: SlitGeometry, X, Z):
    """Vectorized frames over arrays of points: a dict of the arrays
    d, r, u0, nu and foot (the edge parameter of the closest point)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.asarray(Z, dtype=float).ravel()
    m = Z.size
    d = np.empty(m)
    nu = np.empty((m, geom.n))
    foot = np.empty(m)
    if geom.flat:
        d[:] = X[:, geom.n - 1]
        nu[:] = 0.0
        nu[:, geom.n - 1] = 1.0
        foot[:] = X[:, 0] if geom.n == 2 else 0.0
    else:
        # vectorized damped Newton on the closest-point condition;
        # F_t > 0 inside the ball for the small-curvature graphs we use.
        # Each point stops once its own |F| < _FOOT_TOL, so its frame does
        # not depend on the other points of the call
        x1 = X[:, 0]
        x2 = X[:, 1]
        t = x1.copy()
        active = np.ones(m, dtype=bool)
        for _ in range(200):
            gt = np.asarray(geom.g(t), dtype=float)
            dgt = np.asarray(geom.dg(t), dtype=float)
            d2t = np.asarray(geom.d2g(t), dtype=float)
            Fv = (t - x1) + (gt - x2) * dgt
            active &= ~(np.abs(Fv) < _FOOT_TOL)
            if not active.any():
                break
            dF = 1.0 + dgt**2 + (gt - x2) * d2t
            dF = np.where(dF > 0.25, dF, 0.25)
            t = np.where(active, t - np.clip(Fv / dF, -0.25, 0.25), t)
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
    u0 = np.where(
        d >= 0,
        np.sqrt(np.maximum(d + r, 0.0) / 2.0),
        np.abs(Z) / (2.0 * np.sqrt(np.maximum(r - d, 1e-300) / 2.0)),
    )
    return {"d": d, "r": r, "u0": u0, "nu": nu, "foot": foot}


# ----------------------------------------------------------------------
# Jets
# ----------------------------------------------------------------------

@dataclass
class GammaJet:
    """Taylor data of the edge frame about the origin, to total degree ``order``.

    ``d`` is the jet of the signed distance, ``nu`` the jets of its
    gradient components, ``kappa`` the jet of the in-plane mean
    curvature of the parallel level sets; the distance satisfies
    Laplacian(d) = -kappa exactly along the jet.  ``kappa`` is minus the
    divergence of the degree-``order`` nu jets, so it stops at degree
    order - 1: a bracket of Delta(U0 P) that must be exact through
    degree k needs ``order >= k + 1``.
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


def _graph_coeffs(edge) -> tuple[Fraction, ...]:
    """Exact Taylor coefficients of an n = 2 edge.

    ``edge`` is a SlitGeometry, or a string or sympy expression in one
    free symbol, which is turned into a SlitGeometry here.  This is the
    only use of sympy: it parses the graph and nothing else.
    """
    if isinstance(edge, SlitGeometry):
        if edge.n != 2:
            raise ValueError("edge jets are for n = 2")
        return edge.coeffs
    import sympy as sp

    g = sp.sympify(edge)
    var = sorted(g.free_symbols, key=str)
    try:
        poly = sp.Poly(g, var[0] if var else sp.Symbol("t"))
    except sp.PolynomialError as exc:
        raise ValueError(f"edge graph {edge!r} is not a polynomial") from exc
    coeffs = []
    for c in reversed(poly.all_coeffs()):
        c = sp.nsimplify(c, rational=True)
        if not c.is_Rational:
            raise ValueError(f"edge graph coefficient {c} is not rational")
        coeffs.append(Fraction(int(c.p), int(c.q)))
    return SlitGeometry(2, coeffs).coeffs


def _derivative(coeffs) -> list[Fraction]:
    return [j * c for j, c in enumerate(coeffs)][1:]


def _compose(coeffs, t: XRPolynomial, order: int) -> XRPolynomial:
    """sum_j coeffs[j] t^j by Horner, truncated at total degree ``order``."""
    out = XRPolynomial.zero(t.n)
    for c in reversed(coeffs):
        out = out.mul_cut(t, order) + c
    return out


def _binomial_series(s: XRPolynomial, alpha: Fraction, order: int) -> XRPolynomial:
    """(1 + s)^alpha through total degree ``order`` for s(0) = 0; alpha = -1
    gives the geometric series of 1/(1 + s).  A constant term in s would
    feed degree 0 from every power of s, so it raises ValueError."""
    if s.coeff((0,) * s.n, 0):
        raise ValueError("binomial series needs s(0) = 0")
    out = spow = XRPolynomial.constant(s.n, 1)
    coeff = Fraction(1)
    for j in range(1, order + 1):
        coeff = coeff * (alpha - (j - 1)) / j
        spow = spow.mul_cut(s, order)
        if spow.is_zero():
            break
        out = out + coeff * spow
    return out


def _foot_series(g, order: int, steps: int) -> XRPolynomial:
    """Closest-point parameter t(x) of the edge x_2 = g(x_1) as a series.

    Newton iteration on the truncated series of
    F(t) = (t - x_1) + (g(t) - x_2) g'(t) = 0, starting from t = x_1, with
    at most ``steps`` iterations and truncation at total degree
    ``order``.  It stops once F(t) vanishes through ``order``: that t is
    an exact fixed point, which every later step would return unchanged.
    Below order 1 the series of t is zero, as t(0) = 0.
    """
    if order < 1:
        return XRPolynomial.zero(2)
    dg = _derivative(g)
    d2g = _derivative(dg)
    x1, x2 = XRPolynomial.x_var(2, 0), XRPolynomial.x_var(2, 1)
    t = x1
    for _ in range(steps):
        gt, dgt, d2gt = (_compose(c, t, order) for c in (g, dg, d2g))
        F = (t - x1) + (gt - x2).mul_cut(dgt, order)
        if F.is_zero():
            break
        # F'(t) = 1 + g'(t)^2 + (g(t) - x_2) g''(t) is 1 at the origin
        dF1 = dgt.mul_cut(dgt, order) + (gt - x2).mul_cut(d2gt, order)
        t = t - F.mul_cut(_binomial_series(dF1, Fraction(-1), order), order)
    return t


def gamma_jet(edge, order: int) -> GammaJet:
    """Jet of the signed distance frame for the n = 2 edge x_2 = g(x_1).

    ``edge`` is a SlitGeometry or an expression for g (see
    ``_graph_coeffs``).  Works about the origin.  The closest-point
    parameter t(x) comes from ``_foot_series`` through degree order + 1,
    then everything else follows from d = sign * |x - (t, g(t))|.
    """
    g = _graph_coeffs(edge)
    k = order + 1
    t = _foot_series(g, k, max(3, order.bit_length() + 2))
    gt = _compose(g, t, k)
    dgt = _compose(_derivative(g), t, k)
    # d^2 = (x1 - t)^2 + (x2 - gt)^2 and x1 - t = -(x2 - gt) * dgt, so
    # d = (x2 - gt) * sqrt(1 + dgt^2), positive on the +e_2 side.
    root = _binomial_series(dgt.mul_cut(dgt, k), Fraction(1, 2), k)
    d = (XRPolynomial.x_var(2, 1) - gt).mul_cut(root, k)
    # nu = grad d and kappa = -Laplacian(d), differentiating the series
    nu = [d.diff_x(0).truncate(order), d.diff_x(1).truncate(order)]
    kappa = -(nu[0].diff_x(0) + nu[1].diff_x(1))
    return GammaJet(n=2, order=order, d=d, nu=nu, kappa=kappa, is_flat=False)


def foot_jet(edge, order: int) -> XRPolynomial:
    """Closest-point parameter t(x) of the n = 2 edge as an x-series.

    The same Newton-on-series construction as gamma_jet; returns the jet
    of the edge-flattening tangential coordinate y_1 = t (an r-free
    polynomial), exact through total degree ``order``.
    """
    return _foot_series(_graph_coeffs(edge), order, max(3, order.bit_length() + 2))
