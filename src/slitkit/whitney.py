"""Moment-vanishing mollifier and polynomial edge extension.

A compactly supported mollifier rho with vanishing moments up to order
k + 2 turns a polynomial Q of the edge-flattening coordinate y' into a
smooth extension

    E(Q)(x) = integral of Q(y(y~)) rho((x - y~)/d) d^{-n} dy~,

where d is the distance from x to the edge graph within the x-plane.
E(Q) reproduces polynomials of degree <= k + 2 where the coordinates
are affine, matches the full jet of Q on the edge, and has vanishing
normal derivative there.

Monomials come from ``xrpoly._xpow``, Q is evaluated from its
coefficient list by ``geometry._evaluate``, and ``verify_jet_match``
evaluates E(Q) and Q o y at all of its sample points in one pass.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfChart, SingularMoments
from .geometry import _FOOT_TOL, SlitGeometry, _derivative, _evaluate, frame_fields
from .xrpoly import _indices_of_degree, _xpow

__all__ = [
    "Mollifier", "YPolynomial", "build_mollifier", "whitney_extend",
    "verify_jet_match", "jet_match_passed",
]


# Gauss nodes per axis of the one quadrature rule behind the moments, the
# moment conditions and the extension: the extension then reproduces the
# polynomials of the moment conditions to rounding, not to the rule's error
_NQUAD = 80


def _tensor_rule(n: int):
    """Tensor Gauss-Legendre rule on [-1/2, 1/2]^n with ``_NQUAD`` nodes
    per axis: the node coordinate grids and the product weights."""
    x, w = np.polynomial.legendre.leggauss(_NQUAD)
    u, w = 0.5 * x, 0.5 * w
    return np.meshgrid(*[u] * n, indexing="ij"), functools.reduce(np.multiply, np.ix_(*[w] * n))


def _bump(*ys) -> np.ndarray:
    """The exponential bump exp(-1/(1 - 4|y|^2)) on B_{1/2}, zero outside."""
    rho2 = sum(np.asarray(y, dtype=float) ** 2 for y in ys)
    arg = 1.0 - 4.0 * rho2
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(arg > 0.0, np.exp(-1.0 / np.where(arg > 0, arg, 1.0)), 0.0)


@dataclass
class Mollifier:
    """Polynomial times the exponential bump on B_{1/2}."""

    n: int
    poly_coeffs: dict = field(default_factory=dict)

    def __call__(self, *ys) -> np.ndarray:
        ys = [np.asarray(y, dtype=float) for y in ys]
        poly = np.zeros(np.broadcast(*ys).shape if len(ys) > 1 else ys[0].shape)
        for mu, c in self.poly_coeffs.items():
            poly = poly + _xpow(ys, mu, c)
        return poly * _bump(*ys)

    def moments(self, max_order: int) -> dict:
        """All moments up to ``max_order`` by tensor Gauss quadrature."""
        grids, ws = _tensor_rule(self.n)
        vals = self(*grids) * ws
        indices = sorted(mu for deg in range(max_order + 1)
                         for mu in _indices_of_degree(self.n, deg))
        return {mu: float((vals * _xpow(grids, mu)).sum()) for mu in indices}


def build_mollifier(n: int, k: int) -> Mollifier:
    """Mollifier with unit mass and vanishing moments through order k+2.

    The polynomial factor uses even multi-indices only (odd moments
    vanish by symmetry of the bump), so the moment conditions reduce to
    a square Gram system over the even monomials of order <= k + 2.
    """
    if n not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if not 0 <= k <= 4:
        raise ValueError("order 0 <= k <= 4")
    basis = sorted(mu for deg in range(0, k + 3, 2) for mu in _indices_of_degree(n, deg)
                   if not any(e % 2 for e in mu))
    grids, ws = _tensor_rule(n)
    bump = _bump(*grids) * ws
    G = np.array([[float((bump * _xpow(grids, a) * _xpow(grids, b)).sum())
                   for b in basis] for a in basis])
    rhs = np.zeros(len(basis))
    rhs[basis.index(tuple([0] * n))] = 1.0
    if np.linalg.cond(G) > 1e12:
        raise SingularMoments(f"moment Gram system condition {np.linalg.cond(G):.2e}")
    coef = np.linalg.solve(G, rhs)
    return Mollifier(n=n, poly_coeffs={b: float(c) for b, c in zip(basis, coef)})


@dataclass
class YPolynomial:
    """Polynomial in the edge-flattening tangential coordinate y'.

    Coefficients are keyed by full n-multi-indices whose last entry must
    be zero (the polynomial is constant along y_n by construction).
    """

    n: int
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        for mu, c in self.coefficients.items():
            if len(mu) != self.n or any(e < 0 for e in mu):
                raise ValueError(f"bad multi-index {mu}")
            if mu[self.n - 1] != 0:
                raise ValueError(f"coefficient on y_n power: {mu}")

    @property
    def degree(self) -> int:
        return max((sum(mu) for mu in self.coefficients), default=0)

    @property
    def coeffs(self) -> list:
        """Coefficients by power of y_1, as given (n = 1 has the constant
        alone); unset powers are 0.  A power of y_2 .. y_(n-1) has no
        place in this list, so it raises ValueError."""
        if any(any(mu[1:]) for mu in self.coefficients):
            raise ValueError("coefficients by power of y_1 need Q to depend on y_1 alone")
        out = [0] * (self.degree + 1)
        for mu, c in self.coefficients.items():
            out[mu[0]] = c
        return out

    def evaluate_foot(self, t: np.ndarray) -> np.ndarray:
        """Evaluate at foot parameter t (y_1 = t for n = 2; constant for n = 1)."""
        return _evaluate(self.coeffs, np.asarray(t, dtype=float))


def whitney_extend(mol: Mollifier, Q: YPolynomial, geom: SlitGeometry,
                   points) -> np.ndarray:
    """E(Q) at in-plane sample points (distance to the edge > 0).

    Substituting y~ = x + d u reduces the kernel integral to a fixed
    integral over B_{1/2}, evaluated by the tensor Gauss rule on which
    ``build_mollifier`` solved the moment conditions, so E reproduces the
    polynomials of those conditions to rounding.  The bump is
    flat-but-not-analytic at the support edge, so Gauss converges only
    root-exponentially on the rest of the integrand.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != geom.n:
        raise ValueError("points must be in-plane (n columns)")
    fr = frame_fields(geom, pts, np.zeros(len(pts)))
    dist = np.abs(fr["d"])
    if np.any(dist <= 0.0):
        raise OutOfChart("extension point lies on the edge (d = 0)")

    grids, ws = _tensor_rule(geom.n)
    rho = (mol(*grids) * ws).ravel()
    offsets = np.stack([g.ravel() for g in grids], axis=1)

    out = np.empty(len(pts))
    for j, (x0, d0) in enumerate(zip(pts, dist)):
        ys = x0[None, :] + d0 * offsets
        if np.any(np.linalg.norm(ys, axis=1) > 1.0):
            raise OutOfChart("quadrature ball exits the unit chart")
        foot = frame_fields(geom, ys, np.zeros(len(ys)))["foot"]
        out[j] = float(rho @ Q.evaluate_foot(foot))
    return out


def _defect_floor(mol: Mollifier, Q: YPolynomial, reach: np.ndarray) -> np.ndarray:
    """The resolution of E(Q) - Q o y at points whose feet and quadrature
    feet lie within ``reach`` of t = 0 (|foot| + |d| bounds them: the
    ball has radius |d|/2).  Both read Q at closest-point feet known to
    ``_FOOT_TOL`` and round at machine epsilon, and E weighs its values
    by rho, so the floor is (||rho||_1 + 1) times the majorants of
    _FOOT_TOL |Q'| + eps |Q| at |t| = reach."""
    grids, ws = _tensor_rule(mol.n)
    mass = float(np.abs(mol(*grids) * ws).sum())
    size = [abs(float(c)) for c in Q.coeffs]
    return (mass + 1.0) * (_FOOT_TOL * _evaluate(_derivative(size), reach)
                           + np.finfo(float).eps * _evaluate(size, reach))


def verify_jet_match(mol: Mollifier, Q: YPolynomial, geom: SlitGeometry,
                     Z, orders=(0, 1)) -> list[dict]:
    """Defect table for D^m_nu E(Q) vs D^m_nu (Q o y) approaching the edge,
    for each m in ``orders`` (a subset of {0, 1}; any other order raises
    ValueError before anything is evaluated).

    Z is the edge point (in-plane); the approach runs along the edge
    normal nu at Z from the positive side at distances s = 2^-3 .. 2^-7.
    E(Q) and Q o y are evaluated once, together, at the 15 points x0 and
    x0 +- (s/4) nu of the five approaches x0 = Z + s nu; order 1 is the
    central difference (f(x0 + step nu) - f(x0 - step nu)) / (2 step)
    of each.  Each row reports the defect sequence and its fitted
    approach rate; the jet-matching statement is defect -> 0 with rate
    at least k + 1 for the normal derivative.  The fit takes only the
    defects above ``_defect_floor`` at their points, the resolution of
    the compared values; with fewer than two the rate is inf (unmeasured).
    """
    if not set(orders) <= {0, 1}:
        raise ValueError("orders 0 and 1 supported")
    Z = np.asarray(Z, dtype=float)
    approaches = np.array([2.0**-j for j in range(3, 8)])
    nu0 = frame_fields(geom, Z[None, :], np.zeros(1))["nu"][0]
    x0 = Z + approaches[:, None] * nu0
    step = approaches / 4.0
    pts = np.concatenate([x0, x0 + step[:, None] * nu0, x0 - step[:, None] * nu0])
    E = whitney_extend(mol, Q, geom, pts).reshape(3, -1)
    fr = frame_fields(geom, pts, np.zeros(len(pts)))
    Qy = Q.evaluate_foot(fr["foot"]).reshape(3, -1)
    floor = _defect_floor(mol, Q, np.abs(fr["foot"]) + np.abs(fr["d"])).reshape(3, -1)

    rows = []
    for m in orders:
        if m == 0:
            defects = np.abs(E[0] - Qy[0])
            good = defects > floor[0]
        else:
            defects = np.abs((E[1] - E[2]) / (2 * step) - (Qy[1] - Qy[2]) / (2 * step))
            good = defects > (floor[1] + floor[2]) / (2 * step)
        if good.sum() >= 2:
            A = np.vstack([np.log(approaches[good]), np.ones(int(good.sum()))]).T
            rate = float(np.linalg.lstsq(A, np.log(defects[good]), rcond=None)[0][0])
        else:
            rate = float("inf")
        rows.append({"order": m, "approaches": approaches.tolist(),
                     "defects": defects.tolist(), "approach_rate": rate})
    return rows


def jet_match_passed(rows: list[dict], k: int) -> bool:
    """The jet-matching rule for ``verify_jet_match`` rows of a degree-k
    mollifier: every approach rate is measured (finite) and at least
    k + 1.  An inf rate means fewer than two defects cleared the floor,
    which shows nothing about the rate, so it fails."""
    return all(np.isfinite(r["approach_rate"]) and r["approach_rate"] >= k + 1 for r in rows)
