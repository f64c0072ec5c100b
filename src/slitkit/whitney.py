"""Moment-vanishing mollifier and polynomial edge extension.

A compactly supported mollifier rho with vanishing moments up to order
k + 2 turns a polynomial Q of the edge-flattening coordinate y' into a
smooth extension

    E(Q)(x) = integral of Q(y(y~)) rho((x - y~)/d) d^{-n} dy~,

where d is the distance from x to the edge graph within the x-plane.
E(Q) reproduces polynomials of degree <= k + 2 where the coordinates
are affine, matches the full jet of Q on the edge, and has vanishing
normal derivative there.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfChart, SingularMoments
from .geometry import SlitGeometry, frame_fields

__all__ = [
    "Mollifier", "YPolynomial", "build_mollifier", "whitney_extend",
    "verify_jet_match",
]


def _tensor_rule(n: int, nquad: int):
    """Tensor Gauss-Legendre rule on [-1/2, 1/2]^n: the node coordinate
    grids and the product weights."""
    x, w = np.polynomial.legendre.leggauss(nquad)
    u, w = 0.5 * x, 0.5 * w
    grids = np.meshgrid(*([u] * n), indexing="ij")
    ws = np.ones_like(grids[0])
    for i in range(n):
        shape = [1] * n
        shape[i] = nquad
        ws = ws * w.reshape(shape)
    return grids, ws


def _monomial(grids, mu) -> np.ndarray:
    """y^mu on the node grids."""
    m = np.ones_like(grids[0])
    for i, e in enumerate(mu):
        if e:
            m = m * grids[i] ** e
    return m


def _even_indices(n: int, max_order: int):
    out = []
    for mu in itertools.product(range(0, max_order + 1, 2), repeat=n):
        if sum(mu) <= max_order:
            out.append(mu)
    return sorted(out)


@dataclass
class Mollifier:
    """Polynomial times the exponential bump on B_{1/2}."""

    n: int
    k: int
    poly_coeffs: dict = field(default_factory=dict)

    def bump(self, *ys) -> np.ndarray:
        rho2 = sum(np.asarray(y, dtype=float) ** 2 for y in ys)
        arg = 1.0 - 4.0 * rho2
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(arg > 0.0, np.exp(-1.0 / np.where(arg > 0, arg, 1.0)), 0.0)
        return out

    def __call__(self, *ys) -> np.ndarray:
        ys = [np.asarray(y, dtype=float) for y in ys]
        poly = np.zeros(np.broadcast(*ys).shape if len(ys) > 1 else ys[0].shape)
        for mu, c in self.poly_coeffs.items():
            term = np.full_like(ys[0], c)
            for i, e in enumerate(mu):
                if e:
                    term = term * ys[i] ** e
            poly = poly + term
        return poly * self.bump(*ys)

    def moments(self, max_order: int) -> dict:
        """All moments up to ``max_order`` by tensor Gauss quadrature."""
        grids, ws = _tensor_rule(self.n, 120)
        vals = self(*grids) * ws
        out = {}
        for mu in itertools.product(range(max_order + 1), repeat=self.n):
            if sum(mu) <= max_order:
                out[mu] = float((vals * _monomial(grids, mu)).sum())
        return out


def build_mollifier(n: int, k: int) -> Mollifier:
    """Mollifier with unit mass and vanishing moments through order k+2.

    The polynomial factor uses even multi-indices only (odd moments
    vanish by symmetry of the bump), so the moment conditions reduce to
    a square Gram system over the even monomials of order <= k + 2.
    """
    if n not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if k > 4:
        raise ValueError("order k <= 4")
    basis = _even_indices(n, k + 2)
    grids, ws = _tensor_rule(n, 120)
    bump = Mollifier(n=n, k=k).bump(*grids) * ws
    G = np.array([[float((bump * _monomial(grids, a) * _monomial(grids, b)).sum())
                   for b in basis] for a in basis])
    rhs = np.zeros(len(basis))
    rhs[basis.index(tuple([0] * n))] = 1.0
    if np.linalg.cond(G) > 1e12:
        raise SingularMoments(f"moment Gram system condition {np.linalg.cond(G):.2e}")
    coef = np.linalg.solve(G, rhs)
    return Mollifier(n=n, k=k, poly_coeffs={b: float(c) for b, c in zip(basis, coef)})


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

    def evaluate_foot(self, t: np.ndarray) -> np.ndarray:
        """Evaluate at foot parameter t (y_1 = t for n = 2; constant for n = 1)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for mu, c in self.coefficients.items():
            out = out + c * t ** mu[0] if self.n == 2 else out + c
        return out


def whitney_extend(mol: Mollifier, Q: YPolynomial, geom: SlitGeometry,
                   points) -> np.ndarray:
    """E(Q) at in-plane sample points (distance to the edge > 0).

    Substituting y~ = x + d u reduces the kernel integral to a fixed
    integral over B_{1/2}, evaluated by a tensor Gauss rule.  The bump
    is flat-but-not-analytic at the support edge, so Gauss converges
    root-exponentially: 80 nodes per axis reaches ~2e-9 relative.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != geom.n:
        raise ValueError("points must be in-plane (n columns)")
    fr = frame_fields(geom, pts, np.zeros(len(pts)))
    dist = np.abs(fr["d"])
    if np.any(dist <= 0.0):
        raise OutOfChart("extension point lies on the edge (d = 0)")

    grids, ws = _tensor_rule(geom.n, 80)
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


def _fd_normal_derivative(func, x0: np.ndarray, nu: np.ndarray, order: int,
                          step: float) -> float:
    """Central finite difference of ``func`` along nu at x0."""
    if order == 0:
        return float(func(x0[None, :])[0])
    if order == 1:
        vals = func(np.stack([x0 + step * nu, x0 - step * nu]))
        return float((vals[0] - vals[1]) / (2 * step))
    raise ValueError("orders 0 and 1 supported")


def verify_jet_match(mol: Mollifier, Q: YPolynomial, geom: SlitGeometry,
                     Z, orders=(0, 1)) -> list[dict]:
    """Defect table for D^m_nu E(Q) vs D^m_nu (Q o y) approaching the edge,
    for each m in ``orders`` (a subset of {0, 1}).

    Z is the edge point (in-plane); the approach runs along the edge
    normal at Z from the positive side at distances 2^-3 .. 2^-7.  Each row reports the defect sequence and its fitted
    approach rate; the jet-matching statement is defect -> 0 with rate
    at least k + 1 for the normal derivative.
    """
    Z = np.asarray(Z, dtype=float)
    approaches = [2.0**-j for j in range(3, 8)]
    nu0 = frame_fields(geom, Z[None, :], np.zeros(1))["nu"][0]

    def E(pts):
        return whitney_extend(mol, Q, geom, pts)

    def Qy(pts):
        return Q.evaluate_foot(frame_fields(geom, pts, np.zeros(len(pts)))["foot"])

    rows = []
    for m in orders:
        defects = []
        for s in approaches:
            x0 = Z + s * nu0
            step = s / 4.0
            dE = _fd_normal_derivative(E, x0, nu0, m, step)
            dQ = _fd_normal_derivative(Qy, x0, nu0, m, step)
            defects.append(abs(dE - dQ))
        defects = np.asarray(defects)
        good = defects > 1e-13
        if good.sum() >= 2:
            A = np.vstack([np.log(np.asarray(approaches)[good]),
                           np.ones(int(good.sum()))]).T
            rate = float(np.linalg.lstsq(A, np.log(defects[good]), rcond=None)[0][0])
        else:
            rate = float("inf")
        rows.append({"order": m, "approaches": list(approaches),
                     "defects": defects.tolist(), "approach_rate": rate})
    return rows
