"""Tangent polynomial fits and decay-rate reports on grid solutions.

Solutions near the slit edge behave like U0 * P0(x, r) with P0 a
polynomial in the horizontal coordinates and the edge distance r.
This module fits P0 to the nodes of a ``GridSolution`` by weighted
least squares, measures how fast |u/U0 - P0| decays through dyadic
shells of nodes, and forms the formal derivative expansions used by
the gradient checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InsufficientResolution
from .geometry import GammaJet
from .solver import GridSolution, _lstsq_poly, _vandermonde
from .xrpoly import XRPolynomial


@dataclass
class RateReport:
    """Dyadic-shell sup errors and the fitted decay exponent.

    A report passes when the exponent is within 0.2 of the target and
    the log-log residual is at most 0.3.  The exponent is ``_order``'s:
    inf (residual 0) when every error is at rounding, which passes, and
    NaN when the errors measure no rate, which fails.  The error of a
    region with no node is NaN.
    """

    scales: np.ndarray
    errors: np.ndarray
    exponent: float
    residual: float           # RMS log-space regression residual
    target: float
    label: str = ""

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=float)
        if len(s) < 4:
            raise ValueError("need at least 4 scales")
        if not np.all(np.diff(s) < 0):
            raise ValueError("scales must be strictly decreasing")
        if np.any(np.asarray(self.errors) < 0):
            raise ValueError("negative shell error")

    @property
    def passed(self) -> bool:
        return self.exponent >= self.target - 0.2 and self.residual <= 0.3


def _order(scales, errors, floor) -> tuple[float, float]:
    """(exponent, RMS residual) of the least-squares line log e = p log s + c
    through the errors above ``floor`` (a scalar or one value per error).

    Every error at or below its floor is exact: (inf, 0.0).  A NaN error
    (a region with nothing in it) or a single error above the floor
    measures no rate: (nan, nan), which fails every ``>=``.
    """
    s = np.asarray(scales, dtype=float)
    e = np.asarray(errors, dtype=float)
    keep = e > floor
    if np.isnan(e).any() or keep.sum() == 1:
        return math.nan, math.nan
    if not keep.any():
        return math.inf, 0.0
    ls, le = np.log(s[keep]), np.log(e[keep])
    A = np.stack([ls, np.ones_like(ls)], axis=1)
    coef, *_ = np.linalg.lstsq(A, le, rcond=None)
    resid = le - A @ coef
    return float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def _poly_from_coeffs(n, keys, coeffs) -> XRPolynomial:
    return XRPolynomial(n, {k: Fraction(float(v)) for k, v in zip(keys, coeffs) if v != 0.0})


def evaluate_poly(P: XRPolynomial, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized float evaluation of an (x, r) polynomial."""
    keys = [key for key, _ in P.items()]
    coef = np.array([float(v) for _, v in P.items()])
    return _vandermonde(keys, x, np.asarray(r, dtype=float)) @ coef


def _sup_rates(dev, dist, scales, target, mode: str, min_nodes: int = 0,
               label: str = "") -> RateReport:
    """Sup of ``dev`` over the ball (``mode="ball"``) or the dyadic
    shell (``mode="shell"``) at each scale, and its log-log decay fit.

    A region with fewer than ``min_nodes`` samples raises
    InsufficientResolution.  An empty one has error NaN, so a reader
    tells "no node" from "no error", and the fit's exponent reads NaN:
    unmeasured, not exact.  Errors at or below 1e-12 are rounding.
    """
    if mode not in ("shell", "ball"):
        raise ValueError(f"unknown mode {mode!r}")
    inner = np.append(scales[1:], scales[-1] / 2.0)
    errors = np.empty(len(scales))
    for j, (lo, hi) in enumerate(zip(inner, scales)):
        sel = dist <= hi
        if mode == "shell":
            sel &= dist > lo
        if sel.sum() < min_nodes:
            raise InsufficientResolution(
                f"{mode} at scale {hi:.4f} has {int(sel.sum())} nodes < {min_nodes}")
        errors[j] = dev[sel].max() if sel.any() else math.nan
    expo, resid = _order(scales, errors, 1e-12)
    return RateReport(scales=scales, errors=errors, exponent=expo,
                      residual=resid, target=target, label=label)


# ----------------------------------------------------------------------
# Sample extraction
# ----------------------------------------------------------------------

def _node_samples(sol: GridSolution, Z, rmax: float, min_cos: float = 0.0,
                  values=None) -> dict:
    """Grid nodes within ``rmax`` of the edge point Z, for fits and rates.

    Excludes the core r < 4 local_h, the outer Dirichlet nodes and the
    slit face u0 = 0; ``min_cos`` > 0 keeps only the sector
    u0 >= min_cos * sqrt(r), i.e. cos(theta/2) >= min_cos.  ``x`` is
    relative to Z; ``u`` holds ``values`` (default: the solution).
    """
    fr = sol.node_frames()
    x = fr["x"] - np.asarray(Z, dtype=float)[None, :]
    dist = np.sqrt(np.sum(x**2, axis=1) + fr["z"] ** 2)
    r, u0 = fr["r"], fr["u0"]
    sel = (dist <= rmax) & (r >= 4 * sol.local_h()) & (u0 > 0) & ~sol.dirichlet_mask.ravel()
    if min_cos > 0.0:
        sel &= u0 >= min_cos * np.sqrt(np.maximum(r, 1e-300))
    u = sol.values if values is None else values
    return {"x": x[sel], "r": r[sel], "u0": u0[sel], "dist": dist[sel],
            "u": u.ravel()[sel], "sel": sel}


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------

def fit_tangent(sol: GridSolution, Z, degree: int, rmax: float = 0.25,
                cond_limit: float = 1e10, dist_power: float = 0.0) -> XRPolynomial:
    """Weighted least-squares tangent polynomial of u/U0 at an edge
    point Z, over the grid nodes within ``rmax`` of Z.

    Weights are U0^2, so the normal equations reduce to plain least
    squares of u against U0 times the monomial columns — the fit is
    conditioned where the quotient u/U0 is meaningful.

    ``dist_power`` > 0 adds a 1/dist^p factor to the weights.  With
    p = degree + alpha the least-squares projection concentrates at the
    edge point and converges to the true jet of the quotient, instead
    of the fit-window compromise that plain least squares makes; use it
    when the fitted polynomial feeds a decay-rate measurement.
    """
    smp = _node_samples(sol, np.zeros(sol.n) if Z is None else Z, rmax)
    keys, coeffs = _lstsq_poly(sol.n, degree, smp["x"], smp["r"], smp["u"], scale=smp["u0"],
                               dist=smp["dist"], dist_power=dist_power, cond_limit=cond_limit)
    return _poly_from_coeffs(sol.n, keys, coeffs)


def rate_report(sol: GridSolution, P0: XRPolynomial, Z, scales: Sequence[float],
                target: float, min_nodes: int = 100,
                mode: str = "shell", min_cos: float = 0.0) -> RateReport:
    """Sup errors of |u/U0 - P0| over the grid nodes at dyadic scales
    around Z.

    ``mode="shell"`` takes the sup over the dyadic annulus at each
    scale; ``mode="ball"`` takes the sup over the whole ball B_lambda,
    which is the quantity the decay estimate actually bounds (and is
    monotone in lambda by construction).  A shell or ball with fewer
    than ``min_nodes`` nodes raises InsufficientResolution.

    ``min_cos`` > 0 restricts sampling to u0 >= min_cos * sqrt(r),
    i.e. cos(theta/2) bounded below: dividing grid values by U0 right
    at the slit face amplifies discretization error by 1/cos(theta/2),
    which swamps the continuum decay being measured.

    P0 must come from a single fit at the coarsest scale; refitting per
    scale would absorb exactly the decay being measured.
    """
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    smp = _node_samples(sol, np.zeros(sol.n) if Z is None else Z, scales[0], min_cos)
    dev = np.abs(smp["u"] / smp["u0"] - evaluate_poly(P0, smp["x"], smp["r"]))
    return _sup_rates(dev, smp["dist"], scales, target, mode, min_nodes)


def formal_gradient(P0: XRPolynomial, jet: GammaJet) -> list[XRPolynomial]:
    """Formal horizontal gradient of U0 * P0.

    grad_x(U0 P0) = (U0/r)[(1/2) P0 nu + r grad_x P0 + (d/dr P0) d nu]
    with nu and d replaced by their jets; each component truncated at
    the degree of P0.  Every factor has degree >= 0, so each product is
    cut there as it is formed.
    """
    if jet.order < P0.degree:
        raise ValueError("jet order below tangent polynomial degree")
    k1 = max(P0.degree, 0)
    r = XRPolynomial.r_var(jet.n)
    half_P0, dP_r_d = Fraction(1, 2) * P0, P0.diff_r().mul_cut(jet.d, k1)
    return [half_P0.mul_cut(v, k1) + r.mul_cut(P0.diff_x(i), k1) + dP_r_d.mul_cut(v, k1)
            for i, v in enumerate(jet.nu)]


def formal_hessian(P0: XRPolynomial, jet: GammaJet) -> list[list[XRPolynomial]]:
    """Formal second derivatives: u_ij = (U0/r^3)(P0^ij + ...).

    Obtained by differentiating U0 r^{-1} P0^i once more with the
    product rule for the frame fields (the r^{-s} recursion with s = 1);
    each product is cut at degree P0.degree + 1 as it is formed.
    """
    grads = formal_gradient(P0, jet)
    k2 = max(P0.degree + 1, 0)
    r = XRPolynomial.r_var(jet.n)
    r2 = r.mul_cut(r, k2)
    a = [(Fraction(1, 2) * r - jet.d).mul_cut(v, k2) for v in jet.nu]
    b = [r.mul_cut(jet.d, k2).mul_cut(v, k2) for v in jet.nu]
    return [[a[j].mul_cut(gi, k2) + r2.mul_cut(gi.diff_x(j), k2) + b[j].mul_cut(gi.diff_r(), k2)
             for j in range(jet.n)] for gi in grads]


def derivative_rate_checks(sol: GridSolution, P0: XRPolynomial, jet: GammaJet,
                           Z, scales: Sequence[float], order: int = 1,
                           target: float | None = None) -> list[RateReport]:
    """Compare the numerical gradient quotients d_i u * (r/U0) against
    the formal expansions P0^i (``formal_gradient``) inside the
    non-tangential cone {r >= |x'|}, one shell report per component.

    ``order`` must be 1; the second-order quotients are not checked.
    """
    if order != 1:
        raise ValueError("only order 1 is checked")
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    n = sol.n
    Zv = np.zeros(n) if Z is None else np.asarray(Z, dtype=float)
    if target is None:
        target = float(P0.degree)

    # the derivative quotients carry a factor r/U0, so restrict to the
    # sector cos(theta/2) >= 1/2 where that factor is well-conditioned
    smp = _node_samples(sol, Zv, scales[0], min_cos=0.5)
    sel = smp["sel"]
    # |x'| = tangential displacement, measured by the foot parameter for
    # n = 2; there is no tangential direction at n = 1
    xprime = np.abs(sol.node_frames()["foot"][sel] - Zv[0]) if n == 2 else 0.0
    cone = smp["r"] >= xprime
    x, r, u0, dist = (smp[k][cone] for k in ("x", "r", "u0", "dist"))

    reports = []
    for i, gi in enumerate(formal_gradient(P0, jet)):
        du = np.gradient(sol.values, sol.axes[i], axis=i, edge_order=2)
        quot = du.ravel()[sel][cone] * (r / np.maximum(u0, 1e-300))
        dev = np.abs(quot - evaluate_poly(gi, x, r))
        reports.append(_sup_rates(dev, dist, scales, target, "shell", label=f"d{i + 1}"))
    return reports
