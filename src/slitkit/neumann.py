"""Degenerate Neumann quotient problem at the slit edge.

For a solution u with u_n > 0 near the edge, the quotient w = u_i/u_n
solves Delta(u_n w) = 0 with w_nu = 0 on the edge, and is as regular as
the free boundary.  This module extracts w from grid solutions, solves
the flat constant-coefficient family T = Q(x') + r P(x, r) exactly, and
builds the corrector pairs (Q, P).

All polynomial solves are exact over rationals; the key identity is the
r^2-multiplied bracket r^3/U0 * Delta((U0/r) x^mu r^m) = r^2 * (r/U0) *
Delta(U0 x^mu r^(m-1)), valid down to m = 0, with the bracket taken
from ``xrpoly.edge_bracket``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateWeight, SingularSystem, TruncationWarning
from .expansion import RateReport, _node_samples, _poly_from_coeffs, _sup_rates, evaluate_poly
from .geometry import GammaJet, SlitGeometry, _compose, flat_jet, foot_jet
from .solver import GridSolution, _lstsq_poly
from .whitney import YPolynomial
from .xrpoly import XRPolynomial, _bracket_sum, _sweep

__all__ = [
    "QuotientField", "NeumannPair", "quotient", "constant_T", "t_nu_on_edge",
    "weighted_laplacian_bracket", "solve_pair_systems", "fit_quotient_expansion",
    "neumann_rate",
]


# ----------------------------------------------------------------------
# Exact weighted Laplacian bracket
# ----------------------------------------------------------------------

def weighted_laplacian_bracket(V: XRPolynomial, jet: GammaJet,
                               degree: int | None = None) -> XRPolynomial:
    """(r^3/U0) * Delta((U0/r) * V) as an exact polynomial.

    V is a polynomial in (x, r); the weight U0/r is the flat normal
    derivative profile of U0 up to the factor 1/2.  Vanishing of the
    result through total degree k + 2 is the corrector condition
    Delta(u_n W) = O((U0/r) |X|^(k+alpha)) at the symbolic level.
    Each monomial x^mu r^m contributes r^2 times the bracket of
    Delta(U0 x^mu r^(m-1)).  The jet terms and the result are cut at
    ``degree``; ``degree=None`` keeps the full jet and an uncut result.
    """
    return _bracket_sum(V, jet, degree, lower=1)


# ----------------------------------------------------------------------
# Flat constant-coefficient family T = Q(x') + r P
# ----------------------------------------------------------------------

def constant_T(n: int, k: int, q: dict | None = None,
               free_b1: dict | None = None) -> XRPolynomial:
    """Exact solution T = Q(x') + r P of the flat weighted problem.

    Coefficients b_{mu,m} of T satisfy, for every (sigma, l),

      (l+1)(l+2+2 sigma_n) b_{sigma,l+2} + (sigma_n+1) b_{sigma+n,l+1}
        + sum_i (sigma_i+1)(sigma_i+2) b_{sigma+2i,l} = 0,

    plus the edge Neumann condition b_{(sigma',0),1} = -b_{(sigma',1),0}.
    Free data: ``q`` maps x'-multi-indices (mu_n = 0) to q_mu, and
    ``free_b1`` maps multi-indices with mu_n != 0 to b_{mu,1} (default
    zero).  Total degree of T is bounded by k + 2.  This is the flat
    pair solve with the constant weight 1/2: T = Q + 2 r P.
    """
    q = {} if q is None else q
    free_b1 = {} if free_b1 is None else free_b1
    if any(mu[n - 1] != 0 for mu in q):
        raise ValueError("q lives on x'-multi-indices (mu_n = 0)")
    if any(mu[n - 1] == 0 for mu in free_b1):
        raise ValueError("free b_{mu,1} requires mu_n != 0")
    Q = YPolynomial(n, {tuple(mu): v for mu, v in q.items() if sum(mu) <= k + 2})
    half_b1 = {tuple(mu): Fraction(v) / 2 for mu, v in free_b1.items() if sum(mu) + 1 <= k + 2}
    P = solve_pair_systems(flat_jet(n, k + 4), Q, k, free_b1=half_b1).P
    return _q_to_xr(Q, None, k + 2) + 2 * P.mul_r_power(1)


def t_nu_on_edge(T: XRPolynomial) -> XRPolynomial:
    """Edge Neumann trace of T for the flat geometry.

    Along the inward normal at an edge point (x', 0, 0) both x_n and r
    grow like the step t, so the linear-in-t coefficient is
    b_{(sigma',1),0} + b_{(sigma',0),1} per x'-monomial.
    """
    n = T.n
    c = {}
    for (mu, m), v in T.items():
        if m == 0 and mu[n - 1] == 1:
            sp = list(mu)
            sp[n - 1] = 0
            key = (tuple(sp), 0)
            c[key] = c.get(key, Fraction(0)) + v
        if m == 1 and mu[n - 1] == 0:
            key = (mu, 0)
            c[key] = c.get(key, Fraction(0)) + v
    return XRPolynomial(n, c)


# ----------------------------------------------------------------------
# Corrector pairs (Q, P)
# ----------------------------------------------------------------------

@dataclass
class NeumannPair:
    """Approximating pair: tangential polynomial Q and radial corrector P.

    Relabeled coefficients b_{mu,0} = q_mu and b_{mu,m+1} = a_{mu,m}
    reproduce the flat family T = Q + r P.  ``weight`` holds the edge
    expansion N of r u_n / U0 (N(0,0) = 1/2) used in the solve.
    """

    Q: YPolynomial
    P: XRPolynomial
    k: int
    weight: XRPolynomial = field(default=None)
    residual: XRPolynomial = field(default=None)


def _q_to_xr(Q: YPolynomial, foot: XRPolynomial | None, degree: int) -> XRPolynomial:
    """Q composed with the edge-flattening coordinate ``foot`` as an
    x-series through ``degree``; ``foot=None`` is the flat edge's x_1.

    This is the one place a Q coefficient becomes exact: ``Fraction(c)``,
    so a float enters as the binary value it holds, never rounded.
    """
    coeffs = [Fraction(0)] * (Q.degree + 1)
    for mu, c in Q.coefficients.items():
        coeffs[mu[0]] += Fraction(c)
    return _compose(coeffs, XRPolynomial.x_var(Q.n, 0) if foot is None else foot, degree)


def solve_pair_systems(jet: GammaJet, Q: YPolynomial, k: int,
                       weight: XRPolynomial | None = None,
                       foot: XRPolynomial | None = None,
                       edge=None,
                       free_b1: dict | None = None) -> NeumannPair:
    """Corrector P of degree k+1 for the pair (Q, P).

    Two triangular systems: the edge condition P(x(t), r=0) = 0 through
    degree k+1 pins the r-free layer with mu_n = 0 (free inputs supply
    the mu_n != 0 entries), and the vanishing of the weighted Laplacian
    bracket of V = N E(Q) + r P through degree k+2 pins each a_{sigma,l}
    (l >= 1) by the triangular sweep of ``solve_approximating``.  Curved
    jet terms couple only to strictly lower degrees, so an ascending
    sweep is exact.

    A curved jet needs ``edge``, the graph's Taylor coefficients; Q is
    composed with ``foot``, by default that edge's ``foot_jet``.  P and
    the residual equal those of any longer jet once ``jet.order >= k``;
    a shorter curved jet raises TruncationWarning (its P first differs
    at degree ``jet.order + 2``).
    """
    n = jet.n
    deg = k + 1
    if not jet.is_flat and jet.order < k:
        warnings.warn(f"jet of order {jet.order} < k = {k}: the corrector is exact "
                      f"only through degree {jet.order + 1}", TruncationWarning)
    N = weight if weight is not None else XRPolynomial.constant(n, Fraction(1, 2))
    if N.evaluate([0] * n, 0) == 0:
        raise SingularSystem("weight expansion vanishes at the edge")
    if not jet.is_flat:
        if edge is None:
            raise ValueError("curved pair solve needs the edge graph series")
        edge = SlitGeometry(2, edge)
        foot = foot_jet(edge, k + 2) if foot is None else foot
    EQ = _q_to_xr(Q, None if jet.is_flat else foot, k + 2)

    free_b1 = {} if free_b1 is None else free_b1
    a: dict[tuple, Fraction] = {}
    for mu, v in free_b1.items():
        mu = tuple(mu)
        if mu[n - 1] == 0:
            raise ValueError("free a_{mu,0} requires mu_n != 0")
        a[(mu, 0)] = Fraction(v)

    # edge condition: P(x(t), 0) = 0 through degree k+1.  The flat edge
    # is x_n = 0, where only the mu_n = 0 layer survives and stays zero;
    # on a curved edge x = (t, g(t)), with g(t) = sum_j edge[j] t^j
    # supplied by the caller, the free mu_n != 0 entries are substituted
    # into the r-free part and the mu_n = 0 entries cancel their trace
    if not jet.is_flat:
        t = XRPolynomial.x_var(1, 0)
        gt = _compose(edge.coeffs, t, deg)
        trace = XRPolynomial.zero(1)
        for (mu, m), v in a.items():
            term = XRPolynomial.monomial(1, mu[:1], 0, v)
            for _ in range(mu[1]):
                term = (term * gt).truncate(deg)
            trace = trace + term
        for ((j,), _), v in trace.items():
            a[((j, 0), 0)] = -v

    # the l >= 1 layers: W(r P) = r^2 * (bracket of P), so P solves the
    # approximating sweep against -W(N E(Q)) / r^2
    NEQ = (N * EQ).truncate(k + 2)
    W0 = weighted_laplacian_bracket(NEQ, jet, degree=k + 2)
    target = XRPolynomial(n, {(mu, m - 2): -v for (mu, m), v in W0.items() if m >= 2})
    P = _sweep(jet, target, k, XRPolynomial(n, a))
    R = weighted_laplacian_bracket(NEQ + P.mul_r_power(1), jet, degree=k + 2)
    if jet.is_flat and not R.is_zero():
        raise SingularSystem(f"flat residual should vanish exactly, got {R}")
    return NeumannPair(Q=Q, P=P, k=k, weight=N, residual=R)


# ----------------------------------------------------------------------
# Quotient fields from grid solutions
# ----------------------------------------------------------------------

@dataclass
class QuotientField:
    """w = u_i/u_n on the grid, with edge trace and normal derivative."""

    u: GridSolution
    i: int
    values: np.ndarray
    valid: np.ndarray

    @property
    def n(self) -> int:
        return self.u.n

    def _plane_interp(self):
        from scipy.interpolate import RegularGridInterpolator

        slab = self.values[..., 0]
        return RegularGridInterpolator(tuple(self.u.axes[:-1]), slab,
                                       bounds_error=False, fill_value=np.nan)

    def trace_and_normal(self, Z) -> tuple[float, float]:
        """One-sided edge limit and normal derivative at edge point Z.

        Quadratic fit of w(Z + t nu, z = 0) at t in {2h, 4h, 8h}, with h
        the grid's own step near the edge (``local_h``, at least a
        quarter of the requested h): the constant term is the trace,
        the linear term is w_nu.
        """
        from .geometry import frame_fields

        Z = np.asarray(Z, dtype=float)
        steps = np.array([2.0, 4.0, 8.0]) * max(self.u.local_h(), self.u.h * 0.25)
        fr = frame_fields(self.u.geom, Z[None, :], np.zeros(1))
        nu = fr["nu"][0]
        interp = self._plane_interp()
        pts = Z[None, :] + steps[:, None] * nu[None, :]
        vals = interp(pts)
        if np.any(np.isnan(vals)):
            raise DegenerateWeight("edge extrapolation hit invalid quotient nodes")
        A = np.vstack([np.ones(len(steps)), steps, steps**2]).T
        coef = np.linalg.lstsq(A, vals, rcond=None)[0]
        return float(coef[0]), float(coef[1])


def quotient(u: GridSolution, i: int) -> QuotientField:
    """Quotient w = u_i/u_n via axis differences on the grid.

    ``valid`` marks nodes where u_n is safely positive: off the slit and
    the outer Dirichlet nodes, |u_n| above 1e-3 max |u|, and
    u0 >= sqrt(r)/4.  A sign change of u_n on the valid set raises
    DegenerateWeight; the Dirichlet nodes hold boundary data, not the
    solution, so their sign does not count.
    """
    n = u.n
    if not (0 <= i < n):
        raise ValueError("component index out of range")
    grads = np.gradient(u.values, *u.axes, edge_order=2)
    u_i = grads[i]
    u_n = grads[n - 1]
    fr = u.node_frames()
    r = fr["r"].reshape(u.values.shape)
    u0 = fr["u0"].reshape(u.values.shape)
    scale = np.abs(u.values).max()
    floor = 1e-3 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(np.abs(u_n) > floor, u_i / np.where(np.abs(u_n) > floor, u_n, 1.0), np.nan)
    valid = (np.abs(u_n) > floor) & ~u.slit_mask & ~u.dirichlet_mask \
        & (u0 >= 0.25 * np.sqrt(np.maximum(r, 1e-300)))
    if np.any(u_n[valid] < 0) and np.any(u_n[valid] > 0):
        neg = int((u_n[valid] < 0).sum())
        raise DegenerateWeight(f"u_n changes sign on the evaluation set ({neg} negative nodes)")
    return QuotientField(u=u, i=i, values=w, valid=valid)


# ----------------------------------------------------------------------
# Corrector residual rates and the quotient regularity rate
# ----------------------------------------------------------------------

def fit_quotient_expansion(w: QuotientField, Z, degree: int,
                           rmax: float = 0.25, dist_power: float = 0.0,
                           min_cos: float = 0.0) -> XRPolynomial:
    """Least-squares (x, r)-polynomial expansion of the quotient at Z.

    Samples the valid quotient nodes in the ball of radius ``rmax``;
    ``dist_power`` = degree + alpha weights the fit toward the edge
    point so the projection approximates the true jet (see
    ``fit_tangent``), and ``min_cos`` cuts the slit-face sector as in
    ``neumann_rate``.
    """
    smp = _quotient_samples(w, Z, rmax, min_cos)
    keys, coeffs = _lstsq_poly(w.n, degree, smp["x"], smp["r"], smp["u"],
                               dist=smp["dist"], dist_power=dist_power)
    return _poly_from_coeffs(w.n, keys, coeffs)


def _quotient_samples(w: QuotientField, Z, rmax: float, min_cos: float) -> dict:
    """Valid, finite quotient values at the shared fit/rate sample nodes."""
    smp = _node_samples(w.u, Z, rmax, min_cos, values=w.values)
    keep = w.valid.ravel()[smp.pop("sel")] & np.isfinite(smp["u"])
    return {k: v[keep] for k, v in smp.items()}


def neumann_rate(w: QuotientField, T0: XRPolynomial, Z, scales,
                 target: float, min_cos: float = 0.0) -> RateReport:
    """Sup of |w - T0| over nested balls around edge point Z.

    T0 is the degree-(k+2) expansion fitted once at the coarsest scale;
    the decay exponent verifies the quotient's edge regularity class.
    ``min_cos`` > 0 additionally restricts to u0 >= min_cos * sqrt(r):
    the quotient divides two first differences that both vanish like
    U0/r at the slit face, so the face sector carries amplified
    discretization noise rather than the continuum quantity.
    """
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    smp = _quotient_samples(w, Z, scales[0], min_cos)
    dev = np.abs(smp["u"] - evaluate_poly(T0, smp["x"], smp["r"]))
    return _sup_rates(dev, smp["dist"], scales, target, "ball", min_nodes=50, label="quotient")
