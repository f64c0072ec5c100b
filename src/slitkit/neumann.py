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

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateWeight, SingularSystem
from .expansion import RateReport, _node_samples, _poly_from_coeffs, _sup_rates, evaluate_poly
from .geometry import GammaJet
from .solver import GridSolution, _lstsq_poly
from .whitney import YPolynomial
from .xrpoly import XRPolynomial, poly_bracket

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
    Delta(U0 x^mu r^(m-1)).
    """
    lap_d = -jet.kappa
    out = XRPolynomial.zero(V.n)
    for (mu, m), v in V.items():
        out = out + v * poly_bracket(mu, m - 1, jet.d, jet.nu, lap_d, shift=2)
    return out if degree is None else out.truncate(degree)


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
    zero).  Total degree of T is bounded by k + 2.
    """
    q = {} if q is None else q
    free_b1 = {} if free_b1 is None else free_b1
    deg = k + 2
    b: dict[tuple, Fraction] = {}
    for mu, v in q.items():
        mu = tuple(mu)
        if mu[n - 1] != 0:
            raise ValueError("q lives on x'-multi-indices (mu_n = 0)")
        if sum(mu) <= deg:
            b[(mu, 0)] = Fraction(v)
    for mu, v in free_b1.items():
        mu = tuple(mu)
        if mu[n - 1] == 0:
            raise ValueError("free b_{mu,1} requires mu_n != 0")
        if sum(mu) + 1 <= deg:
            b[(mu, 1)] = Fraction(v)
    # x_n-linear inputs default to zero; the Neumann condition then
    # pins the remaining r-linear layer
    for (mu, m), v in list(b.items()):
        if m == 0 and mu[n - 1] == 0:
            key = (mu, 1)
            b.setdefault(key, Fraction(0))
    for key in list(b):
        mu, m = key
        if m == 0 and mu[n - 1] == 1:
            sp = list(mu)
            sp[n - 1] = 0
            b[(tuple(sp), 1)] = b.get((tuple(sp), 1), Fraction(0)) - b[key]

    def get(sigma, l):
        return b.get((tuple(sigma), l), Fraction(0))

    import itertools

    for D in range(deg + 1):
        for l in range(0, D - 1):
            # determine b_{sigma, l+2} with |sigma| = D - l - 2
            for sigma in itertools.product(range(D + 1), repeat=n):
                if sum(sigma) != D - l - 2:
                    continue
                acc = Fraction(0)
                up = list(sigma)
                up[n - 1] += 1
                acc += (sigma[n - 1] + 1) * get(up, l + 1)
                for i in range(n):
                    up2 = list(sigma)
                    up2[i] += 2
                    acc += (sigma[i] + 1) * (sigma[i] + 2) * get(up2, l)
                piv = (l + 1) * (l + 2 + 2 * sigma[n - 1])
                b[(tuple(sigma), l + 2)] = -acc / piv
    return XRPolynomial(n, {key: v for key, v in b.items() if v != 0})


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

    def composite(self, EQ: XRPolynomial) -> XRPolynomial:
        """V = N * E(Q) + r * P, the polynomial whose weighted Laplacian
        vanishes to the corrector order."""
        return self.weight * EQ + self.P.mul_r_power(1)


def _q_to_xr(Q: YPolynomial, foot: XRPolynomial | None, degree: int) -> XRPolynomial:
    """Q composed with the edge-flattening coordinate as an x-series."""
    n = Q.n
    if foot is None:
        foot = XRPolynomial.x_var(n, 0) if n == 2 else XRPolynomial.zero(n)
    out = XRPolynomial.zero(n)
    for mu, c in Q.coefficients.items():
        term = XRPolynomial.constant(n, Fraction(c) if not isinstance(c, float) else Fraction(c).limit_denominator(10**12))
        for _ in range(mu[0] if n == 2 else 0):
            term = (term * foot).truncate(degree)
        out = out + term
    return out.truncate(degree)


def _poly_mul_t(a: list, b: list, deg: int) -> list:
    out = [Fraction(0)] * (deg + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > deg:
            continue
        for j, bj in enumerate(b):
            if i + j > deg:
                break
            out[i + j] += ai * bj
    return out


def solve_pair_systems(jet: GammaJet, Q: YPolynomial, k: int,
                       weight: XRPolynomial | None = None,
                       foot: XRPolynomial | None = None,
                       edge: list | None = None,
                       free_b1: dict | None = None) -> NeumannPair:
    """Corrector P of degree k+1 for the pair (Q, P).

    Two triangular systems: the edge condition P(x(t), r=0) = 0 through
    degree k+1 pins the r-free layer with mu_n = 0 (free inputs supply
    the mu_n != 0 entries), and the vanishing of the weighted Laplacian
    bracket of V = N E(Q) + r P through degree k+2 pins each a_{sigma,l}
    (l >= 1) via the pivot l(l+1+2 sigma_n).  Curved jet terms couple
    only to strictly lower degrees, so an ascending sweep is exact.
    """
    n = jet.n
    deg = k + 1
    N = weight if weight is not None else XRPolynomial.constant(n, Fraction(1, 2))
    if N.evaluate([0] * n, 0) == 0:
        raise SingularSystem("weight expansion vanishes at the edge")
    EQ = _q_to_xr(Q, foot if not jet.is_flat else None, k + 2)

    free_b1 = {} if free_b1 is None else free_b1
    a: dict[tuple, Fraction] = {}
    for mu, v in free_b1.items():
        mu = tuple(mu)
        if mu[n - 1] == 0:
            raise ValueError("free a_{mu,0} requires mu_n != 0")
        a[(mu, 0)] = Fraction(v)

    # edge condition: P(x(t), 0) = 0 through degree k+1.  On the edge
    # x = (t, g(t)): substitute the graph into the r-free part.
    import itertools

    if jet.is_flat:
        for j in range(deg + 1):
            mu = [0] * n
            mu[0] = j
            if n == 1:
                mu = [0]
            a.setdefault((tuple(mu), 0), Fraction(0))
            # flat edge is x_n = 0: only mu_n = 0 terms survive, and
            # they must vanish identically
            a[(tuple(mu), 0)] = Fraction(0)
    else:
        # edge graph series g(t) = sum_j edge[j] t^j supplied by the
        # caller (edge[0] = edge[1] = 0 by normalization); the condition
        # P((t, g(t)), 0) = 0 through degree k+1 is solved coefficient
        # by coefficient over the rationals
        if edge is None:
            raise ValueError("curved pair solve needs the edge graph series")
        gcoef = [Fraction(v) for v in edge] + [Fraction(0)] * (deg + 2)
        if gcoef[0] != 0 or gcoef[1] != 0:
            raise ValueError("edge graph must satisfy g(0) = g'(0) = 0")
        for j in range(deg + 1):
            acc = Fraction(0)
            for (mu, m), v in sorted(a.items()):
                if m != 0 or v == 0:
                    continue
                ser = [Fraction(0)] * (deg + 2)
                if mu[0] <= deg + 1:
                    ser[mu[0]] = v
                for _ in range(mu[1]):
                    ser = _poly_mul_t(ser, gcoef[: deg + 2], deg + 1)
                acc += ser[j]
            key = ((j, 0), 0)
            a[key] = a.get(key, Fraction(0)) - acc

    # bracket sweep for l >= 1 layers
    for D in range(1, deg + 1):
        for l in range(1, D + 1):
            for sigma in itertools.product(range(D + 1), repeat=n):
                if sum(sigma) != D - l:
                    continue
                P_cur = XRPolynomial(n, {key: v for key, v in a.items() if v != 0})
                V = (N * EQ).truncate(k + 2) + P_cur.mul_r_power(1)
                R = weighted_laplacian_bracket(V, jet, degree=k + 2)
                coeff = R.coeff(sigma, l + 1)
                piv = Fraction(l * (l + 1 + 2 * sigma[n - 1]))
                key = (tuple(sigma), l)
                a[key] = a.get(key, Fraction(0)) - coeff / piv
    P = XRPolynomial(n, {key: v for key, v in a.items() if v != 0})
    V = (N * EQ).truncate(k + 2) + P.mul_r_power(1)
    R = weighted_laplacian_bracket(V, jet, degree=k + 2)
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
    extension: str = "centered differences off the slit; quadratic-in-t edge extrapolation"

    @property
    def n(self) -> int:
        return self.u.n

    def _plane_interp(self):
        from scipy.interpolate import RegularGridInterpolator

        slab = self.values[..., 0]
        return RegularGridInterpolator(tuple(self.u.axes[:-1]), slab,
                                       bounds_error=False, fill_value=np.nan)

    def trace_and_normal(self, Z, steps=None) -> tuple[float, float]:
        """One-sided edge limit and normal derivative at edge point Z.

        Quadratic fit of w(Z + t nu, z = 0) at t in {2h, 4h, 8h}: the
        constant term is the trace, the linear term is w_nu.
        """
        from .geometry import frame_fields

        Z = np.asarray(Z, dtype=float)
        h = self.u.local_h() if self.u.grading else self.u.h
        if steps is None:
            steps = np.array([2.0, 4.0, 8.0]) * max(h, self.u.h * 0.25)
        fr = frame_fields(self.u.geom, Z[None, :], np.zeros(1))
        nu = fr["nu"][0]
        interp = self._plane_interp()
        pts = Z[None, :] + np.asarray(steps)[:, None] * nu[None, :]
        vals = interp(pts)
        if np.any(np.isnan(vals)):
            raise DegenerateWeight("edge extrapolation hit invalid quotient nodes")
        A = np.vstack([np.ones(len(steps)), steps, np.asarray(steps) ** 2]).T
        coef = np.linalg.lstsq(A, vals, rcond=None)[0]
        return float(coef[0]), float(coef[1])


def quotient(u: GridSolution, i: int, floor_frac: float = 1e-3) -> QuotientField:
    """Quotient w = u_i/u_n via axis differences on the grid.

    ``valid`` marks nodes where u_n is safely positive: off the slit,
    u_n comparable to U0/r times its edge value.  A sign change of u_n
    on the valid set raises DegenerateWeight.
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
    floor = floor_frac * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(np.abs(u_n) > floor, u_i / np.where(np.abs(u_n) > floor, u_n, 1.0), np.nan)
    valid = (np.abs(u_n) > floor) & ~u.slit_mask & (u0 >= 0.25 * np.sqrt(np.maximum(r, 1e-300)))
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
                 target: float, label: str = "quotient",
                 min_cos: float = 0.0) -> RateReport:
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
    return _sup_rates(dev, smp["dist"], scales, target, "ball", min_nodes=50, label=label)
