"""Exact rational polynomial algebra in the (x, r) variables.

Polynomials are stored as sparse maps from (multi-index, r-power) to
``Fraction`` coefficients.  The module provides the Laplacian table for
products of the square-root edge profile with such monomials (exact on
the flat edge, cut at a given degree on a curved one through geometry
jets) and the triangular solve for approximating polynomials.

Everything here is exact: these results serve as oracles for the grid
solvers, so no floats are allowed to enter the coefficient arithmetic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import TruncationWarning

MultiIndex = tuple[int, ...]
Key = tuple[MultiIndex, int]


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"coefficient {v!r} is not exact (int, Fraction or 'p/q' string)")


def _bump(mu: MultiIndex, i: int, amount: int) -> MultiIndex:
    out = list(mu)
    out[i] += amount
    return tuple(out)


class XRPolynomial:
    """Polynomial in (x_1..x_n, r) with exact rational coefficients.

    Instances are immutable; arithmetic returns new objects.  Zero
    coefficients are never stored.
    """

    __slots__ = ("n", "_c")

    def __init__(self, n: int, coeffs: Mapping[Key, object] | None = None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        clean: dict[Key, Fraction] = {}
        for (mu, m), v in (coeffs or {}).items():
            mu = tuple(int(e) for e in mu)
            if len(mu) != n:
                raise ValueError(f"multi-index {mu} has wrong length for n={n}")
            if any(e < 0 for e in mu) or m < 0:
                raise ValueError(f"negative exponent in key ({mu}, {m})")
            f = _frac(v)
            if f != 0:
                key = (mu, int(m))
                clean[key] = clean.get(key, Fraction(0)) + f
        self._c = {k: v for k, v in clean.items() if v != 0}

    @classmethod
    def _wrap(cls, n: int, coeffs: dict[Key, Fraction]) -> "XRPolynomial":
        """Result of arithmetic on valid polynomials: the keys are already
        clean and the values Fractions, so only zeros need dropping.
        Skipping ``__init__``'s per-key checks keeps the exact sweeps fast."""
        p = object.__new__(cls)
        p.n = n
        p._c = {k: v for k, v in coeffs.items() if v}
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "XRPolynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "XRPolynomial":
        return cls(n, {((0,) * n, 0): c})

    @classmethod
    def monomial(cls, n: int, mu: Iterable[int], m: int, c=1) -> "XRPolynomial":
        return cls(n, {(tuple(mu), m): c})

    @classmethod
    def x_var(cls, n: int, i: int) -> "XRPolynomial":
        mu = [0] * n
        mu[i] = 1
        return cls(n, {(tuple(mu), 0): 1})

    @classmethod
    def r_var(cls, n: int) -> "XRPolynomial":
        return cls(n, {((0,) * n, 1): 1})

    # -- views --------------------------------------------------------

    def items(self) -> Iterator[tuple[Key, Fraction]]:
        return iter(sorted(self._c.items()))

    def coeff(self, mu: Iterable[int], m: int) -> Fraction:
        return self._c.get((tuple(mu), int(m)), Fraction(0))

    @property
    def degree(self) -> int:
        """Max of |mu| + m over stored keys; -1 for the zero polynomial."""
        if not self._c:
            return -1
        return max(sum(mu) + m for mu, m in self._c)

    def norm(self) -> Fraction:
        """Max absolute coefficient."""
        if not self._c:
            return Fraction(0)
        return max(abs(v) for v in self._c.values())

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other) -> bool:
        if not isinstance(other, XRPolynomial):
            return NotImplemented
        return self.n == other.n and self._c == other._c

    def __hash__(self):
        return hash((self.n, frozenset(self._c.items())))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "XRPolynomial":
        if isinstance(other, (int, Fraction)):
            other = XRPolynomial.constant(self.n, other)
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, Fraction(0)) + v
        return XRPolynomial._wrap(self.n, c)

    __radd__ = __add__

    def __neg__(self) -> "XRPolynomial":
        return XRPolynomial._wrap(self.n, {k: -v for k, v in self._c.items()})

    def __sub__(self, other) -> "XRPolynomial":
        return self + (-other if isinstance(other, XRPolynomial) else -_frac(other))

    def __rsub__(self, other) -> "XRPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "XRPolynomial":
        if isinstance(other, (int, Fraction, str)):
            f = _frac(other)
            return XRPolynomial._wrap(self.n, {k: v * f for k, v in self._c.items()})
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        c: dict[Key, Fraction] = {}
        for (mu1, m1), v1 in self._c.items():
            for (mu2, m2), v2 in other._c.items():
                key = (tuple(a + b for a, b in zip(mu1, mu2)), m1 + m2)
                c[key] = c.get(key, Fraction(0)) + v1 * v2
        return XRPolynomial._wrap(self.n, c)

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------

    def diff_x(self, i: int) -> "XRPolynomial":
        c = {}
        for (mu, m), v in self._c.items():
            if mu[i] > 0:
                c[(_bump(mu, i, -1), m)] = v * mu[i]
        return XRPolynomial._wrap(self.n, c)

    def diff_r(self) -> "XRPolynomial":
        c = {}
        for (mu, m), v in self._c.items():
            if m > 0:
                c[(mu, m - 1)] = v * m
        return XRPolynomial._wrap(self.n, c)

    def truncate(self, k: int) -> "XRPolynomial":
        """Drop all monomials of total degree > k."""
        return XRPolynomial._wrap(self.n, {km: v for km, v in self._c.items() if sum(km[0]) + km[1] <= k})

    def mul_r_power(self, p: int) -> "XRPolynomial":
        """Multiply by r**p (p may be negative if all r-powers allow it)."""
        c = {}
        for (mu, m), v in self._c.items():
            if m + p < 0:
                raise ValueError("negative r-power produced")
            c[(mu, m + p)] = v
        return XRPolynomial._wrap(self.n, c)

    # -- evaluation ---------------------------------------------------

    def evaluate(self, x: Iterable, r):
        """Evaluate at (x, r); exact when inputs are Fractions/ints."""
        x = list(x)
        if len(x) != self.n:
            raise ValueError("point has wrong dimension")
        total = 0
        for (mu, m), v in self._c.items():
            term = v
            for xi, e in zip(x, mu):
                if e:
                    term = term * xi**e
            if m:
                term = term * r**m
            total = total + term
        return total

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for (mu, m), v in sorted(self._c.items(), key=lambda kv: (sum(kv[0][0]) + kv[0][1], kv[0])):
            factors = []
            for i, e in enumerate(mu):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if m == 1:
                factors.append("r")
            elif m > 1:
                factors.append(f"r^{m}")
            body = "*".join(factors)
            parts.append(f"{v}" + (f"*{body}" if body else ""))
        return " + ".join(parts)

    __repr__ = __str__


# ----------------------------------------------------------------------
# Laplacian table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LaplacianResult:
    """Bracket polynomial of Delta(U0 * p) = (U0/r) * [total + O(...)].

    For flat geometry ``total`` is the exact, uncut bracket and
    ``remainder_order`` is inf; on a curved jet ``total`` is cut at the
    requested degree k and ``remainder_order`` is the lowest degree at
    which it may be wrong.
    """

    total: XRPolynomial
    remainder_order: float


def edge_bracket(mu: MultiIndex, m: int, xpow, rpow, d, nu, lap_d, half):
    """Bracket (r/U0) * Delta(U0 x^mu r^m) in any arithmetic of field values.

    The pointwise identity, exact once d, nu and Delta d are exact:

      (r/U0) Delta(U0 x^mu r^m) = sum_i mu_i(mu_i-1) x^(mu-2i) r^(m+1)
          + m(m+1) x^mu r^(m-1)
          + x^mu (r^m/2 + m d r^(m-1)) * (Delta d)
          + (r^m + 2 m d r^(m-1)) * sum_i mu_i nu^i x^(mu-i)

    ``xpow(mu)`` and ``rpow(j)`` return x^mu and r^j, ``nu`` is indexable
    by component and ``half`` is 1/2 in the caller's arithmetic; only +,
    * and integer scaling are applied, so the same code runs on exact jet
    polynomials and on float node arrays.  Terms with a zero integer
    factor are skipped: r^(m-1) is requested only for m != 0.

    The curvature enters through Delta d = -kappa: the parallel surfaces
    of a convex slit edge make U0 strictly superharmonic above it, which
    fixes the sign (checked against finite differences).
    """
    x_mu, r_m = xpow(mu), rpow(m)
    lap_w, grad_w = r_m * half, r_m
    if m:
        d_r = d * rpow(m - 1)
        lap_w = lap_w + d_r * m
        grad_w = grad_w + d_r * (2 * m)
    out = x_mu * lap_w * lap_d
    if m * (m + 1):
        out = out + x_mu * rpow(m - 1) * (m * (m + 1))
    for i, e in enumerate(mu):
        if e > 1:
            out = out + xpow(_bump(mu, i, -2)) * rpow(m + 1) * (e * (e - 1))
        if e > 0:
            out = out + grad_w * nu[i] * xpow(_bump(mu, i, -1)) * e
    return out


def poly_bracket(mu: MultiIndex, m: int, d: XRPolynomial, nu, lap_d: XRPolynomial,
                 shift: int = 0) -> XRPolynomial:
    """``edge_bracket`` on exact polynomials, times r**shift.

    A positive ``shift`` lets m go negative while every requested power
    r^j is stored as r^(j + shift) >= 0.
    """
    n = d.n
    return edge_bracket(tuple(mu), m, lambda a: XRPolynomial.monomial(n, a, 0),
                        lambda j: XRPolynomial.monomial(n, (0,) * n, j + shift),
                        d, nu, lap_d, Fraction(1, 2))


def flat_principal(n: int, mu: MultiIndex, m: int) -> XRPolynomial:
    """Flat-interface bracket of Delta(U0 x^mu r^m), valid for m >= -1.

    The flat edge has d = x_n, nu = e_n and Delta d = 0.  The bracket is
    formed at r-shift 2 and shifted back, so a negative r-power in the
    result (e.g. mu_n > 0 at m = -1) raises ValueError.
    """
    nu = [XRPolynomial.zero(n)] * (n - 1) + [XRPolynomial.constant(n, 1)]
    return poly_bracket(mu, m, XRPolynomial.x_var(n, n - 1), nu, XRPolynomial.zero(n),
                        shift=2).mul_r_power(-2)


def _jet_terms(jet, k: int) -> tuple:
    """d, nu and Delta d = -kappa of a jet, cut at degree k.

    Every factor of the bracket has degree >= 0, so jet terms above
    degree k cannot reach a bracket truncated at k; dropping them first
    saves the products that would be thrown away.
    """
    return jet.d.truncate(k), [v.truncate(k) for v in jet.nu], -jet.kappa.truncate(k)


def _bracket_sum(V: XRPolynomial, jet, degree: int | None, lower: int = 0) -> XRPolynomial:
    """Sum over V's monomials v x^mu r^m of v r^(2 lower) times the
    bracket of Delta(U0 x^mu r^(m - lower)).

    ``lower`` = 0 gives the table of ``laplacian_of_product``, and
    ``lower`` = 1 the weighted bracket of ``weighted_laplacian_bracket``.
    One cut rule: the jet terms and the result are cut at ``degree``,
    and ``degree=None`` keeps the full jet and an exact, uncut result.
    """
    d, nu, lap_d = (jet.d, jet.nu, -jet.kappa) if degree is None else _jet_terms(jet, degree)
    out: dict[Key, Fraction] = {}
    for (mu, m), v in V._c.items():
        for key, c in poly_bracket(mu, m - lower, d, nu, lap_d, shift=2 * lower)._c.items():
            out[key] = out.get(key, 0) + v * c
    total = XRPolynomial._wrap(V.n, out)
    return total if degree is None else total.truncate(degree)


def laplacian_of_product(P: XRPolynomial, jet, k: int) -> LaplacianResult:
    """Bracket of Delta(U0 * P), cut at degree k on a curved jet.

    The flat bracket is exact and uncut.  A curved jet of order j
    carries kappa only through degree j - 1, so the bracket is exact
    through degree min(k, j - 1): ``remainder_order`` is min(k + 1, j).
    """
    if jet.is_flat:
        return LaplacianResult(_bracket_sum(P, jet, None), math.inf)
    rem = math.inf if P.is_zero() else min(k + 1, jet.order)
    return LaplacianResult(_bracket_sum(P, jet, k), rem)


def laplacian_monomial(mu: Iterable[int], m: int, jet, k: int) -> LaplacianResult:
    """Table entry for Delta(U0 x^mu r^m), cut as in ``laplacian_of_product``."""
    if m < 0:
        raise ValueError("m must be nonnegative here; shifted tables handle m=-1")
    return laplacian_of_product(XRPolynomial.monomial(jet.n, mu, m), jet, k)


def _indices_of_degree(n: int, deg: int) -> list[MultiIndex]:
    if n == 1:
        return [(deg,)]
    return [(a, deg - a) for a in range(deg + 1)]


def _sweep(jet, target: XRPolynomial, k: int, base: XRPolynomial) -> XRPolynomial:
    """The triangular solve behind every exact corrector.

    Starting from the r-free layer ``base``, sweeps total degree upward
    and, within a degree, the r-power upward: the bracket coefficient
    A_{sigma,l} of Delta(U0 P) pins a_{sigma,l+1} with the strictly
    positive pivot (l+1)(l+2+2 sigma_n), so that the bracket matches
    ``target`` through degree k.  The running bracket is kept as the sum
    of the table entries of the coefficients pinned so far; each entry
    is computed and added once, when its coefficient is known.
    """
    n = jet.n
    coeffs: dict[Key, Fraction] = {}
    bracket: dict[Key, Fraction] = {}

    def pin(key: Key, a: Fraction) -> None:
        coeffs[key] = a
        for bk, v in laplacian_monomial(*key, jet, k).total._c.items():
            bracket[bk] = bracket.get(bk, 0) + a * v

    for key, a in base._c.items():
        pin(key, a)
    for deg in range(1, k + 2):
        for l in range(deg):
            for sigma in _indices_of_degree(n, deg - l - 1):
                pivot = (l + 1) * (l + 2 + 2 * sigma[n - 1])
                a = (target.coeff(sigma, l) - bracket.get((sigma, l), 0)) / pivot
                if a:
                    pin((sigma, l + 1), a)
    return XRPolynomial._wrap(n, coeffs)


def solve_approximating(jet, R: XRPolynomial, k: int,
                        free: Mapping[MultiIndex, object] | None = None) -> XRPolynomial:
    """Degree-(k+1) polynomial P with Delta(U0 P) bracket matching R up to degree k.

    The coefficients a_{mu,0} are free data; unspecified ones default to
    zero.  The remaining coefficients come from the triangular sweep
    ``_sweep``.  On a curved jet the result is exact through degree k
    only when ``jet.order >= k + 1`` (see ``laplacian_monomial``); a
    shorter jet raises TruncationWarning.
    """
    n = jet.n
    if not jet.is_flat and jet.order < k + 1:
        warnings.warn(f"jet of order {jet.order} < k + 1 = {k + 1}: the bracket is "
                      f"exact only through degree {jet.order - 1}", TruncationWarning)
    if R.degree > k:
        raise ValueError("right-hand side degree exceeds k")
    if R.norm() > 1:
        raise ValueError("right-hand side exceeds the unit normalization")
    base: dict[Key, Fraction] = {}
    for mu, v in (free or {}).items():
        mu = tuple(mu)
        f = _frac(v)
        if sum(mu) > k + 1:
            raise ValueError(f"free coefficient {mu} beyond degree k+1")
        if abs(f) > 1:
            raise ValueError("free coefficient exceeds the unit normalization")
        base[(mu, 0)] = f
    return _sweep(jet, R, k, XRPolynomial(n, base))
