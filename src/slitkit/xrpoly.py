"""Exact rational polynomial algebra in the (x, r) variables.

Polynomials are stored as sparse maps from (multi-index, r-power) to
``Fraction`` coefficients.  Every truncated series product goes through
``XRPolynomial.mul_cut``, which forms only the terms a degree cut keeps.
The module provides the Laplacian table for products of the square-root
edge profile with such monomials (exact on the flat edge, cut at a given
degree on a curved one through geometry jets) and the triangular solve
for approximating polynomials.  The table rests on ``edge_bracket``, the
one statement of the bracket identity: it multiplies the four jet
products Delta d, d Delta d, nu and d nu by monomials only, so a
monomial's exact bracket is key shifts and scalings of jet products
formed once per cut, never a product of two polynomials.

Everything here is exact: these results serve as oracles for the grid
solvers, so no floats are allowed to enter the coefficient arithmetic.
The one float routine, ``_xpow`` (c x^mu on coordinate arrays), sits
beside ``edge_bracket``: the grid splitting evaluates the bracket's
monomials with it on node arrays, and the Whitney mollifier and its
quadrature use it too.
"""

from __future__ import annotations

import math
import operator
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
        return self.mul_cut(other, math.inf)

    def mul_cut(self, other: "XRPolynomial", k: float) -> "XRPolynomial":
        """``(self * other).truncate(k)``, forming only the kept terms.

        The one product loop: ``other``'s terms are sorted by degree once,
        and each row stops at the first term that would pass degree k.
        ``__mul__`` runs it with k = inf.
        """
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        terms = _sorted_terms(other)
        c: dict[Key, Fraction] = {}
        for (mu1, m1), v1 in self._c.items():
            budget = k - sum(mu1) - m1
            for deg2, mu2, m2, v2 in terms:
                if deg2 > budget:
                    break
                key = (tuple(map(operator.add, mu1, mu2)), m1 + m2)
                p = v1 * v2
                old = c.get(key)
                c[key] = p if old is None else old + p
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


def edge_bracket(mu: MultiIndex, m: int, half, lap_d, d_lap_d, nu, d_nu):
    """Terms of the bracket (r/U0) * Delta(U0 x^mu r^m) in any arithmetic.

    The pointwise identity, exact once the jet inputs are exact:

      (r/U0) Delta(U0 x^mu r^m) = 1/2 x^mu r^m (Delta d)
          + m x^mu r^(m-1) (d Delta d) + m(m+1) x^mu r^(m-1)
          + sum_i mu_i(mu_i-1) x^(mu-2i) r^(m+1)
          + sum_i mu_i x^(mu-i) (r^m nu^i + 2m r^(m-1) (d nu^i))

    Yields one (c, a, j, f) per term c x^a r^j f with a nonzero factor c:
    f is one of the four jet products ``lap_d`` = Delta d, ``d_lap_d`` =
    d Delta d, ``nu[i]`` and ``d_nu[i]`` = d nu^i, or None for 1.  ``half``
    is 1/2 in the caller's arithmetic and every other c is an integer, so
    a caller multiplies each jet product only by a monomial: exact jet
    polynomials by shifting keys, float node arrays by scaling.  r^(m-1)
    is requested only for m != 0.

    The curvature enters through Delta d = -kappa: the parallel surfaces
    of a convex slit edge make U0 strictly superharmonic above it, which
    fixes the sign (checked against finite differences).
    """
    yield half, mu, m, lap_d
    if m:
        yield m, mu, m - 1, d_lap_d
        if m + 1:
            yield m * (m + 1), mu, m - 1, None
    for i, e in enumerate(mu):
        if e > 1:
            yield e * (e - 1), _bump(mu, i, -2), m + 1, None
        if e:
            low = _bump(mu, i, -1)
            yield e, low, m, nu[i]
            if m:
                yield 2 * e * m, low, m - 1, d_nu[i]


def _xpow(xs, mu: MultiIndex, c=1.0):
    """c * x^mu on the coordinate arrays ``xs``, multiplied from c in
    coordinate order: ((c * x_1^mu_1) * x_2^mu_2) ...  For mu = 0 this
    is the scalar c, which broadcasts against any node array."""
    out = c
    for x, e in zip(xs, mu):
        if e:
            out = out * x**e
    return out


def _sorted_terms(p: XRPolynomial) -> list:
    """p's terms as (degree, mu, m, v), sorted by degree."""
    return sorted(((sum(mu) + m, mu, m, v) for (mu, m), v in p._c.items()),
                  key=operator.itemgetter(0))


_HALF = Fraction(1, 2)


def _jet_products(jet, k: float) -> tuple:
    """``edge_bracket``'s jet inputs Delta d = -kappa, d Delta d, nu and
    d nu of ``jet``, the products cut at degree k, each as the term list
    of ``_sorted_terms``.  Formed once per cut, they serve every
    monomial's bracket."""
    lap_d = -jet.kappa
    return (_sorted_terms(lap_d), _sorted_terms(jet.d.mul_cut(lap_d, k)),
            [_sorted_terms(v) for v in jet.nu],
            [_sorted_terms(jet.d.mul_cut(v, k)) for v in jet.nu])


def _add_bracket(out: dict, v: Fraction, mu: MultiIndex, m: int, products: tuple,
                 k: float, lower: int = 0) -> None:
    """Add v r^(2 lower) times the bracket of Delta(U0 x^mu r^(m - lower)),
    cut at degree k, into the coefficient map ``out``.

    ``products`` comes from ``_jet_products`` at a cut of at least k.
    Each term of ``edge_bracket`` multiplies a jet product by a monomial
    c x^a r^j of degree |a| + j, so only the product terms through degree
    k - |a| - j reach the result: the sorted term list stops there.
    """
    for c, a, j, f in edge_bracket(mu, m - lower, _HALF, *products):
        j += 2 * lower
        budget = k - sum(a) - j
        if budget < 0:
            continue
        c = v * c
        if f is None:
            out[(a, j)] = out.get((a, j), 0) + c
            continue
        for deg, b, l, w in f:
            if deg > budget:
                break
            key = (tuple(map(operator.add, a, b)), j + l)
            p = c * w
            old = out.get(key)
            out[key] = p if old is None else old + p


def flat_principal(n: int, mu: MultiIndex, m: int) -> XRPolynomial:
    """Flat-interface bracket of Delta(U0 x^mu r^m), valid for m >= -1.

    The flat edge has d = x_n, nu = e_n and Delta d = 0.  The bracket is
    formed at r-shift 2, as the weighted bracket of x^mu r^(m+1), and
    shifted back, so a negative r-power in the result (e.g. mu_n > 0 at
    m = -1) raises ValueError.
    """
    from .geometry import flat_jet

    V = XRPolynomial.monomial(n, mu, m + 1)
    return _bracket_sum(V, flat_jet(n), None, lower=1).mul_r_power(-2)


def _bracket_sum(V: XRPolynomial, jet, degree: int | None, lower: int = 0) -> XRPolynomial:
    """Sum over V's monomials v x^mu r^m of v r^(2 lower) times the
    bracket of Delta(U0 x^mu r^(m - lower)).

    ``lower`` = 0 gives the table of ``laplacian_of_product``, and
    ``lower`` = 1 the weighted bracket of ``weighted_laplacian_bracket``.
    ``degree=None`` keeps the full jet and an exact, uncut result; a cut
    ``degree`` keeps every term through that degree and none above.  The
    jet products are formed once, for all of V's monomials.
    """
    k = math.inf if degree is None else degree
    products = _jet_products(jet, k)
    out: dict[Key, Fraction] = {}
    for (mu, m), v in V._c.items():
        _add_bracket(out, v, mu, m, products, k, lower)
    return XRPolynomial._wrap(V.n, out)


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
    """Every multi-index of length n and total degree deg, in ascending
    lexicographic order: (0, deg), (1, deg - 1), ... for n = 2."""
    if n == 1:
        return [(deg,)]
    return [(a,) + rest for a in range(deg + 1) for rest in _indices_of_degree(n - 1, deg - a)]


def _sweep(jet, target: XRPolynomial, k: int, base: XRPolynomial) -> XRPolynomial:
    """The triangular solve behind every exact corrector.

    Starting from the r-free layer ``base``, sweeps total degree upward
    and, within a degree, the r-power upward: the bracket coefficient
    A_{sigma,l} of Delta(U0 P) pins a_{sigma,l+1} with the strictly
    positive pivot (l+1)(l+2+2 sigma_n), so that the bracket matches
    ``target`` through degree k.  The running bracket, cut at degree k,
    is kept as the sum of the brackets of the coefficients pinned so
    far; each is added once, when its coefficient is known, from jet
    products formed once per solve.
    """
    n = jet.n
    coeffs: dict[Key, Fraction] = {}
    bracket: dict[Key, Fraction] = {}
    products = _jet_products(jet, k)

    def pin(key: Key, a: Fraction) -> None:
        coeffs[key] = a
        _add_bracket(bracket, a, *key, products, k)

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
