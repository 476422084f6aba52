"""The rational-function field Q(z): reduced fractions of exact polynomials.

A RatFunc is a pair (num, den) with den monic and gcd(num, den) = 1, so
equality is structural equality of canonical forms.  This is the scalar
field for every matrix and representation in the library.

Each result is normalised once, on the smallest operands, by Henrici's
rules (P. Henrici, JACM 1956; Knuth, TAOCP vol. 2, 4.5.1).  Write the
operands a/b and c/d, both reduced with b and d monic.

- `*`: g1 = gcd(a, d), g2 = gcd(c, b); the product is
  (a/g1)(c/g2) / ((b/g2)(d/g1)).  A prime of a/g1 divides neither b
  (a/b is reduced) nor d/g1 (it was taken out), and likewise for c/g2, so
  the fraction is reduced; its denominator is a product of monic factors.
- `+`: g = gcd(b, d).  When g = 1 the sum is (a d + c b) / (b d): a prime
  of b divides neither d nor a, so it does not divide a d + c b, and the
  same holds for d.  Otherwise t = a (d/g) + c (b/g), h = gcd(t, g), and
  the sum is (t/h) / ((b/g)(d/h)): a prime of b/g or d/g does not divide
  t, for the reason above, so only the primes of g can cancel, and h
  takes them out.
- `/`: g1 = gcd(a, c), g2 = gcd(d, b); the quotient is
  (a/g1)(d/g2) / ((b/g2)(c/g1)), reduced as for `*`, and its denominator
  is made monic by scaling both sides on the integers.

No gcd runs where it is 1 by definition: construction and the rules above
skip it when one side is a constant, a zero operand gives the other
operand (`+`) or zero (`*`, `/`), and `+` and `*` of two polynomials (both
denominators constant, so both 1, being monic) return the sum or product
over 1, which is already canonical.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .errors import ZeroDenominator
from .factor import FactorList, certified_factors
from .poly import Poly, _coerce as _as_poly, _make, format_poly, poly_gcd

Scalar = Union[int, Fraction]


class RatFunc:
    """Element of Q(z) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly.one()):
        np, dp = _as_poly(num), _as_poly(den)
        if np is None or dp is None:
            raise TypeError(f"cannot build a rational function from {num!r}/{den!r}")
        if dp.is_zero():
            raise ZeroDenominator("zero denominator")
        if np.is_zero():
            self.num, self.den = Poly.zero(), Poly.one()
            return
        self.num, self.den = _monic_den(*_cancel(np, dp))

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> "RatFunc":
        """Skip reduction when (num, den) is already canonical."""
        self = object.__new__(cls)
        self.num, self.den = num, den
        return self

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return _ZERO

    @staticmethod
    def one() -> "RatFunc":
        return _ONE

    @staticmethod
    def variable() -> "RatFunc":
        return RatFunc._raw(Poly.variable(), Poly.one())

    @staticmethod
    def constant(c: Scalar) -> "RatFunc":
        return RatFunc._raw(Poly.constant(c), Poly.one())

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den == Poly.one()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.num.constant_value()

    def is_polynomial(self) -> bool:
        return self.den == Poly.one()

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- field operations --------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_constant() and d.is_constant():
            return RatFunc._raw(a + c, Poly.one())
        if a.is_zero():
            return other
        if c.is_zero():
            return self
        if b.is_constant():
            return RatFunc._raw(a * d + c, d)
        if d.is_constant():
            return RatFunc._raw(a + c * b, b)
        g = poly_gcd(b, d)
        if g.degree == 0:
            return RatFunc._raw(a * d + c * b, b * d)
        b, d = b // g, d // g
        t = a * d + c * b
        if t.is_zero():
            return _ZERO
        h = poly_gcd(t, g)
        if h.degree > 0:
            t, g = t // h, g // h
        return RatFunc._raw(t, b * d * g)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_constant() and d.is_constant():
            return RatFunc._raw(a * c, Poly.one())
        if a.is_zero() or c.is_zero():
            return _ZERO
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return RatFunc._raw(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDenominator("division by zero rational function")
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero():
            return _ZERO
        a, c = _cancel(a, c)
        d, b = _cancel(d, b)
        num, den = _monic_den(a * d, b * c)
        return RatFunc._raw(num, den)

    def __rtruediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RatFunc":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return (RatFunc.one() / self) ** (-n)
        return RatFunc._raw(self.num ** n, self.den ** n) if n else RatFunc.one()

    def inverse(self) -> "RatFunc":
        return RatFunc.one() / self

    # -- the shift automorphism ---------------------------------------------

    def shifted(self, k: Scalar) -> "RatFunc":
        """f(z) -> f(z + k); canonical form is preserved by the shift."""
        if k == 0:
            return self
        return RatFunc._raw(self.num.shifted(k), self.den.shifted(k).monic())

    # -- presentation ----------------------------------------------------------

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc({format_ratfunc(self)!r})"


_ZERO = RatFunc._raw(Poly.zero(), Poly.one())
_ONE = RatFunc._raw(Poly.one(), Poly.one())


def _cancel(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    """p and q divided by their gcd; no gcd when one is a constant, no division when it is 1."""
    if p.is_constant() or q.is_constant():
        return p, q
    g = poly_gcd(p, q)
    if g.degree > 0:
        return p // g, q // g
    return p, q


def _monic_den(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    """num and den divided by den's leading coefficient, scaled on the integers."""
    lead = den._ints[-1]
    if lead == den._denom:
        return num, den
    return _make([v * den._denom for v in num._ints], num._denom * lead), den.monic()


def _coerce(x) -> Optional[RatFunc]:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RatFunc(x)
    return None


def as_ratfunc(x) -> RatFunc:
    r = _coerce(x)
    if r is None:
        raise TypeError(f"not coercible to a rational function: {x!r}")
    return r


def format_ratfunc(f: RatFunc, var: str = "z") -> str:
    """Canonical printer; sides with more than one term get parentheses."""
    ns = format_poly(f.num, var)
    if f.den == Poly.one():
        return ns
    ds = format_poly(f.den, var)
    if _nterms(f.num) > 1:
        ns = f"({ns})"
    if _nterms(f.den) > 1:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _nterms(p: Poly) -> int:
    return sum(1 for c in p.coeffs if c != 0)


def shift_ratfunc(f: RatFunc, k: int) -> RatFunc:
    """The shift automorphism applied k times: f(z) -> f(z + k)."""
    return f.shifted(k)


def leading_ratio(r: RatFunc) -> Fraction:
    """Leading coefficient of the numerator over that of the denominator."""
    if r.is_zero():
        raise ValueError("zero rational function has no leading ratio")
    return r.num.lead / r.den.lead


def pochhammer(xi: RatFunc, m: int) -> RatFunc:
    """Shifted-product Pochhammer expression on a rational function.

    P(xi, 0) = 1; P(xi, m) = xi(z) xi(z+1) ... xi(z+m-1) for m > 0;
    P(xi, m) = 1 / (xi(z+m) ... xi(z-1)) for m < 0.

    The shifted numerators and denominators are multiplied out separately
    and the quotient is reduced once, not once per factor.
    """
    num, den = Poly.one(), Poly.one()
    for j in range(m, 0) if m < 0 else range(m):
        factor = xi.shifted(j)
        num, den = num * factor.num, den * factor.den
    return RatFunc(den, num) if m < 0 else RatFunc(num, den)


# -- partial fractions ---------------------------------------------------------


def poly_xgcd(a: Poly, b: Poly) -> Tuple[Poly, Poly, Poly]:
    """Extended gcd over Q[z]: (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return Poly.zero(), s0, t0
    c = 1 / r0.lead
    return r0 * c, s0 * c, t0 * c


def partial_fractions(
    f: RatFunc, *, factors: Optional[FactorList] = None
) -> Tuple[Poly, List[Tuple[Poly, int, Poly]]]:
    """Decompose f as poly_part + sum of a/(q^j), q monic irreducible, deg a < deg q.

    Returns (poly_part, [(q, j, a)]) sorted by (q, j).  Exact; recombining
    reproduces f.  `factors`, when known, is the factor list of f.den as
    `factor_poly` gives it, for example from `factor.factor_within`; it is
    certified instead of factoring f.den (`factor.certified_factors`).
    """
    poly_part, rem = divmod(f.num, f.den)
    if rem.is_zero():
        return poly_part, []
    pieces: List[Tuple[Poly, int, Poly]] = []
    for q, e in certified_factors(f.den, factors):
        qe = q ** e
        cofactor = f.den // qe
        if cofactor.degree > 0:  # f.den and q^e are monic, so a constant cofactor is 1
            g, u, _ = poly_xgcd(cofactor, qe)
            if g != Poly.one():
                raise ArithmeticError("cofactor and prime power must be coprime")
            c = (rem * u) % qe
        else:
            c = rem % qe
        # expand c / q^e in powers of q
        j = e
        while not c.is_zero() and j >= 1:
            c, a = divmod(c, q)
            if not a.is_zero():
                pieces.append((q, j, a))
            j -= 1
    pieces.sort(key=lambda t: (t[0].sort_key(), t[1]))
    return poly_part, pieces
