"""Exact univariate polynomials over the rationals.

Coefficients are `fractions.Fraction`, stored densely in ascending order
with no trailing zero, so the degree is exact and equality is structural.
All arithmetic is exact; nothing here ever rounds.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Poly:
    """Dense polynomial in one variable with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly((c,))

    @staticmethod
    def variable() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def monomial(c: Scalar, k: int) -> "Poly":
        return Poly((0,) * k + (c,))

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        """Exact degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> Tuple["Poly", "Poly"]:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        quo = [Fraction(0)] * (dq + 1)
        dlead = other.lead
        dcs = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[k + len(dcs) - 1] / dlead
            quo[k] = c
            if c:
                for i, dc in enumerate(dcs):
                    rem[k + i] -= c * dc
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    # -- evaluation and substitution ----------------------------------

    def eval(self, x: Scalar) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, a: Scalar) -> "Poly":
        """Taylor shift: p(z) -> p(z + a)."""
        a = _frac(a)
        if a == 0 or self.is_zero():
            return self
        acc = Poly.zero()
        za = Poly((a, 1))
        for c in reversed(self.coeffs):
            acc = acc * za + Poly.constant(c)
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        if self.lead == 1:
            return self
        inv = 1 / self.lead
        return Poly(tuple(c * inv for c in self.coeffs))

    def mean_of_roots(self) -> Fraction:
        """(sum of roots) / degree, exact for rational coefficients."""
        if self.degree < 1:
            raise ValueError("constant polynomial has no roots")
        return -self.coeffs[-2] / (self.degree * self.lead) if len(self.coeffs) >= 2 else Fraction(0)

    # -- presentation --------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self, "z")

    def __repr__(self) -> str:
        return f"Poly({format_poly(self, 'z')!r})"


def _coerce(x) -> Optional[Poly]:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    return None


# -- gcd machinery (primitive PRS over the integers) -------------------


def _int_primitive(a: Sequence[int]) -> Tuple[int, ...]:
    g = 0
    for v in a:
        g = math.gcd(g, abs(v))
    if g == 0:
        return ()
    sign = -1 if a[-1] < 0 else 1
    return tuple(v // (g * sign) for v in a)


def _to_int_primitive(p: Poly) -> Tuple[int, ...]:
    """The primitive integer polynomial with positive lead that is a rational multiple of p."""
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return _int_primitive([int(c * den) for c in p.coeffs])


def _int_prem(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """Pseudo-remainder of integer polynomials (dense ascending lists)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        da = len(a) - 1
        if da < db:
            break
        la = a[-1]
        shift = da - db
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals, computed with a primitive integer PRS."""
    if p.is_zero():
        return q.monic() if not q.is_zero() else Poly.zero()
    if q.is_zero():
        return p.monic()
    a = _to_int_primitive(p)
    b = _to_int_primitive(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_primitive(_int_prem(a, b))
        a, b = b, r
    return Poly(a).monic()


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly.zero()
    return ((p * q) // poly_gcd(p, q)).monic()


def pi_mu(mu: Scalar) -> Poly:
    """The level polynomial z(z-1) - mu = z^2 - z - mu."""
    return Poly((-_frac(mu), -1, 1))


def mu_roots(mu: Scalar) -> Optional[Tuple[Fraction, Fraction]]:
    """Rational roots of pi_mu, largest first, or None when irreducible."""
    disc = 1 + 4 * _frac(mu)
    if disc < 0:
        return None
    num, den = disc.numerator, disc.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    s = Fraction(rn, rd)
    return (Fraction(1, 2) + s / 2, Fraction(1, 2) - s / 2)


# -- canonical text form ------------------------------------------------


def format_poly(p: Poly, var: str = "z") -> str:
    """Canonical text form: descending powers, explicit '*', no implicit mult."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = str(mag)
        else:
            zpow = var if k == 1 else f"{var}^{k}"
            body = zpow if mag == 1 else f"{mag}*{zpow}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts)
