"""Exact univariate polynomials over the rationals.

A polynomial is stored the way FLINT's `fmpq_poly` stores it: a tuple of
integer numerators in ascending order with no trailing zero, over one
positive common denominator that shares no prime with all of them
(`gcd(denom, *ints) == 1`; the zero polynomial is `((), 1)`).  That pair is
canonical, so equality and hashing compare integers and never build a
`Fraction`.  `+`, `*`, `divmod`, Taylor shifts, `monic`, `derivative` and
`poly_gcd` work on the integers alone.  One integer pseudo-division,
`_int_pdivmod`, serves `divmod`, the primitive PRS of `poly_gcd` and the
trial division of `factor`; a shift by a fraction s/q runs as an integer
shift by s between two scalings by powers of q.  `.coeffs`, the ascending
tuple of `Fraction` coefficients, is built on first use and cached.  All
arithmetic is exact; nothing here ever rounds.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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

    __slots__ = ("_ints", "_denom", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        p = _of_fractions([_frac(c) for c in coeffs])
        self._ints: Tuple[int, ...] = p._ints
        self._denom: int = p._denom
        self._coeffs: Optional[Tuple[Fraction, ...]] = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        if type(c) is int or type(c) is Fraction:
            return _raw((c.numerator,), c.denominator) if c else _ZERO
        return Poly((c,))

    @staticmethod
    def variable() -> "Poly":
        return _Z

    @staticmethod
    def monomial(c: Scalar, k: int) -> "Poly":
        if type(c) is int or type(c) is Fraction:
            return _raw((0,) * k + (c.numerator,), c.denominator) if c else _ZERO
        return Poly((0,) * k + (c,))

    # -- basic structure ----------------------------------------------

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """Ascending `Fraction` coefficients, no trailing zero; built once."""
        cs = self._coeffs
        if cs is None:
            d = self._denom
            cs = self._coeffs = tuple(Fraction(c, d) for c in self._ints)
        return cs

    @property
    def degree(self) -> int:
        """Exact degree; -1 for the zero polynomial."""
        return len(self._ints) - 1

    @property
    def lead(self) -> Fraction:
        if not self._ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._ints[-1], self._denom)

    def sort_key(self) -> Tuple[int, Tuple[Fraction, ...]]:
        """The canonical order of polynomials: by degree, then by ascending coefficients."""
        return self.degree, self.coeffs

    def is_zero(self) -> bool:
        return not self._ints

    def is_constant(self) -> bool:
        return len(self._ints) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coefficient(0)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._ints):
            return Fraction(self._ints[k], self._denom)
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._ints == other._ints and self._denom == other._denom
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self._ints, self._denom))

    def __bool__(self) -> bool:
        return bool(self._ints)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, denom = self._ints, other._ints, self._denom
        if denom != other._denom:
            g = math.gcd(denom, other._denom)
            a = [c * (other._denom // g) for c in a]
            b = [c * (denom // g) for c in b]
            denom = denom // g * other._denom
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _make(out, denom)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw(tuple(-c for c in self._ints), self._denom)

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
        a, b = self._ints, other._ints
        if not a or not b:
            return _ZERO
        if b == (1,) and other._denom == 1:
            return self
        if a == (1,) and self._denom == 1:
            return other
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _make(out, self._denom * other._denom)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other) -> Tuple["Poly", "Poly"]:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other == self:
            return _ONE, _ZERO
        quo, rem, scale = _int_pdivmod(self._ints, other._ints)
        denom = scale * self._denom
        return _make([v * other._denom for v in quo], denom), _make(rem, denom)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    # -- evaluation and substitution ----------------------------------

    def eval(self, x: Scalar) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self._ints):
            acc = acc * x + c
        return acc / self._denom

    def shifted(self, a: Scalar) -> "Poly":
        """Taylor shift p(z) -> p(z + a), on the integers."""
        q = 1
        if not isinstance(a, int):
            a = _frac(a)
            a, q = a.numerator, a.denominator
        if a == 0 or not self._ints:
            return self
        c = list(self._ints)
        n = len(c) - 1
        if q != 1:
            # q^n p(w/q) has the numerators c_k q^(n-k); shift w by a, then w = qz
            c = [v * q ** (n - k) for k, v in enumerate(c)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                c[j] += a * c[j + 1]
        if q == 1:
            # z -> z + a is unimodular on Z[z]: the content and the denominator stay
            return _raw(tuple(c), self._denom)
        return _make([v * q ** k for k, v in enumerate(c)], self._denom * q ** n)

    def derivative(self) -> "Poly":
        return _make([i * c for i, c in enumerate(self._ints)][1:], self._denom)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lead = self._ints[-1]
        if lead == self._denom:
            return self
        return _make(list(self._ints), lead)

    def mean_of_roots(self) -> Fraction:
        """(sum of roots) / degree, exact for rational coefficients."""
        if self.degree < 1:
            raise ValueError("constant polynomial has no roots")
        return Fraction(-self._ints[-2], self.degree * self._ints[-1])

    # -- presentation --------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self, "z")

    def __repr__(self) -> str:
        return f"Poly({format_poly(self, 'z')!r})"


def _raw(ints: Tuple[int, ...], denom: int) -> Poly:
    """A Poly from a pair already in canonical form."""
    p = object.__new__(Poly)
    p._ints, p._denom, p._coeffs = ints, denom, None
    return p


def _of_fractions(cs: Sequence[Fraction]) -> Poly:
    """The Poly with ascending coefficients cs, each a `Fraction`."""
    denom = math.lcm(*[c.denominator for c in cs])
    ints = [c.numerator * (denom // c.denominator) for c in cs]
    while ints and not ints[-1]:
        ints.pop()
    return _raw(tuple(ints), denom)


def _make(ints: List[int], denom: int) -> Poly:
    """The canonical Poly of ints / denom (denom nonzero, either sign)."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _ZERO
    if denom != 1:
        g = math.gcd(denom, *ints)
        if denom < 0:
            g = -g
        if g != 1:
            ints = [c // g for c in ints]
            denom //= g
    return _raw(tuple(ints), denom)


_ZERO = _raw((), 1)
_ONE = _raw((1,), 1)
_Z = _raw((0, 1), 1)


def _coerce(x) -> Optional[Poly]:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    return None


# -- gcd machinery (primitive PRS over the integers) -------------------


def _int_primitive(a: Sequence[int]) -> Tuple[int, ...]:
    """a divided by its content, lead made positive; () for zero."""
    g = math.gcd(*a)
    if g == 0:
        return ()
    if a[-1] < 0:
        g = -g
    return tuple(v // g for v in a)


def _to_int_primitive(p: Poly) -> Tuple[int, ...]:
    """The primitive integer polynomial with positive lead that is a rational multiple of p."""
    return _int_primitive(p._ints)


def _int_pdivmod(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int], int]:
    """Pseudo-division over Z (Knuth, TAOCP vol. 2, 4.6.1): scale * a = quo * b + rem.

    Only the steps whose quotient coefficient is not an integer scale, by the
    least factor that makes it one, so `scale == 1 and not rem` says that b
    divides a in Z[x].  rem is trimmed and of lower degree than b (b nonzero).
    """
    nb, lb = len(b) - 1, b[-1]
    dq = len(a) - 1 - nb
    rem = list(a)
    quo = [0] * (dq + 1)
    scale = 1
    for k in range(dq, -1, -1):
        c = rem.pop()
        if not c:
            continue
        q, r = divmod(c, lb)
        if r:
            s = abs(lb) // math.gcd(c, lb)
            rem = [v * s for v in rem]
            quo = [v * s for v in quo]
            scale *= s
            q = c * s // lb
        quo[k] = q
        for i in range(nb):
            rem[k + i] -= q * b[i]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem, scale


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals, computed with a primitive integer PRS.

    A nonzero constant argument is a unit, so the gcd is 1 and no PRS runs.
    """
    if p.is_zero():
        return q.monic() if not q.is_zero() else Poly.zero()
    if q.is_zero():
        return p.monic()
    if p.is_constant() or q.is_constant():
        return Poly.one()
    a = _to_int_primitive(p)
    b = _to_int_primitive(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_primitive(_int_pdivmod(a, b)[1])
    return _raw(a, 1).monic()


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
    cs = p.coeffs
    for k in range(p.degree, -1, -1):
        c = cs[k]
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
