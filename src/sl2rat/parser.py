"""Parser for the rational-function expression grammar.

Grammar: integer literals, the variable z, binary + - * /, unary -,
^ with a nonnegative integer exponent, and parentheses.  Implicit
multiplication is not accepted.  Fractions are ordinary divisions (3/2).
The canonical printer lives next to the types (`format_poly`,
`format_ratfunc`); parse(format(x)) == x on canonical text.
"""
from __future__ import annotations

from typing import List, Tuple

from .errors import ParseError
from .poly import Poly
from .ratfunc import RatFunc

_OPS = set("+-*/^()")

MAX_NESTING = 100
"""Most open parentheses and unary minus signs around any subexpression."""

MAX_DEGREE = 1000
"""Largest degree of numerator or denominator that a power may produce."""

MAX_POWER_BITS = 10_000
"""Largest coefficient size, in bits, that a power, product, quotient or sum may produce."""

MAX_LITERAL_DIGITS = 1000
"""Longest integer literal, in decimal digits."""


def _log2_height(f: RatFunc) -> int:
    """An integer h with |every integer coefficient of f^e| <= 2^(e*h) for all e >= 0.

    Numerator and denominator are each an integer polynomial over a positive
    integer; a power of n/d is n^e/d^e, the coefficients of n^e are at most
    the e-th power of the l1 norm of n, and ceil(log2 x) = (x - 1).bit_length().
    """
    return max(
        max(sum(map(abs, p._ints)) - 1, p._denom - 1, 0).bit_length()
        for p in (f.num, f.den)
    )


def _log2_size(f: RatFunc) -> int:
    """The least h with |every integer coefficient and denominator of f| <= 2^h."""
    num, den = f.num, f.den
    return (max(*map(abs, num._ints), *map(abs, den._ints), num._denom, den._denom) - 1).bit_length()


def _bounded(value: RatFunc, op: Tuple[str, str, int]) -> RatFunc:
    """`value`, the result of the binary operator token `op`, when its coefficients fit."""
    if _log2_size(value) > MAX_POWER_BITS:
        raise ParseError(f"{op[1]!r} result with coefficients above {MAX_POWER_BITS} bits", op[2])
    return value


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # exactly the digits int() reads; not superscripts
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", i)
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch == "z":
            tokens.append(("var", ch, i))
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nest(self, tok) -> None:
        """Consume an opening token, one nesting level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok[2])
        self.advance()

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    def parse(self) -> RatFunc:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = _bounded(value + rhs if op[0] == "+" else value - rhs, op)
        return value

    def term(self) -> RatFunc:
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            value = _bounded(value * rhs if op[0] == "*" else value / rhs, op)
        return value

    def unary(self) -> RatFunc:
        tok = self.peek()
        if tok[0] != "-":
            return self.power()
        self.nest(tok)
        value = -self.unary()
        self.depth -= 1
        return value

    def power(self) -> RatFunc:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            e = int(tok[1])
            if e * max(base.num.degree, base.den.degree) > MAX_DEGREE:
                raise ParseError(f"power of degree above {MAX_DEGREE}", tok[2])
            if e * _log2_height(base) > MAX_POWER_BITS:
                raise ParseError(f"power with coefficients above {MAX_POWER_BITS} bits", tok[2])
            self.advance()
            return base ** e
        return base

    def atom(self) -> RatFunc:
        tok = self.peek()
        if tok[0] == "int":
            self.advance()
            return RatFunc.constant(int(tok[1]))
        if tok[0] == "var":
            self.advance()
            return RatFunc.variable()
        if tok[0] == "(":
            self.nest(tok)
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an expression into canonical form.

    Raises ParseError with the offending position (also at the token that
    nests deeper than MAX_NESTING, at an integer literal longer than
    MAX_LITERAL_DIGITS, at the exponent of a power whose numerator or
    denominator would pass MAX_DEGREE or whose coefficients could pass
    MAX_POWER_BITS, and at the operator of a product, quotient, sum or
    difference whose coefficients pass MAX_POWER_BITS), or ZeroDenominator
    when a division by the zero polynomial occurs.  The checks on literals
    and powers run before the work they guard; a binary operator is checked
    on its result, which its bounded operands keep cheap to compute.
    """
    return _Parser(text).parse()


def parse_poly(text: str) -> Poly:
    """Parse an expression that must denote a polynomial."""
    f = parse_ratfunc(text)
    return f.as_poly()
