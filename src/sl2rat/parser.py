"""Parser for the rational-function expression grammar.

Grammar: integer literals, the variable z, binary + - * /, unary -,
^ with a nonnegative integer exponent, and parentheses.  Implicit
multiplication is not accepted.  Fractions are ordinary divisions (3/2).
The canonical printer lives next to the types (`format_poly`,
`format_ratfunc`); parse(format(x)) == x on canonical text.

Sub-expressions without a division evaluate as `Poly` and become `RatFunc`
at a `/` or at the root; both forms are canonical, so every bound below is
decided on the same value as if all of them were `RatFunc`.

Alongside its value, a parse records the operands it multiplied (`Operands`),
so a consumer can factor the expression piece by piece instead of factoring
its expanded numerator and denominator.  An operand is `z`, a literal or a
maximal additive sub-expression.  Each product, quotient, power or negation
chain keeps one list of (operand, exponent) pairs: a parenthesised product
is flattened into the list of the chain around it, and a sum ends a list,
entering the chain around it as one operand (as its numerator and its
denominator when it is not a polynomial).
"""
from __future__ import annotations

from typing import List, NamedTuple, Tuple, Union

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

Value = Union[Poly, RatFunc]
Item = Tuple[Poly, int]

_ONE = Poly.one()
_Z = Poly.variable()


class Operands(NamedTuple):
    """The operands a parsed value was formed from, for factoring it piece by piece.

    `items` are (polynomial, exponent) pairs whose product is the value up to
    a nonzero constant, when the value is nonzero; a sum at the root is one
    operand, as its numerator and its denominator.  `cover` lists
    polynomials that every irreducible factor of the value's denominator
    divides: the operands with negative exponent of the root chain, or of
    every summand when the root is a sum.
    """

    items: Tuple[Item, ...]
    cover: Tuple[Poly, ...]


def _sides(f: Value) -> Tuple[Poly, ...]:
    return (f,) if type(f) is Poly else (f.num, f.den)


def _log2_height(f: Value) -> int:
    """An integer h with |every integer coefficient of f^e| <= 2^(e*h) for all e >= 0.

    Numerator and denominator are each an integer polynomial over a positive
    integer; a power of n/d is n^e/d^e, the coefficients of n^e are at most
    the e-th power of the l1 norm of n, and ceil(log2 x) = (x - 1).bit_length().
    A `Poly` has the denominator 1, whose height is 0.
    """
    return max(max(sum(map(abs, p._ints)) - 1, p._denom - 1, 0).bit_length() for p in _sides(f))


def _log2_size(f: Value) -> int:
    """The least h with |every integer coefficient and denominator of f| <= 2^h."""
    if type(f) is Poly:
        return (max(0, f._denom, *map(abs, f._ints)) - 1).bit_length()
    num, den = f.num, f.den
    return (max(*map(abs, num._ints), *map(abs, den._ints), num._denom, den._denom) - 1).bit_length()


def _bounded(value: Value, op: Tuple[str, str, int]) -> Value:
    """`value`, the result of the binary operator token `op`, when its coefficients fit."""
    if _log2_size(value) > MAX_POWER_BITS:
        raise ParseError(f"{op[1]!r} result with coefficients above {MAX_POWER_BITS} bits", op[2])
    return value


def _lift(f: Value) -> RatFunc:
    return RatFunc._raw(f, _ONE) if type(f) is Poly else f


def _sum_items(f: Value) -> List[Item]:
    """A sum as operands of the chain around it: the sum, or its numerator and denominator."""
    return [(f, 1)] if type(f) is Poly else [(f.num, 1), (f.den, -1)]


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
    """Recursive descent; every method below `parse` appends its operands to `ops`."""

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

    def parse(self) -> Tuple[RatFunc, Operands]:
        ops: List[Item] = []
        value = self.term(ops)
        cover = [p for p, e in ops if e < 0]
        if self.peek()[0] in ("+", "-"):
            value = self.summands(value, cover)
            ops = _sum_items(value)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return _lift(value), Operands(tuple(ops), tuple(dict.fromkeys(cover)))

    def summands(self, value: Value, cover: List[Poly]) -> Value:
        """The sum whose first term is `value`; each further term's negative operands go to `cover`."""
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            ops: List[Item] = []
            rhs = self.term(ops)
            cover += [p for p, e in ops if e < 0]
            if type(value) is Poly and type(rhs) is Poly:
                value = value + rhs if op[0] == "+" else value - rhs
            else:
                value = _lift(value) + _lift(rhs) if op[0] == "+" else _lift(value) - _lift(rhs)
            value = _bounded(value, op)
        return value

    def expr(self, ops: List[Item]) -> Value:
        start = len(ops)
        value = self.term(ops)
        if self.peek()[0] in ("+", "-"):
            del ops[start:]
            value = self.summands(value, [])
            ops += _sum_items(value)
        return value

    def term(self, ops: List[Item]) -> Value:
        value = self.unary(ops)
        while self.peek()[0] in ("*", "/"):
            op = self.advance()
            start = len(ops)
            rhs = self.unary(ops)
            if op[0] == "/":
                ops[start:] = [(p, -e) for p, e in ops[start:]]
                value = _lift(value) / _lift(rhs)
            elif type(value) is Poly and type(rhs) is Poly:
                value = value * rhs
            else:
                value = _lift(value) * _lift(rhs)
            value = _bounded(value, op)
        return value

    def unary(self, ops: List[Item]) -> Value:
        tok = self.peek()
        if tok[0] != "-":
            return self.power(ops)
        self.nest(tok)
        value = -self.unary(ops)
        self.depth -= 1
        return value

    def power(self, ops: List[Item]) -> Value:
        start = len(ops)
        base = self.atom(ops)
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            e = int(tok[1])
            if e * max(0, *(p.degree for p in _sides(base))) > MAX_DEGREE:
                raise ParseError(f"power of degree above {MAX_DEGREE}", tok[2])
            if e * _log2_height(base) > MAX_POWER_BITS:
                raise ParseError(f"power with coefficients above {MAX_POWER_BITS} bits", tok[2])
            self.advance()
            ops[start:] = [(p, k * e) for p, k in ops[start:]]
            return base ** e
        return base

    def atom(self, ops: List[Item]) -> Value:
        tok = self.peek()
        if tok[0] == "int":
            self.advance()
            return Poly.constant(int(tok[1]))
        if tok[0] == "var":
            self.advance()
            ops.append((_Z, 1))
            return _Z
        if tok[0] == "(":
            self.nest(tok)
            value = self.expr(ops)
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])


def parse_ratfunc(text: str, *, with_operands: bool = False) -> Union[RatFunc, Tuple[RatFunc, Operands]]:
    """Parse an expression into canonical form; with `with_operands`, also its `Operands`.

    Returns the `RatFunc`, or the pair (RatFunc, Operands) when
    `with_operands` is true; the two parse the same way and raise the same
    errors.  Raises ParseError with the offending position (also at the
    token that nests deeper than MAX_NESTING, at an integer literal longer
    than MAX_LITERAL_DIGITS, at the exponent of a power whose numerator or
    denominator would pass MAX_DEGREE or whose coefficients could pass
    MAX_POWER_BITS, and at the operator of a product, quotient, sum or
    difference whose coefficients pass MAX_POWER_BITS), or ZeroDenominator
    when a division by the zero polynomial occurs.  The checks on literals
    and powers run before the work they guard; a binary operator is checked
    on its result, which its bounded operands keep cheap to compute.
    """
    value, operands = _Parser(text).parse()
    return (value, operands) if with_operands else value


def parse_poly(text: str) -> Poly:
    """Parse an expression that must denote a polynomial."""
    f = parse_ratfunc(text)
    return f.as_poly()
