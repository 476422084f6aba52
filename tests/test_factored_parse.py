"""The factored parse: operands recorded by the parser, factored piece by piece.

`parse_ratfunc(text, with_operands=True)` returns the same value as a plain
parse plus the operands it multiplied.  Factorization over Q[z] is unique,
so `factor_operands` of those operands and `factor_within` of the
denominator over the recorded cover must equal `factor_poly` of the
canonical sides, on the `tests/data` documents and on seeded texts.
"""
import hashlib
import json
import os
import random

import pytest

from sl2rat.errors import Sl2RatError
from sl2rat.extension import solve_add_diff
from sl2rat.factor import check_factors, factor_operands, factor_poly, factor_within
from sl2rat.parser import Operands, parse_ratfunc
from sl2rat.picard import iso_rank1, pic_invariant, solve_mult_diff
from sl2rat.rep import classify_rank1, rank1

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# operands of degree 1 to 4: irreducible, reducible, non-monic and repeated
# ones, so that merging, cancelling and the closed form all run
ATOMS = (
    "z", "(z + 1)", "(z - 2)", "(2*z - 1)", "(3*z + 4)", "(z^2 + 1)", "(z^2 - 1)",
    "(z^2 + z + 1)", "(2*z^2 - 8)", "(z^2 - 2*z + 1)", "(z^3 + z + 1)", "(z^3 - z)",
    "(z^3 - 2)", "(z^4 - 1)", "((z - 1)^2 + 1)", "(z*(z + 1) + 3)", "(z^3 + 2*z^2 - z - 2)",
)


def _chain(rng: random.Random, depth: int) -> str:
    """A product, quotient, power or negation chain; parenthesised sub-chains and sums nest."""
    parts = []
    for k in range(rng.randint(1, 3)):
        pick = rng.random()
        if depth > 0 and pick < 0.15:
            part = f"({_chain(rng, depth - 1)})"
        elif depth > 0 and pick < 0.3:
            part = f"({_sum(rng, depth - 1)})"
        elif pick < 0.4:
            part = str(rng.randint(1, 5))
        else:
            part = rng.choice(ATOMS)
        if rng.random() < 0.3:
            part += f"^{rng.randint(0, 2)}"
        if k:
            part = rng.choice("**/") + part
        parts.append(part)
    return ("-" if rng.random() < 0.15 else "") + "".join(parts)


def _sum(rng: random.Random, depth: int) -> str:
    return "".join((f" {rng.choice('+-')} " if k else "") + _chain(rng, depth) for k in range(rng.randint(2, 3)))


def seeded_texts(n: int, seed: int = 2026):
    rng = random.Random(seed)
    return [_sum(rng, 1) if rng.random() < 0.3 else _chain(rng, 2) for _ in range(n)]


def _rank1_fields(doc):
    """The fields the CLI factors: r, f and s, and L1 of one-dimensional modules, at any depth."""
    if not isinstance(doc, dict):
        return
    for key in ("r", "f", "s"):
        if isinstance(doc.get(key), str):
            yield doc[key]
    if doc.get("dim") == 1 and isinstance(doc.get("L1"), list):
        yield doc["L1"][0][0]
    for value in doc.values():
        yield from _rank1_fields(value)


def _check_factored(text: str) -> bool:
    """Assert the factored parse agrees with the plain one and with factor_poly; False on a zero or a parse error."""
    try:
        plain = parse_ratfunc(text)
    except Sl2RatError:
        with pytest.raises(Sl2RatError):
            parse_ratfunc(text, with_operands=True)
        return False
    value, operands = parse_ratfunc(text, with_operands=True)
    assert isinstance(operands, Operands)
    assert value == plain, text
    if value.is_zero():
        return False
    num, den = (factor_poly(p)[1] if p.degree > 0 else [] for p in (value.num, value.den))
    assert factor_operands(operands.items) == (num, den), text
    assert factor_within(value.den, operands.cover) == den, text
    check_factors(value.num, num)
    check_factors(value.den, den)
    return True


def test_factored_parse_matches_factor_poly_on_the_data_documents():
    fields = []
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), "r", encoding="utf-8") as fh:
            fields += list(_rank1_fields(json.load(fh)))
    assert len(fields) >= 30
    assert sum(map(_check_factored, fields)) >= 25


def test_factored_parse_matches_factor_poly_on_seeded_texts():
    checked = sum(map(_check_factored, seeded_texts(2400)))
    assert checked >= 2000


def test_iso_quotient_operands_factor_r2_over_r1():
    """The operands of r2 with those of r1 negated factor r2/r1, and shared operands cancel unfactored."""
    rng = random.Random(5)
    for _ in range(200):
        base, twist = _chain(rng, 1), _chain(rng, 1)
        r1, ops1 = parse_ratfunc(base, with_operands=True)
        r2, ops2 = parse_ratfunc(f"{base}*({twist})", with_operands=True)
        if r1.is_zero() or r2.is_zero():
            continue
        q = r2 / r1
        facs = factor_operands(ops2.items + tuple((p, -e) for p, e in ops1.items))
        assert facs == tuple(factor_poly(p)[1] if p.degree > 0 else [] for p in (q.num, q.den))


def test_check_factors_refuses_a_wrong_factorization():
    value, operands = parse_ratfunc("(z + 1)^2*(z^2 + 1)/(z - 3)", with_operands=True)
    num, den = factor_operands(operands.items)
    check_factors(value.num, num)
    check_factors(value.den, den)
    for wrong in ([(q, m + 1) for q, m in num], num[:1], num + den):
        with pytest.raises(ArithmeticError):
            check_factors(value.num, wrong)


def test_every_consumer_refuses_a_wrong_factor_list():
    """Each library entry point that takes `factors=` certifies the list instead of trusting it."""
    r = parse_ratfunc("(z + 1)^2/((z + 2)*(z + 3))")  # leading ratio 1, so solve_mult_diff reaches the lists
    s = parse_ratfunc("1/((z + 1)*(z + 3))")
    right, den = (factor_poly(r.num)[1], factor_poly(r.den)[1]), factor_poly(s.den)[1]
    wrong, wrong_den = (right[0], right[1][:1]), [(q, 2) for q, _ in den]
    consumers = [
        lambda facs: pic_invariant(0, r, factors=facs),
        lambda facs: solve_mult_diff(r, factors=facs),
        lambda facs: iso_rank1(rank1(0, 1), rank1(0, r), factors=facs),
        lambda facs: classify_rank1(rank1(0, r), factors=facs),
    ]
    for consume in consumers:
        consume(right)
        with pytest.raises(ArithmeticError, match="multiply back"):
            consume(wrong)
    solve_add_diff(s, factors=den)
    with pytest.raises(ArithmeticError, match="multiply back"):
        solve_add_diff(s, factors=wrong_den)


# sha256 of the corpus outcomes below, recorded with the evaluator that formed every
# sub-expression as a RatFunc; evaluating polynomials as Poly must not change one
MALFORMED_DIGEST = "5b4f572d0e4c0f8f7e8686217f7f57bc1cad2ed374a62a12d5d828979d12eca2"


def malformed_corpus(n: int = 600, seed: int = 7):
    """Edge cases of every bound and of division by zero, seeded valid texts and their mutations."""
    rng = random.Random(seed)
    out = [
        "", "z +", "(z", "z)", "z z", "z^(2)", "z^-1", "z^z", "2 ? 3", "((z)", "-", "--z^", "1/0",
        "1/(z - z)", "z/(1/z - 1/z)", "0/z", "(1/z - 1/z)^0", "(z^2 - 1)/(z - 1) + 1/0",
        "2^10000 + 2^10000", "2^10000 - 2^10000", "(2^5000)*(2^5001)", "(1/2^5000)*(1/2^5001)",
        "z*2^9999*2", "(1/2)^10000", "(1/2)^10001", "(z + 2^9999)^2", "(z/3 + 1)^10000",
        "(z^2 + 1)^500", "(z^2 + 1)^501", "(1/(z^2 + 1))^501", "z^1000/z", "2^10000/3 + z",
        "1/(2^10000*z) + 1/z", "(" * 101 + "z" + ")" * 101, "-" * 101 + "z", "9" * 1001,
    ]
    texts = seeded_texts(n // 2, seed)
    out += texts
    for _ in range(n):
        t = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(t) + 1)
            if rng.random() < 0.5 and i < len(t):
                del t[i]
            else:
                t.insert(i, rng.choice("()+-*/^z0123 ?"))
        out.append("".join(t))
    return out


def _outcome(text: str) -> str:
    try:
        return f"ok\t{parse_ratfunc(text)}"
    except Sl2RatError as exc:
        return f"{type(exc).__name__}\t{exc}\t{getattr(exc, 'position', None)}"


def test_parse_outcomes_are_unchanged_on_a_malformed_corpus():
    """Type, message and position of every error, and every value, as the RatFunc-only evaluator gave them."""
    corpus = malformed_corpus()
    outcomes = [_outcome(t) for t in corpus]
    assert sum(o.startswith("ParseError") for o in outcomes) >= 300
    assert sum(o.startswith("ZeroDenominator") for o in outcomes) >= 3
    assert sum(o.startswith("ok") for o in outcomes) >= 100
    digest = hashlib.sha256("\n".join(f"{t!r}\t{o}" for t, o in zip(corpus, outcomes)).encode()).hexdigest()
    assert digest == MALFORMED_DIGEST
    for text in corpus:
        _check_factored(text)
