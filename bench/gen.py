"""Seeded input generators for the three benchmark workloads.

Each `*_round` function takes a `random.Random` and returns the inputs of
one round.  The library sees only the inputs built here; nothing is imported
from the test suite, so a change under `tests/` can never change what the
benchmark measures.  The make-up of every round is fixed (how many ops of
each kind); the seed picks coefficients, levels and shifts, so runs with
different seeds do the same kinds of work in the same proportions.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from sl2rat.extension import ExtDatum, ext_build
from sl2rat.matrix import Mat
from sl2rat.monoidal import tensor
from sl2rat.poly import Poly
from sl2rat.ratfunc import RatFunc
from sl2rat.rep import RationalRep, casimir_from_L1, conjugate, direct_sum, make_rep, rank1

Z = RatFunc.variable()

LEVELS = (Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 4), Fraction(1, 2))


# -- shared pieces ---------------------------------------------------------------


def small_ratfunc(rng: random.Random, max_factors: int = 2) -> RatFunc:
    """A nonzero constant times up to `max_factors` small linear factors."""
    out = RatFunc.constant(rng.choice([1, 1, 2, -1, Fraction(1, 2), 3]))
    for _ in range(rng.randint(0, max_factors)):
        root = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
        factor = Z - RatFunc.constant(root)
        out = out * factor if rng.random() < 0.6 else out / factor
    return out


def shift_trivial(root: Fraction, k: int) -> RatFunc:
    """(z - root) / (z - root - k): leaves every Picard invariant unchanged."""
    return (Z - RatFunc.constant(root)) / (Z - RatFunc.constant(root + k))


def descending_product(root: Fraction, k: int) -> RatFunc:
    """t = (z-root-1)...(z-root-k), the solution of t(z)/t(z+1) = (z-root-k)/(z-root)."""
    t = RatFunc.one()
    for j in range(1, k + 1):
        t = t * (Z - RatFunc.constant(root + j))
    return t


# -- devissage_ext ---------------------------------------------------------------


@dataclass(frozen=True)
class ExtCase:
    datum: ExtDatum
    level: Fraction


def ext_round(rng: random.Random) -> List[ExtCase]:
    """Ten extension data: every level twice, once with T != 0 and once with T = 0.

    T != 0 needs isomorphic carriers, so that case twists the sub's raising
    function by a shift-trivial factor and uses the known intertwiner of that
    twist.  The T = 0 case draws the quotient freely or as an isomorphic
    twist, with equal odds.
    """
    out = []
    for mu in LEVELS:
        for glued in (True, False):
            left = rank1(mu, small_ratfunc(rng))
            r = left.B[0, 0]
            if glued or rng.random() < 0.5:
                root = Fraction(rng.randint(-2, 2))
                k = rng.randint(1, 2)
                right = rank1(mu, r * shift_trivial(root, k))
                # left.B(z) t(z+1) = t(z) right.B(z)
                t = descending_product(root, k)
            else:
                right = rank1(mu, small_ratfunc(rng))
                t = None
            b1 = small_ratfunc(rng) if rng.random() < 0.8 else RatFunc.zero()
            if glued:
                T = Mat([[RatFunc.constant(rng.choice([1, 2, -1])) * t]])
            else:
                T = Mat([[0]])
            out.append(ExtCase(ExtDatum(left, right, Mat([[b1]]), T), mu))
    return out


# -- casimir_corpus -----------------------------------------------------------------


def _rank1_any(rng: random.Random) -> RationalRep:
    return rank1(rng.choice(LEVELS), small_ratfunc(rng))


def _constant_casimir(rng: random.Random, dim: int) -> RationalRep:
    """B = Id, A = z(z-1) Id - C0 with C0 upper triangular (rational spectrum)."""
    rows = []
    for i in range(dim):
        rows.append(
            [
                RatFunc.constant(rng.choice(LEVELS) if j == i else rng.randint(-1, 1)) if j >= i else 0
                for j in range(dim)
            ]
        )
    zz = RatFunc(Poly((0, -1, 1)))
    return make_rep(Mat.diag([zz] * dim) - Mat(rows), Mat.identity(dim))


def _casimir_from_raising(rng: random.Random, dim: int) -> RationalRep:
    while True:
        B = Mat(
            [
                [RatFunc(Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])) for _ in range(dim)]
                for _ in range(dim)
            ]
        )
        if B.is_invertible():
            return casimir_from_L1(rng.choice(LEVELS), B)


def _extension(rng: random.Random) -> RationalRep:
    """A rank-1 extension over isomorphic carriers, glued (T != 0) three times in four."""
    mu = rng.choice(LEVELS)
    left = rank1(mu, small_ratfunc(rng))
    root = Fraction(rng.randint(-2, 2))
    k = rng.randint(1, 2)
    right = rank1(mu, left.B[0, 0] * shift_trivial(root, k))
    b1 = small_ratfunc(rng)
    c = rng.choice([0, 1, 2, -1])
    T = Mat([[RatFunc.constant(c) * descending_product(root, k)]])
    return ext_build(ExtDatum(left, right, Mat([[b1]]), T))


def _invertible_T(rng: random.Random, dim: int) -> Mat:
    """Random invertible T whose entries all have degree exactly 1.

    A fixed degree keeps the cost of conjugated modules from swinging with
    the draw (random degrees 0-2 spread it twice as wide at the same mean).
    """
    while True:
        T = Mat(
            [
                [RatFunc(Poly((rng.randint(-2, 2), rng.choice([-2, -1, 1, 2])))) for _ in range(dim)]
                for _ in range(dim)
            ]
        )
        if T.is_invertible():
            return T


# (constructor, conjugate?) slots of one corpus round.  Every constructor
# appears; conjugation by a random polynomial T goes to exactly half of the
# slots, all of them modules of dim <= 2.
CORPUS_ROUND = (
    ("rank1", True),
    ("rank1", False),
    ("rank1", True),
    ("rank1", False),
    ("constant2", True),
    ("constant3", False),
    ("constant4", False),
    ("from_L1", True),
    ("from_L1", False),
    ("sum2", True),
    ("sum3", False),
    ("tensor11", True),
    ("tensor12", False),
    ("ext", True),
    ("ext", True),
    ("ext", False),
)


def corpus_module(rng: random.Random, kind: str, conj: bool) -> RationalRep:
    if kind == "rank1":
        rep = _rank1_any(rng)
    elif kind.startswith("constant"):
        rep = _constant_casimir(rng, int(kind[-1]))
    elif kind == "from_L1":
        rep = _casimir_from_raising(rng, 2)
    elif kind == "sum2":
        rep = direct_sum(_rank1_any(rng), _rank1_any(rng))
    elif kind == "sum3":
        rep = direct_sum(direct_sum(_rank1_any(rng), _rank1_any(rng)), _rank1_any(rng))
    elif kind == "tensor11":
        rep = tensor(_rank1_any(rng), _rank1_any(rng))
    elif kind == "tensor12":
        rep = tensor(_rank1_any(rng), _extension(rng))
    elif kind == "ext":
        rep = _extension(rng)
    else:
        raise ValueError(f"unknown corpus slot {kind!r}")
    if conj:
        rep = conjugate(rep, _invertible_T(rng, rep.dim))
    return rep


def corpus_round(rng: random.Random) -> List[RationalRep]:
    slots = list(CORPUS_ROUND)
    rng.shuffle(slots)
    return [corpus_module(rng, kind, conj) for kind, conj in slots]


# -- rank1_cli -------------------------------------------------------------------------
#
# Raising functions are written as text over a small alphabet of irreducible
# factors of degree 1-3 and shifted copies of them, so the CLI's parser does
# the work a user's document would cause.  A factor is (coefficients
# ascending, shift): its text is f(z + shift).


Factor = Tuple[Tuple[Fraction, ...], int]


def _frac_text(c: Fraction) -> str:
    return f"({c})" if c < 0 or c.denominator != 1 else str(c)


def _factor_text(f: Factor, dz: int = 0) -> str:
    """f(z + shift + dz) as an expression in z."""
    coeffs, shift = f
    s = shift + dz
    var = "z" if s == 0 else f"(z + {s})" if s > 0 else f"(z - {-s})"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else var if k == 1 else f"{var}^{k}"
        if k == 0:
            terms.append(_frac_text(c))
        elif c == 1:
            terms.append(mono)
        else:
            terms.append(f"{_frac_text(c)}*{mono}")
    return "(" + " + ".join(terms) + ")"


def _irreducible(rng: random.Random, degree: int) -> Tuple[Fraction, ...]:
    """A monic irreducible over Q of the given degree, ascending coefficients."""
    if degree == 1:
        return (-Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])), Fraction(1))
    if degree == 2:
        # negative discriminant: no real roots, so irreducible over Q
        b = rng.randint(-3, 3)
        c = b * b // 4 + rng.randint(1, 4)
        return (Fraction(c), Fraction(b), Fraction(1))
    while True:
        # monic integer cubic: irreducible iff no integer root dividing q
        p, q = rng.randint(-3, 3), rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        divisors = [d for d in range(1, abs(q) + 1) if q % d == 0]
        if all(r ** 3 + p * r + q != 0 for d in divisors for r in (d, -d)):
            return (Fraction(q), Fraction(p), Fraction(0), Fraction(1))


@dataclass(frozen=True)
class RatText:
    """lead * prod(num factors) / prod(den factors), each factor with its power."""

    lead: Fraction
    num: Tuple[Tuple[Factor, int], ...]
    den: Tuple[Tuple[Factor, int], ...]

    def text(self, dz: int = 0) -> str:
        def side(items):
            return "*".join(
                _factor_text(f, dz) + (f"^{e}" if e > 1 else "") for f, e in items
            )

        out = _frac_text(self.lead)
        if self.num:
            out += "*" + side(self.num)
        if self.den:
            out += "/(" + side(self.den) + ")"
        return out

    def times(self, other: "RatText") -> "RatText":
        return RatText(self.lead * other.lead, self.num + other.num, self.den + other.den)


def random_rattext(rng: random.Random, max_degree: int = 10) -> RatText:
    """Up to ~max_degree on each side, from 1-3 irreducibles and their shifts."""
    sides = []
    for _ in range(2):
        items = []
        degree = 0
        for _ in range(rng.randint(1, 3)):
            base = _irreducible(rng, rng.choice([1, 1, 2, 3]))
            for _ in range(rng.randint(1, 2)):
                e = rng.randint(1, 2)
                if degree + e * (len(base) - 1) > max_degree:
                    break
                items.append(((base, rng.randint(-2, 2)), e))
                degree += e * (len(base) - 1)
        sides.append(tuple(items))
    lead = Fraction(rng.choice([1, -1, 2, 3, -2]), rng.choice([1, 1, 2, 3]))
    return RatText(lead, sides[0], sides[1])


def shift_trivial_text(rng: random.Random) -> RatText:
    """g(z + s) / g(z + s + k): a factor whose Picard invariant is trivial."""
    base = _irreducible(rng, rng.choice([1, 2, 3]))
    s, k = rng.randint(-2, 2), rng.randint(1, 3)
    return RatText(Fraction(1), (((base, s), 1),), (((base, s + k), 1),))


def _level(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 4]))


def rank1_doc(mu: Fraction, r: str) -> Dict:
    """Representation document of rank1(mu, r): L1 = r, Lm1 = pi_mu / r(z - 1)."""
    r_prev = r.replace("z", "(z - 1)")  # the grammar has no other letter
    return {"dim": 1, "L1": [[r]], "Lm1": [[f"(z^2 - z - {_frac_text(mu)})/({r_prev})"]]}


def _difference_text(phi: RatText) -> str:
    return f"({phi.text(1)}) - ({phi.text()})"


def _summable_phi(rng: random.Random) -> RatText:
    """A rational phi with poles in 1-2 irreducible classes, numerator degree <= 2."""
    phi = random_rattext(rng, max_degree=4)
    return RatText(phi.lead, phi.num[:1], phi.den)


def _principal_part_text(rng: random.Random) -> str:
    """a(z) / g(z+s)^j with a != 0, deg a < deg g: never a difference phi(z+1) - phi(z)."""
    base = _irreducible(rng, rng.choice([1, 2, 3]))
    g = (base, rng.randint(-2, 2))
    a = rng.choice([1, 2, -1, 3])
    j = rng.randint(1, 2)
    return f"{a}/({_factor_text(g)}^{j})"


@dataclass(frozen=True)
class CliRequest:
    name: str
    argv: Tuple[str, ...]
    doc: str  # the JSON document fed on stdin
    expected_exit: int
    golden: Optional[str] = None  # byte-exact expected stdout for tests/data documents


def _req(name: str, argv, doc: Dict) -> CliRequest:
    return CliRequest(name, tuple(argv), json.dumps(doc, sort_keys=True), 0)


def cli_round(rng: random.Random) -> List[CliRequest]:
    """22 generated requests; about half are solvable or isomorphic."""
    out: List[CliRequest] = []
    for iso in (True, True, False, False):
        mu = _level(rng)
        r1 = random_rattext(rng)
        if iso:
            r2 = r1.times(shift_trivial_text(rng)).times(shift_trivial_text(rng))
        elif rng.random() < 0.5:
            r2 = r1.times(RatText(Fraction(1), (((_irreducible(rng, 2), 0), 1),), ()))
        else:
            r2 = r1.times(RatText(Fraction(2), (), ()))
        out.append(_req("iso", ["iso"], {"first": rank1_doc(mu, r1.text()), "second": rank1_doc(mu, r2.text())}))
    for _ in range(2):
        out.append(
            _req("pic-normalize", ["pic", "normalize"], {"level": str(_level(rng)), "r": random_rattext(rng).text()})
        )
    for _ in range(2):
        pair = [{"level": str(_level(rng)), "r": random_rattext(rng).text()} for _ in range(2)]
        out.append(_req("pic-mul", ["pic", "mul"], {"first": pair[0], "second": pair[1]}))
    for solvable in (True, True, False, False):
        s = _difference_text(_summable_phi(rng))
        if not solvable:
            s = f"{s} + {_principal_part_text(rng)}"
        out.append(_req("solve-add", ["solve-add"], {"s": s}))
    for solvable in (True, True, False, False):
        t = random_rattext(rng, max_degree=5)
        f = f"({t.text()})/({t.text(1)})"
        if not solvable:
            f = f"2*{f}" if rng.random() < 0.5 else f"{f}*{_factor_text((_irreducible(rng, 2), 0))}"
        out.append(_req("solve-mult", ["solve-mult"], {"f": f}))
    for family in (True, False):
        if family:
            kind = rng.choice(["I", "II", "III", "IV"])
            mu = rng.choice([Fraction(0), Fraction(2), Fraction(-1, 4), Fraction(3, 4)])
            gamma = Fraction(rng.choice([1, 2, -3]), rng.choice([1, 2]))
            hi = (1 + Fraction(_sqrt_exact(1 + 4 * mu))) / 2
            lo = 1 - hi
            base = {
                "I": f"(z^2 + z - {_frac_text(mu)})",
                "II": f"(z + 1 - {_frac_text(hi)})",
                "III": f"(z + 1 - {_frac_text(lo)})",
                "IV": "1",
            }[kind]
            noise = shift_trivial_text(rng).times(shift_trivial_text(rng))
            r_text = f"{_frac_text(gamma)}*{base}*{noise.text()}"
        else:
            mu = _level(rng)
            r_text = random_rattext(rng).text()
        out.append(_req("classify-rank1", ["classify-rank1"], rank1_doc(mu, r_text)))
    for equal in (True, False):
        mu = _level(rng)
        r1 = random_rattext(rng, max_degree=4)
        b1 = random_rattext(rng, max_degree=4).text()
        diff = _difference_text(_summable_phi(rng))
        if not equal:
            diff = f"{diff} + {_principal_part_text(rng)}"
        b2 = f"{b1} - ({r1.text()})*({diff})"
        doc = {"level": str(mu), "r1": r1.text(), "r2": r1.text(), "b1": b1, "b2": b2, "T1": "1", "T2": "1"}
        out.append(_req("ext-class-eq", ["ext", "class-eq"], doc))
    for m in (rng.randint(1, 3), -rng.randint(1, 3)):
        doc = {"level": str(_level(rng)), "r": random_rattext(rng, max_degree=4).text(), "m": m}
        out.append(_req("orbit", ["orbit"], doc))
    return out


def _sqrt_exact(q: Fraction) -> Fraction:
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        raise ValueError(f"{q} is not a rational square")
    return Fraction(n, d)


def golden_requests(root: str) -> List[CliRequest]:
    """The documents under tests/data with their byte-exact goldens and exit codes."""
    data = os.path.join(root, "tests", "data")
    gold = os.path.join(root, "tests", "goldens")
    with open(os.path.join(gold, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    out = []
    for case in manifest:
        with open(os.path.join(data, f"{case['name']}.json"), "r", encoding="utf-8") as fh:
            doc = fh.read()
        with open(os.path.join(gold, f"{case['name']}.out"), "r", encoding="utf-8") as fh:
            expected = fh.read()
        out.append(CliRequest(f"golden:{case['name']}", tuple(case["argv"]), doc, case["exit"], expected))
    return out
