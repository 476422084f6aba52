"""Print one sha256 over seeded outputs of the Poly, RatFunc, Mat and module layers.

    PYTHONPATH=<checkout>/src python3 tests/identity_hash.py

Two checkouts that print the same hash gave byte-identical answers on:
rref, kernel, det, inverse and solve of 400 seeded matrices; factor_poly,
poly_gcd, divmod (of p by q and of p*q by q), partial_fractions and shifted
(by integers and by 1/2, -2/3 and 5/4) on 2,000 seeded polynomials and
rational functions; factor_poly, rational_roots and monic_divisors of 2,000
seeded polynomials of degree 1 and 2 (rational roots, double roots, and
random rational coefficients, so every sign of discriminant); the
devissage class and tree, the level components and the filtration steps of
500 modules; `ext_build` of 100 seeded data with T
raised by 1 (the error type, or the built module).  The `monoidal` part,
named on its own, hashes the tensor product with the next module, the
internal Hom from it and the dual of 120 corpus modules of dims 1-4:

    PYTHONPATH=<checkout>/src python3 tests/identity_hash.py monoidal

The `field` part, also named on its own, hashes `+`, `-`, `*`, `/` and `**`
of 2,000 seeded pairs of rational functions built from shared shifted
factors (z + k)^j and quadratics, so that the reduced forms cancel:

    PYTHONPATH=<checkout>/src python3 tests/identity_hash.py field

The `rank1` part, named on its own, hashes 400 seeded pairs of rank-1
modules at equal and, one time in five, unequal levels: r2 = r1 t(z)/t(z+1),
the same times 2 or times an irreducible quadratic, or an unrelated r2.  Per
pair it hashes `iso_rank1` (reason and intertwiner), `pic_invariant` of r1,
`solve_mult_diff` of r2/r1 and `classify_rank1` of the first module, and on
the isomorphic pairs `ext_class_equal` of b1 against b1 plus a coboundary
or plus a random function:

    PYTHONPATH=<checkout>/src python3 tests/identity_hash.py rank1
"""
import hashlib
import random
import sys
from fractions import Fraction

from helpers import QUADRATIC, build_corpus, isomorphic_rank1_pair, random_nonzero_ratfunc, random_rank1_extension
from sl2rat.errors import Sl2RatError
from sl2rat.extension import ExtDatum, ext_build, ext_class_equal
from sl2rat.factor import factor_poly, monic_divisors, rational_roots
from sl2rat.k0 import devissage, serialize_rep
from sl2rat.matrix import Mat
from sl2rat.monoidal import dual, internal_hom, tensor
from sl2rat.picard import iso_rank1, pic_invariant, solve_mult_diff
from sl2rat.poly import Poly, poly_gcd
from sl2rat.ratfunc import RatFunc, partial_fractions
from sl2rat.rep import canonical_filtration, classify_rank1, level_decompose, rank1

H = hashlib.sha256()
COUNTS = {}


def emit(tag, text):
    COUNTS[tag] = COUNTS.get(tag, 0) + 1
    H.update(f"{tag}:{text}\n".encode())


def rand_coeff(rng):
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 1, 2, 3, 4]))


def rand_poly(rng, deg):
    return Poly([rand_coeff(rng) for _ in range(deg + 1)])


def rand_factored(rng):
    """A product of small linear/quadratic factors times a non-unit constant."""
    p = Poly.constant(rng.choice([1, -1, 2, Fraction(-3, 2), Fraction(5, 7), 6]))
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.7:
            f = Poly((Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])), 1))
        else:
            f = Poly((rng.randint(-3, 3), rng.randint(-2, 2), rng.choice([1, 2, -3])))
        p = p * f ** rng.randint(1, 2)
    return p


def rand_entry(rng):
    if rng.random() < 0.3:
        return RatFunc.zero()
    num = rand_poly(rng, rng.randint(0, 2))
    if num.is_zero():
        num = Poly.one()
    den = Poly.one()
    if rng.random() < 0.4:
        for _ in range(rng.randint(1, 2)):
            den = den * Poly((Fraction(rng.randint(-3, 3), rng.choice([1, 2])), rng.choice([1, 2, -1])))
    return RatFunc(num, den)


def matrices(rng):
    for _ in range(400):
        n = rng.choice([1, 2, 2, 3, 3, 4, 4, 5])
        m = n if rng.random() < 0.7 else rng.randint(1, 5)
        M = Mat([[rand_entry(rng) for _ in range(m)] for _ in range(n)])
        R, piv = M.rref()
        emit("rref", f"{R}|{piv}")
        emit("kernel", "|".join(",".join(map(str, v)) for v in M.kernel()))
        rhs = Mat([[rand_entry(rng)] for _ in range(n)])
        emit("solve", str(M.solve(rhs)))
        if n == m:
            d = M.det()
            emit("det", str(d))
            emit("inverse", str(M.inverse()) if not d.is_zero() else "singular")


def polys(rng):
    shifts = [0, 1, -1, 3, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    for _ in range(2000):
        p = rand_factored(rng) * rand_poly(rng, rng.randint(0, 3))
        if not p.is_zero():
            lead, facs = factor_poly(p)
            emit("factor", f"{lead}|" + ";".join(f"{f}^{e}" for f, e in facs))
        q = rand_factored(rng) * rand_poly(rng, rng.randint(0, 2))
        common = rand_factored(rng)
        emit("gcd", str(poly_gcd(p * common, q * common)))
        emit("gcd0", str(poly_gcd(p, q)))
        for a in shifts:
            emit("shift", str(p.shifted(a)))
        if not q.is_zero():
            emit("divmod", "|".join(map(str, divmod(p, q) + divmod(p * q, q))))
            f = RatFunc(p, q)
            poly_part, pieces = partial_fractions(f)
            emit("pf", f"{poly_part}|" + ";".join(f"{a}/({b})^{j}" for b, j, a in pieces))
            emit("rf", f"{f}|{f.shifted(1)}|{f.shifted(Fraction(-1, 2))}|{f * f + f}")


def low_degree(rng):
    for _ in range(2000):
        if rng.random() < 0.5:
            p = rand_poly(rng, rng.choice([1, 2, 2]))
        else:
            roots = [rand_coeff(rng) for _ in range(rng.randint(1, 2))]
            if len(roots) == 2 and rng.random() < 0.3:
                roots[1] = roots[0]
            p = Poly.constant(rand_coeff(rng) or 1)
            for r in roots:
                p = p * Poly((-r, 1))
        if p.is_zero():
            continue
        lead, facs = factor_poly(p)
        emit("factor2", f"{lead}|" + ";".join(f"{f}^{e}" for f, e in facs))
        emit("roots2", ",".join(map(str, rational_roots(p))))
        emit("divisors2", ";".join(map(str, monic_divisors(p))))


def modules():
    reps = build_corpus(seed=20240, count=200)
    rng = random.Random(4242)
    for _ in range(100):
        d = random_rank1_extension(rng)
        reps.extend([ext_build(d), d.left, d.right])
        try:
            emit("ext_bad", serialize_rep(ext_build(ExtDatum(d.left, d.right, d.B1, d.T + Mat([[1]])))))
        except Sl2RatError as e:
            emit("ext_bad", f"error {type(e).__name__} {e}")
    for rep in reps:
        try:
            cls, tree = devissage(rep)
            emit("devissage", repr(cls) + tree.serialize())
        except Sl2RatError as e:
            emit("devissage", f"error {type(e).__name__} {e}")
        for comp in level_decompose(rep):
            emit("level", f"{comp.level}|{comp.exponent}|{comp.basis}|{serialize_rep(comp.rep)}")
            for step in canonical_filtration(comp).steps:
                emit("filtration", f"{step.basis}|{serialize_rep(step.quotient)}")


def monoidal():
    reps = build_corpus(seed=20241, count=120)
    for a, b in zip(reps, reps[1:] + reps[:1]):
        emit("tensor", serialize_rep(tensor(a, b)))
        emit("hom", serialize_rep(internal_hom(a, b)))
        emit("dual", serialize_rep(dual(a)))


def field(rng):
    factors = [Poly((k, 1)) for k in range(-3, 4)] + [Poly((1, 1, 1)), Poly((-2, 0, 3)), Poly((3, -1, 2))]

    def side():
        p = Poly.constant(rng.choice([1, -1, 2, Fraction(-3, 2), Fraction(5, 7), 6]))
        for _ in range(rng.randint(0, 3)):
            p = p * rng.choice(factors).shifted(rng.randint(-2, 2)) ** rng.randint(1, 2)
        return p

    def operand():
        num = side() * rand_poly(rng, 1) if rng.random() < 0.3 else side()
        return RatFunc(num, side())

    for _ in range(2000):
        f, g = operand(), operand()
        if rng.random() < 0.2:
            g = g - f
        emit("field", f"{f + g}|{f - g}|{f * g}|{g * f}")
        emit("div", str(f / g) if not g.is_zero() else "zero divisor")
        n = rng.choice([-2, -1, 2, 3])
        emit("pow", str(f ** n) if n > 0 or not f.is_zero() else "zero base")


def rank1_pairs(rng):
    levels = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 4), Fraction(1, 2), Fraction(3, 4)]
    for _ in range(400):
        mu1 = rng.choice(levels)
        mu2 = mu1 if rng.random() < 0.8 else rng.choice(levels)
        r1, r2 = isomorphic_rank1_pair(rng)
        kind = rng.choice(["iso", "iso", "double", "quadratic", "unrelated"])
        if kind == "double":
            r2 = 2 * r2
        elif kind == "quadratic":
            r2 = r2 * QUADRATIC
        elif kind == "unrelated":
            r2 = random_nonzero_ratfunc(rng, 3)
        a, b = rank1(mu1, r1), rank1(mu2, r2)
        iso = iso_rank1(a, b)
        emit("iso", f"{kind}|{iso.reason}|{iso.intertwiner}")
        emit("invariant", str(pic_invariant(mu1, r1)))
        emit("solve_mult", str(solve_mult_diff(r2 / r1)))
        emit("classify", str(classify_rank1(a)))
        t = iso.intertwiner
        if t is not None:
            b1 = random_nonzero_ratfunc(rng, 2)
            if rng.random() < 0.5:
                g = random_nonzero_ratfunc(rng, 2)
                b2 = b1 - r1 * (g.shifted(1) - g) / t.shifted(1)
            else:
                b2 = b1 + random_nonzero_ratfunc(rng, 2)
            T1 = rng.choice([0, 1])
            T2 = rng.choice([0, T1])
            emit("ext_class", ext_class_equal(a, b, b1, b2, T1, T2))


def main():
    parts = sys.argv[1:] or ["matrices", "polys", "low_degree", "modules"]
    if "matrices" in parts:
        matrices(random.Random(900))
    if "polys" in parts:
        polys(random.Random(901))
    if "low_degree" in parts:
        low_degree(random.Random(903))
    if "modules" in parts:
        modules()
    if "monoidal" in parts:
        monoidal()
    if "field" in parts:
        field(random.Random(902))
    if "rank1" in parts:
        rank1_pairs(random.Random(904))
    print(sorted(COUNTS.items()), file=sys.stderr)
    print(H.hexdigest())


if __name__ == "__main__":
    main()
