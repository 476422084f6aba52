"""Deterministic instance generators shared by the unit and acceptance suites.

The corpus mixes every constructor the library exposes: rank-1 modules,
Casimir modules from a raising matrix, constant-Casimir matrices behind
B = Id, direct sums, tensor products, rank-1 extensions, and random
bounded-degree conjugations.  Everything is driven by a fixed seed.
"""
from __future__ import annotations

import random
from fractions import Fraction

from sl2rat.extension import ExtDatum, ext_build
from sl2rat.matrix import Mat
from sl2rat.monoidal import tensor
from sl2rat.picard import iso_rank1
from sl2rat.poly import Poly
from sl2rat.ratfunc import RatFunc
from sl2rat.rep import RationalRep, conjugate, direct_sum, make_rep, rank1, casimir_from_L1

Z = RatFunc.variable()

LEVELS = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 4), Fraction(1, 2)]


def random_nonzero_ratfunc(rng: random.Random, max_factors: int = 2) -> RatFunc:
    """Products of small linear factors and a nonzero constant."""
    out = RatFunc.constant(rng.choice([1, 1, 2, -1, Fraction(1, 2), 3]))
    for _ in range(rng.randint(0, max_factors)):
        root = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
        factor = Z - RatFunc.constant(root)
        out = out * factor if rng.random() < 0.6 else out / factor
    return out


QUADRATIC = Z * Z + 1  # irreducible over Q, so it is its own shift class


def isomorphic_rank1_pair(rng: random.Random) -> tuple:
    """(r1, r2) with r2 = r1 t(z)/t(z+1) for a random t with linear and quadratic factors."""
    r1 = random_nonzero_ratfunc(rng, 2)
    t = random_nonzero_ratfunc(rng, 3)
    if rng.random() < 0.5:
        q = QUADRATIC.shifted(rng.randint(-2, 2))
        t = t * q if rng.random() < 0.5 else t / q
    return r1, r1 * t / t.shifted(1)


def random_rank1(rng: random.Random) -> RationalRep:
    return rank1(rng.choice(LEVELS), random_nonzero_ratfunc(rng))


def random_constant_casimir(rng: random.Random, dim: int) -> RationalRep:
    """B = Id, A = z(z-1) Id - C0 with C0 upper triangular (rational spectrum)."""
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if j < i:
                row.append(RatFunc.zero())
            elif j == i:
                row.append(RatFunc.constant(rng.choice(LEVELS)))
            else:
                row.append(RatFunc.constant(rng.randint(-1, 1)))
        rows.append(row)
    C0 = Mat(rows)
    zz = RatFunc(Poly((0, -1, 1)))
    A = Mat.diag([zz] * dim) - C0
    return make_rep(A, Mat.identity(dim))


def random_casimir_from_L1(rng: random.Random, dim: int) -> RationalRep:
    while True:
        rows = [
            [
                RatFunc(Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))]))
                for _ in range(dim)
            ]
            for _ in range(dim)
        ]
        B = Mat(rows)
        if B.is_invertible():
            return casimir_from_L1(rng.choice(LEVELS), B)


def random_rank1_extension(rng: random.Random):
    """Datum of two same-level rank-1 modules; T is a multiple of an intertwiner."""
    mu = rng.choice(LEVELS)
    left = rank1(mu, random_nonzero_ratfunc(rng))
    if rng.random() < 0.5:
        right = rank1(mu, random_nonzero_ratfunc(rng))
    else:
        # isomorphic carrier: twist by a shift-trivial factor
        r = left.B[0, 0]
        root = Fraction(rng.randint(-2, 2))
        shift = rng.randint(1, 2)
        right = rank1(mu, r * (Z - root) / (Z - root - shift))
    b1 = random_nonzero_ratfunc(rng) if rng.random() < 0.8 else RatFunc.zero()
    iso = iso_rank1(right, left)
    if iso.intertwiner is not None and rng.random() < 0.5:
        T = Mat([[RatFunc.constant(rng.choice([1, 2, -1])) * iso.intertwiner]])
    else:
        T = Mat([[0]])
    return ExtDatum(left, right, Mat([[b1]]), T)


def random_invertible_T(rng: random.Random, dim: int, max_degree: int = 2) -> Mat:
    while True:
        rows = []
        for _ in range(dim):
            row = []
            for _ in range(dim):
                deg = rng.randint(0, max_degree)
                row.append(RatFunc(Poly([rng.randint(-2, 2) for _ in range(deg + 1)])))
            rows.append(row)
        T = Mat(rows)
        if T.is_invertible():
            return T


def build_corpus(seed: int = 20240, count: int = 200):
    """Validated representations of dims 1-4 from all constructors, fixed seed."""
    rng = random.Random(seed)
    reps = []
    while len(reps) < count:
        choice = rng.random()
        if choice < 0.30:
            rep = random_rank1(rng)
        elif choice < 0.45:
            rep = random_constant_casimir(rng, rng.randint(2, 4))
        elif choice < 0.55:
            rep = random_casimir_from_L1(rng, 2)
        elif choice < 0.70:
            rep = direct_sum(random_rank1(rng), random_rank1(rng))
            if rng.random() < 0.4:
                rep = direct_sum(rep, random_rank1(rng))
        elif choice < 0.80:
            if rng.random() < 0.5:
                rep = tensor(random_rank1(rng), random_rank1(rng))
            else:
                # a genuinely two-dimensional tensor factor
                rep = tensor(random_rank1(rng), ext_build(random_rank1_extension(rng)))
        else:
            rep = ext_build(random_rank1_extension(rng))
        if rng.random() < 0.5 and rep.dim <= 3:
            rep = conjugate(rep, random_invertible_T(rng, rep.dim, max_degree=1 if rep.dim >= 3 else 2))
        reps.append(rep)
    return reps
