import itertools
import random
from fractions import Fraction

import pytest

from sl2rat.errors import SingularMatrix
from sl2rat.matrix import Mat, _back_reduce, _forward, _kernel_basis, mat_from_strings
from sl2rat.ratfunc import RatFunc

Z = RatFunc.variable()


def rand_mat(rng, n, m, deg=1):
    def entry():
        num = [rng.randint(-3, 3) for _ in range(deg + 1)]
        return RatFunc.constant(0) + sum(
            (RatFunc.constant(c) * Z ** i for i, c in enumerate(num)), RatFunc.zero()
        )

    return Mat([[entry() for _ in range(m)] for _ in range(n)])


def test_spec_kernel_examples():
    k = Mat([[1, Z]]).kernel()
    assert k == [(-Z, RatFunc.one())]
    assert Mat.identity(3).kernel() == []
    sol = Mat([[1]]).solve(Mat([[Z ** 2]]))
    assert sol == Mat([[Z ** 2]])


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(15):
        m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        for v in m.kernel():
            assert (m * Mat.column(v)).is_zero()
        # rank-nullity, exact
        assert m.rank() + len(m.kernel()) == m.ncols


def test_solve_inconsistent():
    a = Mat([[1], [1]])
    assert a.solve(Mat([[1], [2]])) is None
    assert a.solve(Mat([[Z], [Z]])) == Mat([[Z]])


def test_inverse():
    m = Mat([[Z, 1], [1, 1]])
    inv = m.inverse()
    assert m * inv == Mat.identity(2)
    assert inv * m == Mat.identity(2)
    with pytest.raises(SingularMatrix):
        Mat([[1, 1], [1, 1]]).inverse()


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(10):
        a = rand_mat(rng, 3, 3)
        b = rand_mat(rng, 3, 3)
        assert (a * b).det() == a.det() * b.det()


def test_kron_mixed_product():
    rng = random.Random(7)
    a, b = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
    c, d = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
    assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_mat_from_strings():
    m = mat_from_strings([["z", "1/(z-1)"], ["0", "2"]])
    assert m[0, 1] == 1 / (Z - 1)


def rand_ratfunc_mat(rng, n, m):
    """Entries 0, linear polynomials or with a simple pole; about a quarter are zero."""
    def entry():
        r = rng.random()
        if r < 0.25:
            return RatFunc.zero()
        p = RatFunc.constant(rng.randint(-3, 3)) + RatFunc.constant(rng.randint(-2, 2)) * Z
        return p if r < 0.6 or p.is_zero() else p / (Z - rng.randint(-2, 2))

    return Mat([[entry() for _ in range(m)] for _ in range(n)])


def leibniz_det(m):
    total = RatFunc.zero()
    for perm in itertools.permutations(range(m.nrows)):
        inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
        term = RatFunc.constant(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * m[i, j]
        total = total + term
    return total


def test_det_matches_leibniz_expansion():
    rng = random.Random(11)
    kinds = set()
    for n in range(1, 5):
        for k in range(8):
            rows = rand_ratfunc_mat(rng, n, n).rows_list()
            if k % 4 == 1:
                rows[0][0] = RatFunc.zero()  # the first pivot needs a row swap
            if k % 4 == 2 and n > 1:
                rows[-1] = [a + Z * b for a, b in zip(rows[0], rows[1])]  # singular
            m = Mat(rows)
            d = m.det()
            assert d == leibniz_det(m)
            kinds.add(("zero lead" if m[0, 0].is_zero() else "lead", d.is_zero()))
    assert kinds == {("zero lead", True), ("zero lead", False), ("lead", True), ("lead", False)}


def test_rref_matches_sympy_on_rank_deficient_matrices():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def to_sympy(f):
        def poly(p):
            return sum(sympy.Rational(c.numerator, c.denominator) * z ** i for i, c in enumerate(p.coeffs))

        return poly(f.num) / poly(f.den)

    rng = random.Random(12)
    ranks = []
    for _ in range(8):
        n, m = rng.randint(2, 4), rng.randint(3, 5)
        r = min(n, m) - 1
        a = rand_ratfunc_mat(rng, n, r) * rand_ratfunc_mat(rng, r, m)
        R, pivots = a.rref()
        ranks.append(len(pivots))
        S, spivots = sympy.Matrix([[to_sympy(e) for e in row] for row in a.data]).rref(
            iszerofunc=lambda e: sympy.cancel(e) == 0, simplify=sympy.cancel
        )
        assert pivots == tuple(spivots)
        assert len(pivots) <= r < min(n, m)
        for i in range(n):
            for j in range(m):
                assert sympy.cancel(S[i, j] - to_sympy(R[i, j])) == 0
    assert max(ranks) >= 3

    # the same reduction on Fraction rows, the field `hyper` solves over
    def frac_mat(n, m):
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.75 else Fraction(0)
                 for _ in range(m)] for _ in range(n)]

    def product(a, b):
        return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]

    cases = [[[Fraction(0)] * 4 for _ in range(3)], [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]]
    for _ in range(12):
        n, m = rng.randint(2, 5), rng.randint(3, 6)
        cases.append(product(frac_mat(n, min(n, m) - 1), frac_mat(min(n, m) - 1, m)))
    ranks = []
    for a in cases:
        n, m = len(a), len(a[0])
        rows = [list(r) for r in a]
        pivots, _ = _forward(rows, m)
        _back_reduce(rows, pivots)
        ranks.append(len(pivots))
        S, spivots = sympy.Matrix(a).rref()
        assert tuple(pivots) == spivots
        assert all(sympy.Rational(rows[i][j]) == S[i, j] for i in range(n) for j in range(m))
        kernel = _kernel_basis(rows, pivots, m, Fraction(0), Fraction(1))
        assert len(kernel) == m - len(pivots)
        for v in kernel:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    assert ranks[:2] == [0, 3] and max(ranks[2:]) >= 3
