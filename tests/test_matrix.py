import random

import pytest

from sl2rat.errors import SingularMatrix
from sl2rat.matrix import Mat, mat_from_strings
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


def test_kernel_solve_surface():
    from sl2rat.matrix import kernel_solve

    assert kernel_solve(Mat([[1, Z]])) == [(-Z, RatFunc.one())]
    assert kernel_solve(Mat([[1]]), Mat([[Z ** 2]])) == Mat([[Z ** 2]])
    with pytest.raises(ValueError):
        kernel_solve(Mat([[1], [1]]), Mat([[1], [2]]))
