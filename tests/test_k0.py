import random
from fractions import Fraction

import pytest

from helpers import build_corpus, random_invertible_T, random_rank1_extension
from sl2rat.errors import NotCasimir
from sl2rat.extension import ExtDatum, ext_build
from sl2rat.k0 import (
    K0Class,
    _cyclic_reduction,
    OpaqueKey,
    Rank1Key,
    composition_factors,
    devissage,
    find_rank1_quotient,
    find_rank1_sub,
    k0_add,
    k0_dim,
    k0_eq,
    k0_neg,
    serialize_rep,
)
from sl2rat.matrix import Mat
from sl2rat.monoidal import dual
from sl2rat.picard import pic_invariant, section
from sl2rat.poly import pi_mu
from sl2rat.ratfunc import RatFunc
from sl2rat.rep import casimir_from_L1, conjugate, direct_sum, is_casimir, rank1, require_casimir

Z = RatFunc.variable()


def b_unitriangular():
    return ext_build(ExtDatum(rank1(0, 1), rank1(0, 1), Mat([[1]]), Mat([[0]])))


def irreducible_2dim():
    return casimir_from_L1(0, Mat([[0, Z], [1, 0]]))


def test_find_rank1_sub_spec_examples():
    found = find_rank1_sub(rank1(2, Z - 1))
    assert found is not None
    w, lam = found
    assert w == (RatFunc.one(),) and lam == Z - 1

    found = find_rank1_sub(b_unitriangular())
    assert found is not None
    w, lam = found
    assert w == (RatFunc.one(), RatFunc.zero()) and lam == RatFunc.one()

    assert find_rank1_sub(irreducible_2dim()) is None


def test_find_rank1_sub_requires_casimir():
    gen = ext_build(ExtDatum(rank1(0, 1), rank1(0, 1), Mat([[0]]), Mat([[1]])))
    with pytest.raises(NotCasimir):
        find_rank1_sub(gen)


def test_find_rank1_quotient_spec_examples():
    found = find_rank1_quotient(b_unitriangular())
    assert found is not None
    p, lam = found
    # functional kills e1, reads the e2 coordinate
    assert p[0].is_zero() and not p[1].is_zero()
    assert lam == RatFunc.one()

    assert find_rank1_quotient(irreducible_2dim()) is None

    whole = find_rank1_quotient(rank1(0, Z))
    assert whole == ((RatFunc.one(),), Z)


def test_witnesses_verify():
    rng = random.Random(71)
    for _ in range(15):
        d = random_rank1_extension(rng)
        if not d.T.is_zero():
            continue  # sub/quotient search needs Casimir input
        w = ext_build(d)
        found = find_rank1_sub(w)
        assert found is not None
        vec, lam = found
        col = Mat.column(vec)
        assert w.B * col.shifted(1) == lam * col
        foundq = find_rank1_quotient(w)
        assert foundq is not None
        p, lamq = foundq
        row = Mat.row(p)
        assert row * w.B == lamq * row.shifted(1)


def casimir_corpus():
    """Casimir modules of dims 2 and 3: corpus modules and rank-1 extensions with T = 0."""
    rng = random.Random(76)
    exts = [ext_build(random_rank1_extension(rng)) for _ in range(15)]
    corpus = [r for r in build_corpus(seed=20240, count=120) if 2 <= r.dim <= 3]
    reps = [r for r in corpus + exts if is_casimir(r)]
    assert len(reps) >= 40 and {r.dim for r in reps} == {2, 3}
    return reps


def casimir_inverse_transpose(rep):
    """B(z)^{-T} read off the Casimir identity: A(z+1)^T / pi_mu(z+1)."""
    mu = require_casimir(rep)
    return (RatFunc.one() / RatFunc(pi_mu(mu).shifted(1))) * rep.A.shifted(1).transpose()


def test_sub_search_matches_the_dual_reference():
    # a rank-1 sub is searched as a quotient of B(z)^{-T}, read off the
    # Casimir identity as A(z+1)^T / pi_mu(z+1); the dual module, built
    # through internal Hom, is the independent reference for that matrix
    # and for the transported witness
    for rep in casimir_corpus():
        inverse_transpose = rep.B.inverse().transpose()
        assert casimir_inverse_transpose(rep) == inverse_transpose
        d = dual(rep)
        assert d.B == inverse_transpose
        found = find_rank1_quotient(d)
        expected = None
        if found is not None:
            q, lam_star = found
            expected = (q, RatFunc.one() / lam_star)
        assert find_rank1_sub(rep) == expected


def test_rank1_searches_invert_no_matrix(monkeypatch):
    reps = casimir_corpus() + [irreducible_2dim(), b_unitriangular()]
    calls = []
    inverse = Mat.inverse

    def counted(self):
        calls.append(self.shape)
        return inverse(self)

    monkeypatch.setattr(Mat, "inverse", counted)
    for rep in reps:
        find_rank1_sub(rep)
        find_rank1_quotient(rep)
        devissage(rep)
    assert calls == []


def test_cyclic_reduction_returns_the_inverse_krylov_matrix():
    # K = [v, phi v, ..., phi^(m-1) v] with phi v = B v(z+1); the reduction
    # returns c with phi^m v = K c, and K^-1 from the same elimination
    checked = 0
    for rep in casimir_corpus() + [irreducible_2dim()]:
        for B in (rep.B, casimir_inverse_transpose(rep)):
            m = B.nrows
            c, K_inv = _cyclic_reduction(B, seed=0)
            K = K_inv.inverse()
            v = K.col(0)
            unit = any(v == tuple(RatFunc.constant(int(i == j)) for i in range(m)) for j in range(m))
            vandermonde = v == tuple(Z ** i for i in range(m))
            linear = all(e.den.degree == 0 and e.num.degree <= 1 for e in v)
            assert unit or vandermonde or linear
            for i in range(m - 1):
                assert Mat.column(K.col(i + 1)) == B * Mat.column(K.col(i)).shifted(1)
            phi_m = B * Mat.column(K.col(m - 1)).shifted(1)
            assert phi_m == K * Mat.column(c)
            checked += 1
    assert checked >= 80


def test_composition_factors_spec_examples():
    keys, complete = composition_factors(rank1(Fraction(1, 2), Z))
    assert complete and keys == [Rank1Key(pic_invariant(Fraction(1, 2), Z))]

    keys, complete = composition_factors(b_unitriangular())
    assert complete
    assert keys == [Rank1Key(section(0)), Rank1Key(section(0))]

    keys, complete = composition_factors(irreducible_2dim())
    assert complete
    assert len(keys) == 1 and isinstance(keys[0], OpaqueKey)
    assert keys[0].certified_irreducible and keys[0].dim == 2 and keys[0].level == 0


def test_devissage_spec_examples():
    cls, tree = devissage(direct_sum(rank1(0, 1), rank1(1, 1)))
    assert cls.counts() == {Rank1Key(section(0)): 1, Rank1Key(section(1)): 1}

    gen = ext_build(ExtDatum(rank1(0, 1), rank1(0, 1), Mat([[0]]), Mat([[1]])))
    cls, tree = devissage(gen)
    assert cls.counts() == {Rank1Key(section(0)): 2}
    assert tree.components[0].exponent == 2
    assert len(tree.components[0].steps) == 2

    cls, tree = devissage(irreducible_2dim())
    (key, n), = cls.entries
    assert n == 1 and isinstance(key, OpaqueKey) and key.certified_irreducible
    assert tree.complete


def test_devissage_additivity_over_extensions():
    rng = random.Random(72)
    for _ in range(20):
        d = random_rank1_extension(rng)
        w = ext_build(d)
        total, _ = devissage(w)
        left, _ = devissage(d.left)
        right, _ = devissage(d.right)
        assert total == k0_add(left, right)
        if not d.T.is_zero():
            _, tree = devissage(w)
            assert len(tree.components[0].steps) == 2


def test_devissage_conjugation_invariance():
    rng = random.Random(73)
    for _ in range(10):
        w = ext_build(random_rank1_extension(rng))
        cls, _ = devissage(w)
        T = random_invertible_T(rng, w.dim, max_degree=1)
        cls2, _ = devissage(conjugate(w, T))
        assert cls == cls2


def test_k0_group_ops():
    a, _ = devissage(direct_sum(rank1(0, 1), rank1(1, Z)))
    b, _ = devissage(rank1(0, 1))
    assert k0_add(a, k0_neg(a)) == K0Class.zero()
    assert k0_dim(a) == 2 and k0_dim(k0_neg(b)) == -1
    assert k0_dim(k0_add(a, b)) == 3


def test_k0_eq_semantics():
    r_cls, _ = devissage(rank1(0, 1))
    o1 = OpaqueKey(Fraction(0), 2, "witness-a", True)
    o2 = OpaqueKey(Fraction(0), 2, "witness-b", True)
    o3 = OpaqueKey(Fraction(1), 2, "witness-c", True)
    mk = lambda pairs: K0Class.from_counts(dict(pairs))

    assert k0_eq(r_cls, r_cls) == "Equal"
    assert k0_eq(r_cls, mk([(Rank1Key(section(1)), 1)])) == "NotEqual"
    # distinct witnesses at the same (level, dim): could cancel -> Unknown
    assert k0_eq(mk([(o1, 1)]), mk([(o2, 1)])) == "Unknown"
    # nothing to pair against: definitely different
    assert k0_eq(mk([(o1, 1)]), K0Class.zero()) == "NotEqual"
    assert k0_eq(mk([(o1, 1)]), mk([(o3, 1)])) == "NotEqual"
    # mixed rank1 difference dominates
    assert k0_eq(mk([(o1, 1), (Rank1Key(section(0)), 1)]), mk([(o2, 1)])) == "NotEqual"


def test_dim2_certification_cross_check():
    # for dim 2, a missing sub certifies irreducibility; the quotient search must agree
    w = irreducible_2dim()
    assert find_rank1_sub(w) is None and find_rank1_quotient(w) is None


def test_serialize_rep_is_conjugation_sensitive():
    w = irreducible_2dim()
    t = random_invertible_T(random.Random(74), 2, max_degree=1)
    assert serialize_rep(w) != serialize_rep(conjugate(w, t))


def test_devissage_seed_determinism():
    w = ext_build(ExtDatum(rank1(0, Z), rank1(0, Z), Mat([[1]]), Mat([[0]])))
    c1, t1 = devissage(w, seed=0)
    c2, t2 = devissage(w, seed=0)
    assert c1 == c2 and t1.serialize() == t2.serialize()
    c3, _ = devissage(w, seed=5)
    assert c1 == c3  # class independent of the seed


def test_triangular_modules_always_split():
    # upper-triangular raising matrices have the coordinate line as a
    # submodule, so the search must never miss (existence is guaranteed)
    rng = random.Random(75)
    from helpers import random_nonzero_ratfunc
    from sl2rat.k0 import composition_factors

    for _ in range(12):
        mu = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        diag = [random_nonzero_ratfunc(rng) for _ in range(rng.randint(2, 3))]
        n = len(diag)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if j < i:
                    row.append(RatFunc.zero())
                elif j == i:
                    row.append(diag[i])
                else:
                    row.append(random_nonzero_ratfunc(rng) if rng.random() < 0.5 else RatFunc.zero())
            rows.append(row)
        w = casimir_from_L1(mu, Mat(rows))
        keys, complete = composition_factors(w)
        assert complete
        assert len(keys) == n
        expected = sorted(
            (pic_invariant(mu, d).lead, pic_invariant(mu, d).classes) for d in diag
        )
        got = sorted((k.invariant.lead, k.invariant.classes) for k in keys)
        assert got == expected
