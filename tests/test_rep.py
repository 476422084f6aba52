import dataclasses
import random
from fractions import Fraction

import pytest

from helpers import (
    build_corpus,
    random_casimir_from_L1,
    random_constant_casimir,
    random_invertible_T,
    random_nonzero_ratfunc,
    random_rank1_extension,
)
from sl2rat.errors import (
    LevelMismatch,
    LevelOutsideBaseField,
    NotARepresentation,
    NotCasimir,
    NotInvariant,
    PiMuIrreducible,
    SingularMatrix,
    SingularOperator,
)
from sl2rat import k0
from sl2rat.extension import ext_build
from sl2rat.factor import factor_poly
from sl2rat.matrix import Mat
from sl2rat.poly import Poly, pi_mu
from sl2rat.ratfunc import RatFunc
from sl2rat.rep import (
    Filtration,
    FiltrationStep,
    LevelComponent,
    RationalRep,
    canonical_filtration,
    casimir_from_L1,
    casimir_level,
    casimir_matrix,
    casimir_minpoly,
    classify_rank1,
    commutation_residual,
    conjugate,
    cyclic_orbit,
    direct_sum,
    level_decompose,
    level_shift,
    make_rep,
    poly_rank1,
    quotient_by_invariant_subspace,
    rank1,
    rationalize,
    restrict_to_invariant_subspace,
    validate,
)

Z = RatFunc.variable()
ZZ = RatFunc(Poly((0, -1, 1)))  # z(z - 1)


def t1_extension():
    """A = [[z(z-1), 1], [0, z(z-1)]], B = Id: the exponent-2 module."""
    zz = RatFunc(Poly((0, -1, 1)))
    A = Mat([[zz, 1], [0, zz]])
    return make_rep(A, Mat.identity(2))


def test_validate_spec_examples():
    rho_mu = rank1(Fraction(5, 2), 1)
    assert rho_mu.A == Mat([[RatFunc(pi_mu(Fraction(5, 2)))]])
    with pytest.raises(NotARepresentation) as exc:
        validate(RationalRep(2, Mat.identity(2), Mat.identity(2)))
    assert exc.value.residual == Mat.diag([RatFunc(Poly((0, 2)))] * 2)
    rank1(0, (Z - 1) / Z)  # validates


def test_casimir_matrix_spec_examples():
    assert casimir_matrix(rank1(3, Z + 5)) == Mat([[3]])
    assert casimir_matrix(t1_extension()) == Mat([[0, -1], [0, 0]])
    both = direct_sum(rank1(0, 1), rank1(1, 1))
    assert casimir_matrix(both) == Mat.diag([0, 1])


def test_casimir_minpoly_spec_examples():
    t = Poly.variable()
    assert casimir_minpoly(rank1(Fraction(-1, 4), Z)) == t + Fraction(1, 4)
    assert casimir_minpoly(t1_extension()) == t ** 2
    assert casimir_minpoly(direct_sum(rank1(0, 1), rank1(1, 1))) == t * (t - 1)


def test_level_decompose_spec_examples():
    comps = level_decompose(direct_sum(rank1(0, 1), rank1(1, 1)))
    assert [(c.level, c.exponent, c.rep.dim) for c in comps] == [(0, 1, 1), (1, 1, 1)]

    only = level_decompose(rank1(2, Z))
    assert len(only) == 1 and only[0].rep == rank1(2, Z)

    zz = RatFunc(Poly((0, -1, 1)))
    A = Mat.diag([zz, zz]) - Mat([[0, 2], [1, 0]])
    bad = make_rep(A, Mat.identity(2))
    with pytest.raises(LevelOutsideBaseField) as exc:
        level_decompose(bad)
    assert exc.value.factor == Poly.variable() ** 2 - 2


def test_level_decompose_reassembly():
    rep = direct_sum(direct_sum(rank1(0, Z), rank1(1, 1)), t1_extension())
    comps = level_decompose(rep)
    assert sum(c.rep.dim for c in comps) == rep.dim
    U = comps[0].basis
    for c in comps[1:]:
        U = U.hstack(c.basis)
    rebuilt = conjugate(rep, U.inverse())
    expected = comps[0].rep
    for c in comps[1:]:
        expected = direct_sum(expected, c.rep)
    assert rebuilt == expected


def test_canonical_filtration_spec_examples():
    comps = level_decompose(t1_extension())
    filt = canonical_filtration(comps[0])
    assert filt.length == 2
    assert [s.basis.ncols for s in filt.steps] == [1, 2]
    assert filt.quotient_dims() == (1, 1)
    # first step spans e1
    assert filt.steps[0].basis == Mat([[1], [0]])
    for s in filt.steps:
        assert casimir_level(s.quotient) == 0

    single = level_decompose(rank1(0, Z))[0]
    assert canonical_filtration(single).length == 1


def test_direct_sum():
    w = rank1(0, Z)
    s = direct_sum(w, rank1(1, 1))
    assert s.dim == 2
    assert casimir_matrix(s) == Mat.diag([0, 1])


def test_conjugate():
    w = t1_extension()
    assert conjugate(w, Mat.identity(2)) == w
    t = Z + 2
    r = rank1(1, (Z - 1))
    conj = conjugate(r, Mat([[t]]))
    assert conj == rank1(1, (Z - 1) * t / t.shifted(1))
    with pytest.raises(SingularMatrix):
        conjugate(w, Mat([[1, 1], [1, 1]]))


def test_conjugate_preserves_minpoly():
    rng = random.Random(31)
    for _ in range(10):
        rep = random_constant_casimir(rng, rng.randint(2, 3))
        T = random_invertible_T(rng, rep.dim, max_degree=1)
        assert casimir_minpoly(conjugate(rep, T)) == casimir_minpoly(rep)


def test_restrict_and_quotient_spec_examples():
    w = t1_extension()
    e1 = Mat([[1], [0]])
    sub = restrict_to_invariant_subspace(w, e1)
    assert sub == rank1(0, 1)
    quot = quotient_by_invariant_subspace(w, e1)
    assert quot == rank1(0, 1)
    whole = restrict_to_invariant_subspace(w, Mat.identity(2))
    assert whole == w
    with pytest.raises(NotInvariant):
        restrict_to_invariant_subspace(w, Mat([[0], [1]]))
    with pytest.raises(NotInvariant):
        quotient_by_invariant_subspace(w, Mat([[0], [1]]))


def test_rank1_spec_examples():
    assert rank1(3, 1).B == Mat([[1]])
    iso_target = rank1(0, (Z - 1) / Z)
    assert casimir_level(iso_target) == 0
    with pytest.raises(ValueError):
        rank1(0, RatFunc.zero())


def test_casimir_from_L1_spec_examples():
    assert casimir_from_L1(Fraction(7, 3), Mat([[1]])) == rank1(Fraction(7, 3), 1)
    w = casimir_from_L1(0, Mat([[0, Z], [1, 0]]))
    zz = RatFunc(Poly((0, -1, 1)))
    assert w.A == Mat([[0, zz], [Z, 0]])
    assert casimir_level(w) == 0
    with pytest.raises(SingularOperator):
        casimir_from_L1(0, Mat([[1, 1], [1, 1]]))


def test_level_shift():
    w = rank1(Fraction(1, 2), Z - 3)
    assert level_shift(w, Fraction(1, 2)) == w
    assert level_shift(rank1(0, 1), 5) == rank1(5, 1)
    shifted = level_shift(w, 4)
    assert casimir_level(shifted) == 4
    assert level_shift(shifted, Fraction(1, 2)) == w
    with pytest.raises(NotCasimir):
        level_shift(t1_extension(), 1)


def test_cyclic_orbit_spec_examples():
    r = random_nonzero_ratfunc(random.Random(1))
    assert cyclic_orbit(2, r, 0) == RatFunc.one()
    assert cyclic_orbit(Fraction(1, 3), RatFunc.one(), 2) == RatFunc.one()
    assert cyclic_orbit(0, RatFunc.one(), -1) == RatFunc(Poly((0, -1, 1)))


def test_cyclic_orbit_is_operator_orbit():
    # w_m for m >= 0 iterates the raising operator; m < 0 the lowering inverse path
    rng = random.Random(12)
    for mu in (Fraction(0), Fraction(2)):
        r = random_nonzero_ratfunc(rng)
        rep = rank1(mu, r)
        w = RatFunc.one()
        for m in range(0, 4):
            assert cyclic_orbit(mu, r, m) == w
            w = rep.B[0, 0] * w.shifted(1)
        w = RatFunc.one()
        lowering = rep.A[0, 0]
        for m in range(0, -4, -1):
            assert cyclic_orbit(mu, r, m) == w
            # w_{m-1} applies the lowering operator: A(z) w(z-1)
            w = lowering * w.shifted(-1)


def test_poly_rank1_families():
    four = poly_rank1("IV", Fraction(1, 2), 2)
    assert four.B == Mat([[2]])
    assert four.A == Mat([[RatFunc(pi_mu(Fraction(1, 2))) / 2]])

    two = poly_rank1("II", 2, 1)
    assert two.B == Mat([[Z - 1]])  # alpha_2 = z - 2 shifted

    with pytest.raises(PiMuIrreducible):
        poly_rank1("II", 1, 1)
    with pytest.raises(ValueError):
        poly_rank1("IV", 0, 0)


def test_rationalize_spec_examples():
    assert rationalize(poly_rank1("IV", Fraction(3, 4), 5)) == rank1(Fraction(3, 4), 5)
    assert rationalize(poly_rank1("I", 0, 1)) == rank1(0, Z * (Z + 1))
    for kind in ("I", "II", "III", "IV"):
        rep = rationalize(poly_rank1(kind, 2, -3))
        validate(rep)


def test_classify_rank1_spec_examples():
    assert classify_rank1(rank1(0, Z * (Z + 1))) == [("I", 1)]
    got = classify_rank1(rank1(Fraction(1, 2), RatFunc.constant(Fraction(7, 2))))
    assert got == [("IV", Fraction(7, 2))]
    # extra shift-trivial factor: zero 5 and pole 2 share the class of z
    messy = rank1(0, Z * (Z + 1) * (Z - 5) / (Z - 2))
    assert classify_rank1(messy) == [("I", 1)]
    # not from a polynomial module: unmatched pole class
    assert classify_rank1(rank1(0, 1 / (Z - Fraction(1, 3)))) == []


def test_constant_casimir_constructor_identity():
    rng = random.Random(77)
    for dim in (1, 2, 3):
        for _ in range(5):
            rows = [[RatFunc.constant(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
            C0 = Mat(rows)
            zz = RatFunc(Poly((0, -1, 1)))
            rep = make_rep(Mat.diag([zz] * dim) - C0, Mat.identity(dim))
            assert casimir_matrix(rep) == C0


def test_corpus_validates_and_minpoly_constant():
    # small sample here; the acceptance suite runs the full corpus
    for rep in build_corpus(seed=99, count=25):
        validate(rep)
        mp = casimir_minpoly(rep)
        assert mp.degree >= 1


def test_filtration_quotient_dims_two_one():
    # constant Casimir with a rank-1 nilpotent square-zero part: kernel of N
    # is 2-dimensional, so the quotient dims along the filtration are (2, 1)
    zz = RatFunc(Poly((0, -1, 1)))
    C0 = Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    rep = make_rep(Mat.diag([zz] * 3) - C0, Mat.identity(3))
    comps = level_decompose(rep)
    assert len(comps) == 1 and comps[0].exponent == 2
    filt = canonical_filtration(comps[0])
    assert filt.quotient_dims() == (2, 1)


def _devissage_corpus():
    rng = random.Random(31)
    modules = build_corpus(seed=20240, count=60)
    for _ in range(15):
        d = random_rank1_extension(rng)
        modules += [ext_build(d), d.left, d.right]
    return modules


def test_devissage_subquotients_pass_full_validation(monkeypatch):
    """Subquotients are built from their closure certificate; full validate agrees.

    The Casimir matrix the filtration reads off each component, carried or
    formed, must be the component's own.
    """
    built = []
    components = []

    def level_parts(comps):
        components.extend(comps)
        return [c.rep for c in comps]

    def recording(fn, parts):
        def wrapper(*args):
            out = fn(*args)
            built.extend(parts(out))
            return out

        return wrapper

    # the names k0 binds: level split, filtration, and the rank-1 splits
    parts_of = {
        "level_decompose": level_parts,
        "canonical_filtration": lambda filt: [s.quotient for s in filt.steps],
        "restrict_to_invariant_subspace": lambda rep: [rep],
        "quotient_by_invariant_subspace": lambda rep: [rep],
    }
    for name, parts in parts_of.items():
        monkeypatch.setattr(k0, name, recording(getattr(k0, name), parts))
    modules = _devissage_corpus()
    for rep in modules:
        k0.devissage(rep)
    assert len(built) > len(modules)
    for sub in built:
        validate(sub)
    assert len(components) >= len(modules)
    for comp in components:
        rep = comp.rep
        assert casimir_matrix(rep) == Mat.diag([ZZ] * rep.dim) - rep.A * rep.B.shifted(-1)


def _reference_level_decompose(rep):
    """The general path: kernel of (C - mu)^e for every level, then the restriction."""
    _, facs = factor_poly(casimir_minpoly(rep))
    C = casimir_matrix(rep)
    out = []
    for mu, e in sorted((-fac.coefficient(0), e) for fac, e in facs):
        M = C - Mat.diag([RatFunc.constant(mu)] * rep.dim)
        Me = Mat.identity(rep.dim)
        for _ in range(e):
            Me = Me * M
        basis = Mat.from_columns(Me.kernel())
        sub = restrict_to_invariant_subspace(rep, basis)
        out.append(LevelComponent(mu, e, basis, sub))
    return out


def _reference_quotient(rep, basis):
    """The quotient by conjugation: U^-1 B U(z+1) and U^-1 A U(z-1), U the basis completed by unit vectors."""
    k, n = basis.ncols, rep.dim
    candidates = basis.columns() + Mat.identity(n).columns()
    _, pivots = Mat.from_columns(candidates).rref()
    assert pivots[:k] == tuple(range(k))
    U = Mat.from_columns([candidates[j] for j in pivots])
    Uinv = U.inverse()
    Bn = Uinv * rep.B * U.shifted(1)
    An = Uinv * rep.A * U.shifted(-1)
    if any(not M[i, j].is_zero() for M in (An, Bn) for i in range(k, n) for j in range(k)):
        raise NotInvariant("column span is not closed under the operators")
    rng = range(k, n)
    return RationalRep(n - k, An.submatrix(rng, rng), Bn.submatrix(rng, rng))


def test_quotient_matches_conjugation_on_devissage_sub_witnesses(monkeypatch):
    """The block of one restriction equals the explicit conjugation on every sub that devissage splits off."""
    calls = []
    original = k0.quotient_by_invariant_subspace

    def recording(rep, basis):
        calls.append((rep, basis))
        return original(rep, basis)

    monkeypatch.setattr(k0, "quotient_by_invariant_subspace", recording)
    for rep in _devissage_corpus():
        k0.devissage(rep)
    assert len(calls) >= 20
    for rep, basis in calls:
        assert quotient_by_invariant_subspace(rep, basis) == _reference_quotient(rep, basis)
    w = t1_extension()
    for basis in (Mat([[1], [0]]), Mat([[0], [1]])):
        outcomes = []
        for quotient in (quotient_by_invariant_subspace, _reference_quotient):
            try:
                outcomes.append(quotient(w, basis))
            except NotInvariant:
                outcomes.append("NotInvariant")
        assert outcomes[0] == outcomes[1]


def _reference_filtration(comp):
    """The nested-kernel filtration V^i = ker N^i with quotients V^i / V^(i-1)."""
    rep = comp.rep
    N = casimir_matrix(rep) - Mat.diag([RatFunc.constant(comp.level)] * rep.dim)
    Np = Mat.identity(rep.dim)
    cols, steps = [], []
    for _ in range(comp.exponent):
        Np = Np * N
        candidates = cols + Np.kernel()
        _, pivots = Mat.from_columns(candidates).rref()
        prev = len(cols)
        cols = [candidates[j] for j in pivots]
        basis = Mat.from_columns(cols)
        sub = restrict_to_invariant_subspace(rep, basis)
        if prev:
            prefix = Mat.from_columns(Mat.identity(len(cols)).columns()[:prev])
            sub = _reference_quotient(sub, prefix)
        steps.append(FiltrationStep(basis, sub))
    return Filtration(comp.level, tuple(steps))


def test_level_and_filtration_shortcuts_match_general_path():
    modules = build_corpus(seed=20240, count=120)
    rng = random.Random(47)
    for _ in range(30):
        d = random_rank1_extension(rng)
        modules += [ext_build(d), d.left, d.right]
    modules.append(random_casimir_from_L1(rng, 4))  # the corpus has no scalar module of dim 4
    kinds = set()
    for rep in modules:
        comps = level_decompose(rep)
        assert comps == _reference_level_decompose(rep)
        for comp in comps:
            assert canonical_filtration(comp) == _reference_filtration(comp)
        if casimir_level(rep) is not None:
            kinds.add(("scalar", rep.dim))
        else:
            kinds.add("one level" if len(comps) == 1 else "several levels")
    assert {("scalar", d) for d in (1, 2, 3, 4)} | {"one level", "several levels"} <= kinds


def test_filtration_of_inconsistent_exponent_one_component_raises():
    # C is nilpotent but not 0 * Id, so exponent 1 cannot exhaust the module;
    # exponent 0 makes no step at all
    rep = t1_extension()
    for exponent in (1, 0):
        comp = LevelComponent(Fraction(0), exponent, Mat.identity(2), rep)
        with pytest.raises(ArithmeticError, match="filtration must exhaust the component"):
            canonical_filtration(comp)


def test_filtration_past_the_nilpotency_index_raises():
    # C - 0 vanishes on rank1(0, z) and squares to 0 on t1_extension(), so a
    # step past that index adds no column
    cases = [(rank1(0, Z), 2), (rank1(0, Z), 3), (t1_extension(), 3)]
    for rep, exponent in cases:
        comp = LevelComponent(Fraction(0), exponent, Mat.identity(rep.dim), rep)
        with pytest.raises(ArithmeticError, match="filtration step must add rank"):
            canonical_filtration(comp)


def test_filtration_of_a_component_at_another_level_raises_level_mismatch():
    # C = 0 * Id on rank1(0, z) and C is nilpotent on t1_extension(), so
    # ker(C - 5) = 0 and no filtration step exists
    for exponent in (1, 2):
        for rep in (rank1(0, Z), t1_extension()):
            comp = LevelComponent(Fraction(5), exponent, Mat.identity(rep.dim), rep)
            with pytest.raises(LevelMismatch):
                canonical_filtration(comp)


# -- the Casimir matrix a validated module carries ---------------------------------


def test_validated_module_carries_its_casimir_and_a_direct_one_forms_the_same():
    for rep in build_corpus(seed=20240, count=120):
        C = Mat.diag([ZZ] * rep.dim) - rep.A * rep.B.shifted(-1)
        assert rep.casimir == C
        direct = RationalRep(rep.dim, rep.A, rep.B)
        assert direct.casimir is None
        assert casimir_matrix(direct) == C
        assert direct.casimir is None  # formed on demand, never memoised


def test_carried_casimir_changes_no_equality_hash_repr_or_serialization():
    for rep in build_corpus(seed=20241, count=40):
        direct = RationalRep(rep.dim, rep.A, rep.B)
        assert rep.casimir is not None and direct.casimir is None
        assert rep == direct and hash(rep) == hash(direct)
        assert repr(rep) == repr(direct) and str(rep) == str(direct)
        assert k0.serialize_rep(rep) == k0.serialize_rep(direct)
        assert dataclasses.replace(rep, B=rep.B).casimir is None


def test_rank1_validate_decides_as_the_residual_and_both_determinants():
    rng = random.Random(83)
    pairs = []
    for _ in range(150):
        mu = rng.choice([Fraction(0), Fraction(1), Fraction(-1, 4), Fraction(2)])
        r = random_nonzero_ratfunc(rng)
        a = RatFunc(pi_mu(mu)) / r.shifted(-1)
        roll = rng.random()
        if roll < 0.15:
            a = RatFunc.zero()  # singular lowering operator
        elif roll < 0.3:
            r = RatFunc.zero()  # singular raising operator
        elif roll < 0.5:
            a = a * random_nonzero_ratfunc(rng)  # breaks the identity unless the factor is 1
        pairs.append((Mat([[a]]), Mat([[r]])))
    outcomes = set()
    for A, B in pairs:
        if not commutation_residual(A, B).is_zero():
            want = ("NotARepresentation", commutation_residual(A, B))
        elif A.det().is_zero() or B.det().is_zero():
            want = ("SingularOperator", None)
        else:
            want = ("ok", None)
        try:
            validate(RationalRep(1, A, B))
            got = ("ok", None)
        except NotARepresentation as exc:
            got = ("NotARepresentation", exc.residual)
        except SingularOperator:
            got = ("SingularOperator", None)
        assert got == want, (A, B)
        outcomes.add(got[0])
    assert outcomes == {"ok", "NotARepresentation"}  # a singular 1x1 pair never satisfies the identity


def test_unit_basis_filtration_equals_the_restriction_path(monkeypatch):
    import sl2rat.rep as rep_module

    rng = random.Random(53)
    data = [d for d in (random_rank1_extension(rng) for _ in range(60)) if not d.T.is_zero()]
    assert len(data) >= 10
    calls = []
    original = rep_module.restrict_to_invariant_subspace

    def recording(rep, basis):
        calls.append(basis)
        return original(rep, basis)

    monkeypatch.setattr(rep_module, "restrict_to_invariant_subspace", recording)
    for d in data:
        W = ext_build(d)
        (comp,) = level_decompose(W)
        assert comp.exponent == 2
        filt = canonical_filtration(comp)
        # ker(C - mu) = span(e_1), so the nested basis is the unit basis
        assert [step.basis for step in filt.steps] == [Mat([[1], [0]]), Mat.identity(2)]
        sub = original(W, Mat.identity(2))
        assert (sub.A, sub.B) == (W.A, W.B)
        blocks = [rep_module._diagonal_block(sub, 0, 1), rep_module._diagonal_block(sub, 1, 2)]
        assert [step.quotient for step in filt.steps] == blocks
    assert calls == []
