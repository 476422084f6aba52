"""Output checks made apart from the library, run after the timed part.

The Casimir checks evaluate every matrix at sample points with plain
`Fraction` arithmetic read off the coefficient tuples; they use neither
`RatFunc` nor `Mat` operations.  The rank-1 and CLI checks redo the maths in
sympy: factorisation over Q grouped by shift class, substitution of the
returned witnesses, and partial fractions for the additive equation.  Each
checker returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

FMat = List[List[Fraction]]

# Candidate sample points; a point is skipped when a denominator vanishes there.
SAMPLE_POINTS = tuple(
    Fraction(n, d) for n, d in ((7, 3), (-11, 5), (13, 4), (-17, 6), (23, 7), (29, 9), (-31, 8), (37, 11))
)
POINTS_PER_CHECK = 2


# -- exact evaluation at a point ------------------------------------------------------


def _horner(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eval_entry(f, x: Fraction) -> Fraction:
    """f(x) for a RatFunc, read from its numerator and denominator coefficients."""
    den = _horner(f.den.coeffs, x)
    if den == 0:
        raise ZeroDivisionError
    return _horner(f.num.coeffs, x) / den


def eval_mat(m, x: Fraction) -> FMat:
    return [[eval_entry(e, x) for e in row] for row in m.data]


def _mul(a: FMat, b: FMat) -> FMat:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def _sub(a: FMat, b: FMat) -> FMat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _scalar_id(c: Fraction, n: int) -> FMat:
    return [[c if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _is_zero(a: FMat) -> bool:
    return all(x == 0 for row in a for x in row)


def _rank(a: FMat) -> int:
    rows = [list(r) for r in a]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _poly_at_matrix(coeffs: Sequence[Fraction], m: FMat) -> FMat:
    n = len(m)
    acc = _scalar_id(Fraction(0), n)
    for c in reversed(coeffs):
        acc = _mul(acc, m)
        acc = [[acc[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return acc


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class _Point:
    """A rep's operators at z0 - 1, z0, z0 + 1."""

    def __init__(self, rep, z0: Fraction):
        self.z0 = z0
        self.n = rep.dim
        self.A = eval_mat(rep.A, z0)
        self.A_next = eval_mat(rep.A, z0 + 1)
        self.B = eval_mat(rep.B, z0)
        self.B_prev = eval_mat(rep.B, z0 - 1)

    def commutation_holds(self) -> bool:
        lhs = _sub(_mul(self.A, self.B_prev), _mul(self.B, self.A_next))
        return lhs == _scalar_id(-2 * self.z0, self.n)

    def casimir(self) -> FMat:
        return _sub(_scalar_id(self.z0 * (self.z0 - 1), self.n), _mul(self.A, self.B_prev))


def _points(reps, extra=()) -> List[Fraction]:
    """The first sample points where every rep and extra matrix evaluates."""
    out = []
    for z0 in SAMPLE_POINTS:
        try:
            for rep in reps:
                _Point(rep, z0)
            for m in extra:
                eval_mat(m, z0)
        except ZeroDivisionError:
            continue
        out.append(z0)
        if len(out) == POINTS_PER_CHECK:
            break
    return out


# -- casimir_corpus ----------------------------------------------------------------


def check_casimir(rep, out) -> List[str]:
    """out = (validated rep, minpoly, [LevelComponent], [Filtration])."""
    validated, mp, comps, filts = out
    problems: List[str] = []
    if validated is not rep and validated != rep:
        problems.append("validate returned a different module")
    n = rep.dim
    mpc = mp.coeffs
    if not mpc or mpc[-1] != 1 or not 1 <= len(mpc) - 1 <= n:
        problems.append(f"minimal polynomial {mp} is not monic of degree 1..{n}")
    expected = [Fraction(1)]
    for c in comps:
        for _ in range(c.exponent):
            expected = _poly_mul(expected, [-c.level, Fraction(1)])
    if tuple(expected) != tuple(mpc):
        problems.append("levels with exponents do not multiply out to the minimal polynomial")
    if sum(c.basis.ncols for c in comps) != n or sum(c.rep.dim for c in comps) != n:
        problems.append("component dimensions do not sum to the module dimension")
    if len(filts) != len(comps):
        problems.append("one filtration per component expected")
        return problems
    reps = [rep] + [c.rep for c in comps] + [s.quotient for f in filts for s in f.steps]
    bases = [c.basis for c in comps]
    points = _points(reps, bases)
    if len(points) < POINTS_PER_CHECK:
        problems.append("no sample point avoids every pole")
        return problems
    for z0 in points:
        at = _Point(rep, z0)
        if not at.commutation_holds():
            problems.append(f"commutation identity fails at z={z0}")
        C = at.casimir()
        if not _is_zero(_poly_at_matrix(mpc, C)):
            problems.append(f"mp(C(z0)) != 0 at z={z0}")
        for comp, filt in zip(comps, filts):
            mu, e = comp.level, comp.exponent
            N = _sub(C, _scalar_id(mu, n))
            basis = eval_mat(comp.basis, z0)
            if _rank(basis) != comp.basis.ncols:
                problems.append(f"component basis at level {mu} loses rank at z={z0}")
            power = _scalar_id(Fraction(1), n)
            for _ in range(e):
                power = _mul(power, N)
            if not _is_zero(_mul(power, basis)):
                problems.append(f"component basis not in ker(C - {mu})^{e} at z={z0}")
            sub = _Point(comp.rep, z0)
            if not sub.commutation_holds():
                problems.append(f"component at level {mu} is not a module at z={z0}")
            steps = filt.steps
            dims = [s.quotient.dim for s in steps]
            if filt.level != mu or len(steps) != e:
                problems.append(f"filtration at level {mu} has {len(steps)} steps, exponent {e}")
            if any(a < b for a, b in zip(dims, dims[1:])) or sum(dims) != comp.rep.dim:
                problems.append(f"filtration quotient dims {dims} not non-increasing summing to {comp.rep.dim}")
            for step in steps:
                q = _Point(step.quotient, z0)
                if not q.commutation_holds() or q.casimir() != _scalar_id(mu, q.n):
                    problems.append(f"filtration quotient at level {mu} is not Casimir mu*Id at z={z0}")
    return problems


# -- sympy helpers -------------------------------------------------------------------
#
# Rational functions live in sympy's field Q(z) (`sympy.field`), whose elements
# are kept reduced, so equality is a plain comparison.  Documents and
# responses are read into it by evaluating their text with every integer
# literal made a rational, which is all the grammar needs.

_FIELD = None


def _field():
    """(field, z); sympy is imported on first use, never before the timed part ends."""
    global _FIELD
    if _FIELD is None:
        import sympy

        _FIELD = sympy.field("z", sympy.QQ)
    return _FIELD


_INT_LITERAL = re.compile(r"(?<![\^\d])(\d+)")


def _evaluate(text: str, number, z):
    """Evaluate document text (the CLI grammar) with each integer literal made number(n).

    The text comes from the benchmark's own generator or from the CLI's
    output; evaluation gets no builtins.
    """
    code = _INT_LITERAL.sub(r"Q(\1)", text).replace("^", "**")
    return eval(code, {"__builtins__": {}}, {"Q": number, "z": z})


def _at(text: str, z0: Fraction) -> Fraction:
    """The document expression `text` evaluated at z0 with Fractions."""
    return _evaluate(text, Fraction, z0)


def sp_parse(text: str, shift: int = 0):
    """The rational function a document writes as `text`, at z + shift, in sympy's Q(z)."""
    K, z = _field()
    return _evaluate(text, K, z + shift)


def sp_from_ratfunc(f):
    """A library RatFunc rebuilt in sympy's field from its coefficient tuples."""
    K, z = _field()
    num = sum((K(c.numerator) / c.denominator * z ** k for k, c in enumerate(f.num.coeffs)), K.zero)
    den = sum((K(c.numerator) / c.denominator * z ** k for k, c in enumerate(f.den.coeffs)), K.zero)
    return num / den


def _frac(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _ascending(poly) -> Tuple[Fraction, ...]:
    return tuple(_frac(c) for c in reversed(poly.to_dense()))


def _canonical_class(f) -> Tuple[Tuple[Fraction, ...], int]:
    """Monic irreducible f -> (coefficients of its shift with mean of roots in [0, 1), offset)."""
    dense = f.to_dense()
    d = len(dense) - 1
    a = math.floor(-_frac(dense[1]) / d)
    x = f.ring.gens[0]
    return _ascending(f.compose(x, x + a)), a


def sp_invariant(F) -> Tuple[Fraction, Dict[Tuple[Fraction, ...], int]]:
    """(leading ratio, net multiplicity per canonical shift class) of a nonzero F."""
    classes: Dict[Tuple[Fraction, ...], int] = {}
    lead = _frac(F.numer.LC) / _frac(F.denom.LC)
    for poly, sign in ((F.numer, 1), (F.denom, -1)):
        if poly.degree() < 1:
            continue
        for fac, mult in poly.factor_list()[1]:
            key, _ = _canonical_class(fac.monic())
            classes[key] = classes.get(key, 0) + sign * mult
    return lead, {k: m for k, m in classes.items() if m != 0}


def sp_summable(F) -> bool:
    """Does phi(z+1) - phi(z) = F have a rational solution?  Residues per shift class.

    The principal parts a(z)/q(z)^j of F at every monic irreducible q are
    moved to the canonical representative of q's shift class; a solution
    exists iff the moved numerators sum to zero for every class and order j.
    The polynomial part always telescopes.
    """
    den = F.denom.monic()
    if den.degree() < 1:
        return True
    rem = (F.numer % F.denom).quo_ground(F.denom.LC)  # F - poly part = rem / den
    x = den.ring.gens[0]
    sums: Dict[Tuple[Tuple[Fraction, ...], int], object] = {}
    for q, e in den.factor_list()[1]:
        q = q.monic()
        key, offset = _canonical_class(q)
        qe = q ** e
        inverse, _, one = den.exquo(qe).gcdex(qe)
        if one != 1:
            raise ValueError("cofactor is not prime to the factor power")
        c = (rem * inverse) % qe
        for j in range(e, 0, -1):  # c = sum_j a_j q^(e-j), deg a_j < deg q
            c, a = c.div(q)
            sums[(key, j)] = sums.get((key, j), 0) + a.compose(x, x + offset)
    return all(v == 0 for v in sums.values())


def _rank1_level(doc: Dict):
    """(level, raising function text) of a one-dimensional representation document.

    The Casimir z(z-1) - A(z) r(z-1) is evaluated at two sample points; a
    rank-1 module's Casimir is a constant, so the two values must agree.
    """
    r = doc["L1"][0][0]
    values = []
    for z0 in SAMPLE_POINTS:
        try:
            values.append(z0 * (z0 - 1) - _at(doc["Lm1"][0][0], z0) * _at(r, z0 - 1))
        except ZeroDivisionError:
            continue
        if len(values) == POINTS_PER_CHECK:
            break
    if len(values) != POINTS_PER_CHECK or len(set(values)) != 1:
        raise ValueError("document is not a Casimir rank-1 module")
    return values[0], r


def _invariant_doc_matches(doc: Dict, level: Fraction, F) -> bool:
    lead, classes = sp_invariant(F)
    got = {_ascending(sp_parse(p).numer.monic()): m for p, m in doc["classes"]}
    return Fraction(doc["level"]) == level and Fraction(doc["lead"]) == lead and got == classes


# -- devissage_ext ---------------------------------------------------------------------


def _counts(cls) -> Dict:
    return dict(cls.entries)


def _rank1_key_matches(key, level: Fraction, r) -> bool:
    inv = getattr(key, "invariant", None)
    if inv is None:
        return False
    lead, classes = sp_invariant(sp_from_ratfunc(r))
    got = {p.coeffs: m for p, m in inv.classes}
    return inv.level == level and inv.lead == lead and got == classes


def check_devissage(case, out) -> List[str]:
    """out = (W, class of W, tree of W, class of W', class of W'')."""
    W, cls, tree, left_cls, right_cls = out
    d = case.datum
    problems: List[str] = []
    total = _counts(left_cls)
    for k, n in right_cls.entries:
        total[k] = total.get(k, 0) + n
    if _counts(cls) != {k: n for k, n in total.items() if n != 0}:
        problems.append("[W] != [W'] + [W'']")
    if sum(k.dim * n for k, n in cls.entries) != W.dim:
        problems.append("key dimensions of [W] do not add up to dim W")
    if W.dim != d.left.dim + d.right.dim:
        problems.append("built module has the wrong dimension")
    if not d.T.is_zero() and (len(tree.components) != 1 or len(tree.components[0].steps) != 2):
        problems.append("T != 0 but the tree is not one component with two filtration steps")
    for side, side_cls in (("W'", left_cls), ("W''", right_cls)):
        rep = d.left if side == "W'" else d.right
        if len(side_cls.entries) != 1 or side_cls.entries[0][1] != 1:
            problems.append(f"[{side}] is not a single rank-1 key")
        elif not _rank1_key_matches(side_cls.entries[0][0], case.level, rep.B[0, 0]):
            problems.append(f"Rank1Key of {side} differs from the sympy Picard invariant")
    points = _points([W])
    if len(points) < POINTS_PER_CHECK:
        problems.append("no sample point avoids every pole")
    for z0 in points:
        if not _Point(W, z0).commutation_holds():
            problems.append(f"built module fails the commutation identity at z={z0}")
    return problems


# -- rank1_cli ------------------------------------------------------------------------


def check_cli(req, out) -> List[str]:
    """out = (exit code, stdout).  Goldens compare byte for byte; the rest by sympy."""
    code, stdout = out
    if req.golden is not None:
        problems = []
        if code != req.expected_exit:
            problems.append(f"exit {code}, golden says {req.expected_exit}")
        if stdout != req.golden:
            problems.append("stdout differs from the golden")
        return problems
    if code != 0:
        return [f"exit {code}: {stdout.strip()[:200]}"]
    return _CLI_CHECKS[req.name](json.loads(req.doc), json.loads(stdout))


def _check_iso(doc, resp) -> List[str]:
    mu1, t1 = _rank1_level(doc["first"])
    mu2, t2 = _rank1_level(doc["second"])
    r1, r2 = sp_parse(t1), sp_parse(t2)
    if resp["isomorphic"]:
        t = sp_parse(resp["intertwiner"])
        if t == 0 or r2 * sp_parse(resp["intertwiner"], 1) != t * r1:
            return ["intertwiner fails r2(z) t(z+1) = t(z) r1(z)"]
        return [] if mu1 == mu2 else ["isomorphism claimed across levels"]
    if resp["reason"] == "LevelMismatch":
        return [] if mu1 != mu2 else ["LevelMismatch claimed for equal levels"]
    if mu1 != mu2:
        return ["levels differ but the reason is not LevelMismatch"]
    return ["equal sympy invariants but not isomorphic"] if sp_invariant(r1) == sp_invariant(r2) else []


def _check_pic_normalize(doc, resp) -> List[str]:
    ok = _invariant_doc_matches(resp, Fraction(doc["level"]), sp_parse(doc["r"]))
    return [] if ok else ["invariant differs from the sympy invariant"]


def _check_pic_mul(doc, resp) -> List[str]:
    a, b = doc["first"], doc["second"]
    level = Fraction(a["level"]) + Fraction(b["level"])
    ok = _invariant_doc_matches(resp, level, sp_parse(a["r"]) * sp_parse(b["r"]))
    return [] if ok else ["product invariant differs from the sympy invariant of r1*r2"]


def _check_solve_add(doc, resp) -> List[str]:
    s = sp_parse(doc["s"])
    if resp["solvable"]:
        ok = sp_parse(resp["phi"], 1) - sp_parse(resp["phi"]) == s
        return [] if ok else ["phi(z+1) - phi(z) != s"]
    return ["sympy finds s summable"] if sp_summable(s) else []


def _check_solve_mult(doc, resp) -> List[str]:
    f = sp_parse(doc["f"])
    if resp["solvable"]:
        t = sp_parse(resp["t"])
        return [] if t != 0 and t / sp_parse(resp["t"], 1) == f else ["t(z)/t(z+1) != f"]
    lead, classes = sp_invariant(f)
    return ["sympy finds a solution (lead 1, every class nets to zero)"] if lead == 1 and not classes else []


def _family_bases(mu: Fraction) -> Dict[str, object]:
    """Raising functions of the rank-1 polynomial families at gamma = 1."""
    K, z = _field()
    bases = {"I": z ** 2 + z - K(mu.numerator) / mu.denominator, "IV": K.one}
    q = 1 + 4 * mu
    if q < 0:
        return bases
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        hi = (1 + Fraction(n, d)) / 2
        for kind, root in (("II", hi), ("III", 1 - hi)):
            bases[kind] = z + 1 - K(root.numerator) / root.denominator
    return bases


def _check_classify(doc, resp) -> List[str]:
    mu, r_text = _rank1_level(doc)
    if Fraction(resp["level"]) != mu:
        return ["wrong level"]
    lead, classes = sp_invariant(sp_parse(r_text))
    expected = {}
    for kind, base in _family_bases(mu).items():
        base_lead, base_classes = sp_invariant(base)
        if base_classes == classes:
            expected[kind] = lead / base_lead
    got = {k["kind"]: Fraction(k["gamma"]) for k in resp["kinds"]}
    return [] if got == expected else [f"kinds {got} differ from sympy matches {expected}"]


def _check_class_eq(doc, resp) -> List[str]:
    if doc["r1"] != doc["r2"]:
        raise ValueError("the class-eq check handles a shared carrier only")
    if Fraction(doc["T1"]) != Fraction(doc["T2"]):
        expected = "NotEqual"
    else:
        s = (sp_parse(doc["b1"]) - sp_parse(doc["b2"])) / sp_parse(doc["r1"])
        expected = "Equal" if sp_summable(s) else "NotEqual"
    return [] if resp["result"] == expected else [f"{resp['result']} but sympy decides {expected}"]


def _check_orbit(doc, resp) -> List[str]:
    """m >= 0: r(z)...r(z+m-1); m < 0: 1/(xi(z+m)...xi(z-1)) with xi = r/pi_mu(z+1)."""
    K, z = _field()
    mu = K(Fraction(doc["level"]).numerator) / Fraction(doc["level"]).denominator
    m = doc["m"]
    expected = K.one
    if m >= 0:
        for j in range(m):
            expected *= sp_parse(doc["r"], j)
    else:
        for j in range(m, 0):
            expected /= sp_parse(doc["r"], j) / ((z + j + 1) * (z + j) - mu)
    return [] if sp_parse(resp["coefficient"]) == expected else ["orbit coefficient differs"]


_CLI_CHECKS = {
    "iso": _check_iso,
    "pic-normalize": _check_pic_normalize,
    "pic-mul": _check_pic_mul,
    "solve-add": _check_solve_add,
    "solve-mult": _check_solve_mult,
    "classify-rank1": _check_classify,
    "ext-class-eq": _check_class_eq,
    "orbit": _check_orbit,
}
