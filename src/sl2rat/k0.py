"""Grothendieck-group classes and the staged devissage pipeline.

The class of a module is disassembled in three stages: split along the
roots of the Casimir minimal polynomial, refine each generalized component
through its canonical filtration, then extract composition factors of the
Casimir quotients by repeatedly splitting off one-dimensional submodules
(then quotients) found through cyclic-vector reduction and the
hypergeometric certificate search.  Both searches read only the raising
matrix: a rank-1 submodule is found as a rank-1 quotient of the raising
matrix B(z)^{-T} (the dual's, on a Casimir module), with no dual module
built.  The search inverts no matrix.  On a module of level mu the Casimir
identity A(z+1) B(z) = pi_mu(z+1) gives B(z)^{-T} = A(z+1)^T / pi_mu(z+1),
and the one elimination of the Krylov matrix K that yields the cyclic
reduction yields K^{-1} too.  Every split carries an exact witness; the
certificate tree serializes to a stable text form.

Factor keys are either Rank1 (a Picard invariant, faithful) or Opaque
(level, dimension, canonical serialization of a Casimir witness, with an
irreducibility certificate for dimensions <= 3).  Opaque keys compare
syntactically: sound but incomplete, as deciding isomorphism of
higher-dimensional irreducibles is out of scope.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import CyclicVectorNotFound
from .hyper import hyper_search
from .matrix import Mat
from .picard import PicInvariant, pic_invariant
from .poly import Poly, pi_mu, poly_gcd, poly_lcm
from .ratfunc import RatFunc
from .rep import (
    RationalRep,
    canonical_filtration,
    level_decompose,
    quotient_by_invariant_subspace,
    require_casimir,
    restrict_to_invariant_subspace,
)

MAX_CYCLIC_ATTEMPTS = 32


# -- factor keys and K0 classes ---------------------------------------------------


@dataclass(frozen=True)
class Rank1Key:
    invariant: PicInvariant

    @property
    def level(self) -> Fraction:
        return self.invariant.level

    @property
    def dim(self) -> int:
        return 1

    def serialize(self) -> str:
        inv = self.invariant
        cls = ",".join(f"{p}:{m:+d}" for p, m in inv.classes)
        return f"rank1(level={inv.level},lead={inv.lead},classes=[{cls}])"


@dataclass(frozen=True)
class OpaqueKey:
    level: Fraction
    dim: int
    witness: str
    certified_irreducible: bool

    def serialize(self) -> str:
        cert = "certified" if self.certified_irreducible else "uncertified"
        return f"opaque(level={self.level},dim={self.dim},{cert},witness={self.witness})"


FactorKey = Union[Rank1Key, OpaqueKey]


def key_sort_key(key: FactorKey):
    return (key.level, key.dim, key.serialize())


def serialize_rep(rep: RationalRep) -> str:
    l1 = ";".join(",".join(str(e) for e in row) for row in rep.B.data)
    lm1 = ";".join(",".join(str(e) for e in row) for row in rep.A.data)
    return f"dim={rep.dim}|L1=[{l1}]|Lm1=[{lm1}]"


@dataclass(frozen=True)
class K0Class:
    """Finitely supported integer combination of factor keys, canonically ordered."""

    entries: Tuple[Tuple[FactorKey, int], ...]

    @staticmethod
    def from_counts(counts: Dict[FactorKey, int]) -> "K0Class":
        items = [(k, n) for k, n in counts.items() if n != 0]
        items.sort(key=lambda kn: key_sort_key(kn[0]))
        return K0Class(tuple(items))

    @staticmethod
    def zero() -> "K0Class":
        return K0Class(())

    def counts(self) -> Dict[FactorKey, int]:
        return dict(self.entries)


def k0_add(a: K0Class, b: K0Class) -> K0Class:
    counts = a.counts()
    for k, n in b.entries:
        counts[k] = counts.get(k, 0) + n
    return K0Class.from_counts(counts)


def k0_neg(a: K0Class) -> K0Class:
    return K0Class.from_counts({k: -n for k, n in a.entries})


def k0_dim(a: K0Class) -> int:
    return sum(k.dim * n for k, n in a.entries)


def k0_eq(a: K0Class, b: K0Class) -> str:
    """"Equal" | "NotEqual" | "Unknown".

    Unknown exactly when deciding would hinge on whether Opaque keys with
    distinct serializations are isomorphic: the difference is supported on
    Opaque keys and every (level, dim) bucket of them sums to zero.
    """
    diff = k0_add(a, k0_neg(b))
    if not diff.entries:
        return "Equal"
    if any(isinstance(k, Rank1Key) for k, _ in diff.entries):
        return "NotEqual"
    buckets: Dict[Tuple[Fraction, int], int] = {}
    for k, n in diff.entries:
        buckets[(k.level, k.dim)] = buckets.get((k.level, k.dim), 0) + n
    if any(total != 0 for total in buckets.values()):
        return "NotEqual"
    return "Unknown"


# -- rank-1 submodule / quotient search ----------------------------------------------


def _cyclic_reduction(B: Mat, seed: int) -> Tuple[List[RatFunc], Mat]:
    """Coefficients c with phi^m v = sum c_i phi^i v, plus the inverse Krylov matrix.

    One rref of [K | phi^m v | Id] per attempt: K inverts exactly when the
    pivots are 0..m-1, and the reduced form is then [Id | K^-1 phi^m v | K^-1],
    so the Krylov elimination also yields K^-1 and the search inverts no
    matrix.  Constant vectors are not always cyclic (a scalar raising matrix
    fixes every constant line), so after the standard basis the search tries
    the Vandermonde-style vector (1, z, ..., z^(m-1)) and then seeded random
    vectors with linear polynomial entries.
    """
    m = B.nrows
    rng = random.Random(seed)
    candidates: List[Tuple[RatFunc, ...]] = [
        tuple(RatFunc.one() if i == j else RatFunc.zero() for i in range(m)) for j in range(m)
    ]
    candidates.append(tuple(RatFunc(Poly.monomial(1, i)) for i in range(m)))
    attempts = 0
    while attempts < MAX_CYCLIC_ATTEMPTS:
        if candidates:
            v = candidates.pop(0)
        else:
            v = tuple(
                RatFunc(Poly((rng.randint(-9, 9), rng.randint(-3, 3)))) for _ in range(m)
            )
        attempts += 1
        vecs = [Mat.column(v)]
        for _ in range(m):
            vecs.append(B * vecs[-1].shifted(1))
        krylov = Mat.from_columns([w.col(0) for w in vecs])  # [K | phi^m v]
        R, pivots = krylov.hstack(Mat.identity(m)).rref()
        if pivots != tuple(range(m)):
            continue
        return [R[i, m] for i in range(m)], R.submatrix(range(m), range(m + 1, 2 * m + 1))
    raise CyclicVectorNotFound(f"no cyclic vector after {MAX_CYCLIC_ATTEMPTS} attempts")


def _clear_denominators(fs: Sequence[RatFunc]) -> List[Poly]:
    """Numerators after multiplying every entry by the lcm of the denominators."""
    den = Poly.one()
    for f in fs:
        den = poly_lcm(den, f.den)
    return [(f * RatFunc(den)).as_poly() for f in fs]


def _quotient_search(B: Mat, seed: int) -> Tuple[Optional[Tuple[Tuple[RatFunc, ...], RatFunc]], int]:
    """Rank-1 quotient functional (p, lambda) with p(z) B(z) = lambda(z) p(z+1)."""
    m = B.nrows
    if m == 1:
        return ((RatFunc.one(),), B[0, 0]), 0
    c, K_inv = _cyclic_reduction(B, seed)
    if c[0].is_zero():
        # phi^m v in span of higher iterates only: cannot happen for automorphisms
        raise CyclicVectorNotFound("degenerate cyclic reduction")
    # f = X^m - sum c_i X^i with polynomial coefficients
    polys = _clear_denominators([-ci for ci in c] + [RatFunc.one()])
    xi, cap = hyper_search(polys)
    if xi is None:
        return None, cap
    # functional in the Krylov basis: (xi_0, ..., xi_{m-1}), xi_{i+1} = xi * xi_i(z+1)
    comp = [RatFunc.one()]
    for _ in range(m - 1):
        comp.append(xi * comp[-1].shifted(1))
    p_row = Mat.row(comp) * K_inv
    p = _normalize_covector(tuple(p_row.data[0]))
    pb = Mat.row(p) * B
    j = next(i for i, e in enumerate(p) if not e.is_zero())
    lam = pb[0, j] / p[j].shifted(1)
    if not all(pb[0, i] == lam * p[i].shifted(1) for i in range(m)):
        raise ArithmeticError("witness must verify")
    return (p, lam), cap


def _normalize_covector(v: Tuple[RatFunc, ...]) -> Tuple[RatFunc, ...]:
    nums = _clear_denominators(v)
    g = Poly.zero()
    for p in nums:
        g = poly_gcd(g, p)
    if not g.is_zero() and g.degree > 0:
        nums = [p // g for p in nums]
    lead = next(p.lead for p in nums if not p.is_zero())
    return tuple(RatFunc(p * (1 / lead)) for p in nums)


def find_rank1_quotient(rep: RationalRep, seed: int = 0):
    """(functional row, lambda) of a one-dimensional quotient, or None."""
    require_casimir(rep)
    found, _ = _quotient_search(rep.B, seed)
    return found


def find_rank1_sub(rep: RationalRep, seed: int = 0):
    """(vector w, lambda) with B(z) w(z+1) = lambda(z) w(z), or None.

    A submodule here is a rank-1 quotient of the raising matrix B(z)^{-T},
    which on a Casimir module is the dual's raising matrix; no dual module
    is built.  The witness moves back as w = q^T with lambda = 1/lambda*.
    """
    found, _ = _sub_search(rep, require_casimir(rep), seed)
    return found


def _sub_search(rep: RationalRep, mu: Fraction, seed: int):
    """`find_rank1_sub` on a Casimir module of level mu, plus the degree cap.

    At level mu, A(z+1) B(z) = pi_mu(z+1), so B(z)^{-T} = A(z+1)^T / pi_mu(z+1)
    with no elimination; the transported witness is checked against B itself.
    """
    dual_B = (RatFunc.one() / RatFunc(pi_mu(mu).shifted(1))) * rep.A.shifted(1).transpose()
    found, cap = _quotient_search(dual_B, seed)
    if found is None:
        return None, cap
    w, lam_star = found
    lam = RatFunc.one() / lam_star
    wcol = Mat.column(w)
    if rep.B * wcol.shifted(1) != lam * wcol:
        raise ArithmeticError("transported witness must verify")
    return (w, lam), cap


# -- composition factors and the devissage pipeline -------------------------------------


@dataclass(frozen=True)
class FactorLeaf:
    key: FactorKey
    via: str  # "whole" | "sub" | "quotient" | "leaf"
    witness: str


@dataclass(frozen=True)
class StepNode:
    index: int
    quotient_dim: int
    leaves: Tuple[FactorLeaf, ...]


@dataclass(frozen=True)
class ComponentNode:
    level: Fraction
    exponent: int
    dim: int
    steps: Tuple[StepNode, ...]


@dataclass(frozen=True)
class DevissageTree:
    dim: int
    components: Tuple[ComponentNode, ...]
    complete: bool

    def serialize(self) -> str:
        lines = [f"module dim={self.dim} complete={str(self.complete).lower()}"]
        for comp in self.components:
            lines.append(
                f"  component level={comp.level} exponent={comp.exponent} dim={comp.dim}"
            )
            for step in comp.steps:
                lines.append(
                    f"    filtration step={step.index} quotient-dim={step.quotient_dim}"
                )
                for leaf in step.leaves:
                    lines.append(f"      factor via={leaf.via} {leaf.key.serialize()}")
                    if leaf.witness:
                        lines.append(f"        witness {leaf.witness}")
        return "\n".join(lines) + "\n"


def _vector_text(v: Sequence[RatFunc]) -> str:
    return "(" + ", ".join(str(e) for e in v) + ")"


def _composition_leaves(rep: RationalRep, seed: int, mu: Fraction) -> Tuple[List[FactorLeaf], bool]:
    """Leaves of a Casimir module whose level `mu` the caller has certified.

    The leaves come bottom of the composition series first, with whether
    every leaf is a certified factor.
    """
    if rep.dim == 1:
        return [FactorLeaf(Rank1Key(pic_invariant(mu, rep.B[0, 0])), "whole", "")], True
    sub, sub_cap = _sub_search(rep, mu, seed)
    if sub is not None:
        w, lam = sub
        witness = f"w={_vector_text(w)} lambda={lam} cap={sub_cap}"
        leaf = FactorLeaf(Rank1Key(pic_invariant(mu, lam)), "sub", witness)
        quotient = quotient_by_invariant_subspace(rep, Mat.from_columns([w]))
        leaves, complete = _composition_leaves(quotient, seed, mu)
        return [leaf] + leaves, complete
    quot, quot_cap = _quotient_search(rep.B, seed)
    if quot is not None:
        p, lam = quot
        rest = restrict_to_invariant_subspace(rep, Mat.from_columns(Mat.row(p).kernel()))
        leaves, complete = _composition_leaves(rest, seed, mu)
        witness = f"p={_vector_text(p)} lambda={lam} cap={quot_cap}"
        leaf = FactorLeaf(Rank1Key(pic_invariant(mu, lam)), "quotient", witness)
        return leaves + [leaf], complete
    certified = rep.dim <= 3
    leaf = FactorLeaf(
        OpaqueKey(mu, rep.dim, serialize_rep(rep), certified),
        "leaf",
        f"no rank-1 sub or quotient (caps sub={sub_cap} quot={quot_cap})",
    )
    return [leaf], certified


def composition_factors(rep: RationalRep, seed: int = 0) -> Tuple[List[FactorKey], bool]:
    """Composition-factor keys of a Casimir module; complete for dim <= 3.

    A dim-3 module with neither a rank-1 sub nor a rank-1 quotient is
    irreducible (a proper submodule would have dim 1, or dim 2 with a
    rank-1 quotient above it), so leaves of dim <= 3 are certified.
    """
    leaves, complete = _composition_leaves(rep, seed, require_casimir(rep))
    return [leaf.key for leaf in leaves], complete


def devissage(rep: RationalRep, seed: int = 0) -> Tuple[K0Class, DevissageTree]:
    """Level split, canonical filtration, composition factors; class plus certificate."""
    counts: Dict[FactorKey, int] = {}
    comp_nodes: List[ComponentNode] = []
    complete = True
    for comp in level_decompose(rep):
        filtration = canonical_filtration(comp)
        steps: List[StepNode] = []
        for idx, step in enumerate(filtration.steps, start=1):
            # the filtration certified every quotient Casimir of this level
            leaves, ok = _composition_leaves(step.quotient, seed, filtration.level)
            complete = complete and ok
            for leaf in leaves:
                counts[leaf.key] = counts.get(leaf.key, 0) + 1
            steps.append(StepNode(idx, step.quotient.dim, tuple(leaves)))
        comp_nodes.append(ComponentNode(comp.level, comp.exponent, comp.rep.dim, tuple(steps)))
    tree = DevissageTree(rep.dim, tuple(comp_nodes), complete)
    cls = K0Class.from_counts(counts)
    if k0_dim(cls) != rep.dim:
        raise ArithmeticError("leaf dimensions must add up")
    return cls, tree
