"""Command line front end: every library operation on representation files.

Deterministic, machine-first output: JSON by default (sorted keys, compact
separators), a plain text rendering with --format text.  Exit codes: 0 on
success, 1 on domain errors (with a structured diagnostic on stdout), 2 on
usage errors (argparse, unreadable input file).

Every subcommand is a function ``(doc, args) -> dict`` from the parsed input
document to the output document; ``args`` is read only for ``--seed``.  The
``COMMANDS`` table maps each subcommand name to its function and help text
(``pic`` and ``ext`` map each action name to a function) and drives both
argparse and dispatch: `execute` reads the document, runs the function,
emits the result and turns domain errors into diagnostics, each in one
place.  A field of the wrong JSON type or shape is an `InputError`, and
so is a zero r, r1, r2 (a rank-1 module) or f (solve-mult).

Commands import the library modules they run when they run, so a fresh
process answering `pic normalize` loads neither `rep` nor `matrix`, and only
`devissage` loads `k0` and `hyper`.  Module attributes are read at call time,
never bound into this module.

Representation documents are {"dim": m, "L1": [[...]], "Lm1": [[...]]}
with entries in the expression grammar; polynomial representations use the
same schema with polynomial entries.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple, Union

from . import __version__
from .errors import InputError, Sl2RatError

if TYPE_CHECKING:
    from .extension import ExtDatum
    from .k0 import FactorKey, K0Class
    from .matrix import Mat
    from .picard import PicInvariant
    from .ratfunc import RatFunc
    from .rep import RationalRep


def _load_doc(args) -> Any:
    if args.input is None or args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"sl2rat: cannot read input: {exc}", file=sys.stderr)
            raise SystemExit(2)
    try:
        return json.loads(text)
    except ValueError as exc:  # a decode error, or an integer past int's digit limit
        raise InputError(f"input is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError("input JSON nests too deeply") from None


def _need(doc: Dict, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"input document is missing field {key!r}")
    return doc[key]


def _int(doc: Dict, key: str, name: str) -> int:
    value = _need(doc, key)
    if type(value) is not int:  # JSON true/false are bools, not integers
        raise InputError(f"{name} must be an integer")
    return value


def _ratfunc(doc: Dict, key: str) -> RatFunc:
    from .parser import parse_ratfunc

    text = _need(doc, key)
    if not isinstance(text, str):
        raise InputError(f"field {key!r} must be a string")
    return parse_ratfunc(text)


def _nonzero_ratfunc(doc: Dict, key: str) -> RatFunc:
    """A field that must be a nonzero rational function: r of a rank-1 module, f of solve-mult."""
    value = _ratfunc(doc, key)
    if value.is_zero():
        raise InputError(f"field {key!r} must be a nonzero rational function")
    return value


def _matrix(doc: Dict, key: str) -> Mat:
    from .matrix import mat_from_strings

    rows = _need(doc, key)
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(isinstance(e, str) for e in row) for row in rows
    ):
        raise InputError(f"field {key!r} must be a list of lists of strings")
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise InputError(f"field {key!r} must be a non-empty matrix with rows of equal length")
    return mat_from_strings(rows)


def _operators(doc: Dict) -> Tuple[int, Mat, Mat]:
    """The declared dim, the lowering matrix (Lm1) and the raising matrix (L1)."""
    dim = _int(doc, "dim", "dim")
    A = _matrix(doc, "Lm1")
    B = _matrix(doc, "L1")
    if A.shape != (dim, dim) or B.shape != (dim, dim):
        raise InputError("declared dim disagrees with the matrices")
    return dim, A, B


def _rep_from_doc(doc: Dict) -> RationalRep:
    from .rep import RationalRep, validate

    return validate(RationalRep(*_operators(doc)))


def _pair(doc: Dict) -> Tuple[RationalRep, RationalRep]:
    return _rep_from_doc(_need(doc, "first")), _rep_from_doc(_need(doc, "second"))


def _rep_to_doc(rep) -> Dict:
    return {"dim": rep.dim, "L1": rep.B.to_strings(), "Lm1": rep.A.to_strings()}


def _invariant_to_doc(inv: PicInvariant) -> Dict:
    return {
        "level": str(inv.level),
        "lead": str(inv.lead),
        "classes": [[str(p), m] for p, m in inv.classes],
    }


def _key_to_doc(key: FactorKey) -> Dict:
    from .k0 import Rank1Key

    if isinstance(key, Rank1Key):
        doc = _invariant_to_doc(key.invariant)
        doc["kind"] = "rank1"
    else:
        doc = {
            "kind": "opaque",
            "level": str(key.level),
            "dim": key.dim,
            "witness": key.witness,
            "certified_irreducible": key.certified_irreducible,
        }
    return doc


def _class_to_doc(cls: K0Class) -> List[Dict]:
    return [{"coeff": n, "key": _key_to_doc(k)} for k, n in cls.entries]


def _parse_level(text) -> Fraction:
    """An exact rational such as -7/2, 0.25 or 1e-3, refused past the literal bound."""
    from .parser import MAX_LITERAL_DIGITS

    literal = str(text)
    if len(literal) > MAX_LITERAL_DIGITS:
        raise InputError(f"exact rational longer than {MAX_LITERAL_DIGITS} characters")
    exponent = re.search(r"[eE]([-+]?\d[\d_]*)", literal)
    if exponent and abs(int(exponent.group(1).replace("_", ""))) > MAX_LITERAL_DIGITS:
        raise InputError(f"exact rational with a decimal exponent beyond {MAX_LITERAL_DIGITS}")
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not an exact rational: {text!r}") from None


def _emit(args, doc: Dict) -> None:
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    elif "error" in doc:
        print(f"error: {doc['error']['type']}: {doc['error']['message']}")
    else:
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, str) and "\n" in value:
                print(f"{key}:")
                for line in value.rstrip("\n").split("\n"):
                    print(f"  {line}")
            elif isinstance(value, (list, dict, bool)):
                print(f"{key}: {json.dumps(value, sort_keys=True)}")
            else:
                print(f"{key}: {value}")


# -- commands: input document -> output document ------------------------------------


def _validate(doc, args):
    return {"ok": True, "dim": _rep_from_doc(doc).dim}


def _casimir(doc, args):
    from .rep import casimir_matrix

    return {"matrix": casimir_matrix(_rep_from_doc(doc)).to_strings()}


def _minpoly(doc, args):
    from .poly import format_poly
    from .rep import casimir_minpoly

    return {"minpoly": format_poly(casimir_minpoly(_rep_from_doc(doc)), "t")}


def _levels(doc, args):
    from .rep import level_decompose

    comps = level_decompose(_rep_from_doc(doc))
    return {"levels": [{"level": str(c.level), "exponent": c.exponent, "dim": c.rep.dim} for c in comps]}


def _filtration(doc, args):
    from .rep import canonical_filtration, level_decompose

    comps = level_decompose(_rep_from_doc(doc))
    if len(comps) != 1:
        raise InputError("filtration expects a single-level module; use `levels` first")
    filt = canonical_filtration(comps[0])
    return {
        "level": str(filt.level),
        "exponent": filt.length,
        "dims": [s.basis.ncols for s in filt.steps],
        "quotient_dims": list(filt.quotient_dims()),
    }


def _devissage(doc, args):
    from .k0 import devissage

    cls, tree = devissage(_rep_from_doc(doc), seed=args.seed)
    return {"class": _class_to_doc(cls), "tree": tree.serialize()}


def _tensor(doc, args):
    from .monoidal import tensor

    return _rep_to_doc(tensor(*_pair(doc)))


def _hom(doc, args):
    from .monoidal import internal_hom

    return _rep_to_doc(internal_hom(*_pair(doc)))


def _dual(doc, args):
    from .monoidal import dual

    return _rep_to_doc(dual(_rep_from_doc(doc)))


def _iso(doc, args):
    from .picard import iso_rank1

    first, second = _pair(doc)
    if first.dim != 1 or second.dim != 1:
        raise InputError("expected a one-dimensional module")
    result = iso_rank1(first, second)
    if result.intertwiner is None:
        return {"isomorphic": False, "reason": result.reason}
    return {"isomorphic": True, "intertwiner": str(result.intertwiner)}


def _classify_rank1(doc, args):
    from .rep import classify_rank1, require_casimir

    rep = _rep_from_doc(doc)
    if rep.dim != 1:
        raise InputError("classification applies to one-dimensional modules")
    kinds = classify_rank1(rep)
    return {"level": str(require_casimir(rep)), "kinds": [{"kind": k, "gamma": str(g)} for k, g in kinds]}


def _rationalize(doc, args):
    from .rep import PolynomialRep, rationalize

    return _rep_to_doc(rationalize(PolynomialRep(*_operators(doc))))


def _solve_add(doc, args):
    from .extension import solve_add_diff

    phi = solve_add_diff(_ratfunc(doc, "s"))
    return {"solvable": False} if phi is None else {"solvable": True, "phi": str(phi)}


def _solve_mult(doc, args):
    from .picard import solve_mult_diff

    t = solve_mult_diff(_nonzero_ratfunc(doc, "f"))
    return {"solvable": False} if t is None else {"solvable": True, "t": str(t)}


def _orbit(doc, args):
    from .poly import pi_mu
    from .ratfunc import RatFunc
    from .rep import cyclic_orbit

    mu = _parse_level(_need(doc, "level"))
    r = _nonzero_ratfunc(doc, "r")
    m = _int(doc, "m", "orbit index m")
    _check_orbit_size(r if m >= 0 else r / RatFunc(pi_mu(mu).shifted(1)), abs(m))
    return {"coefficient": str(cyclic_orbit(mu, r, m))}


def _check_orbit_size(f: RatFunc, k: int) -> None:
    """InputError when k shifted products of f would pass the parser's power bounds.

    The orbit is a product of k shifts f(z + j) with |j| <= k, checked like a
    power before any product is formed.  Degree: k times the larger degree
    of f, a constant counting as 1 since each of the k products is formed.
    Coefficients: write f = (A/a) / (B/b) with A, B integer polynomials of
    degree at most D and positive integers a, b, all of l1 norm at most 2^h
    (`_log2_height`).  A shift by j multiplies an l1 norm by at most
    (1 + |j|)^D, so both integer products have l1 norm at most 2^(k(h + DL))
    with L = ceil(log2(k + 1)).  The reduced numerator and denominator are
    integer factors of those products, of degree at most kD, so Mignotte's
    factor bound keeps their coefficients under 2^(kD) times that norm; the
    canonical form puts a^k or b^k and a leading coefficient over them,
    which adds at most kh bits.  In all, at most k(2h + D(L + 1)) bits.
    """
    from .parser import MAX_DEGREE, MAX_POWER_BITS, _log2_height

    degree = max(f.num.degree, f.den.degree)
    if k * max(degree, 1) > MAX_DEGREE:
        raise InputError(f"orbit of degree above {MAX_DEGREE}")
    if k * (2 * _log2_height(f) + degree * (k.bit_length() + 1)) > MAX_POWER_BITS:
        raise InputError(f"orbit with coefficients above {MAX_POWER_BITS} bits")


def _pic_pair(doc) -> PicInvariant:
    from .picard import pic_invariant

    return pic_invariant(_parse_level(_need(doc, "level")), _nonzero_ratfunc(doc, "r"))


def _pic_normalize(doc, args):
    return _invariant_to_doc(_pic_pair(doc))


def _pic_mul(doc, args):
    from .picard import pic_mul

    return _invariant_to_doc(pic_mul(_pic_pair(_need(doc, "first")), _pic_pair(_need(doc, "second"))))


def _pic_inv(doc, args):
    from .picard import pic_inverse

    return _invariant_to_doc(pic_inverse(_pic_pair(doc)))


def _ext_datum(doc) -> ExtDatum:
    from .extension import ExtDatum

    left = _rep_from_doc(_need(doc, "left"))
    right = _rep_from_doc(_need(doc, "right"))
    B1, T = _matrix(doc, "B1"), _matrix(doc, "T")
    try:
        return ExtDatum(left, right, B1, T)
    except ValueError as exc:  # B1 or T is not left.dim x right.dim
        raise InputError(str(exc)) from None


def _ext_build(doc, args):
    from .extension import ext_build

    return _rep_to_doc(ext_build(_ext_datum(doc)))


def _ext_casimir(doc, args):
    from .extension import ext_is_casimir

    casimir = ext_is_casimir(_ext_datum(doc))
    return {"casimir": casimir, "exponent": 1 if casimir else 2}


def _ext_class_eq(doc, args):
    from .extension import ext_class_equal
    from .rep import rank1

    mu = _parse_level(_need(doc, "level"))
    rho1 = rank1(mu, _nonzero_ratfunc(doc, "r1"))
    rho2 = rank1(mu, _nonzero_ratfunc(doc, "r2"))
    b1, b2 = _ratfunc(doc, "b1"), _ratfunc(doc, "b2")
    T1, T2 = _parse_level(_need(doc, "T1")), _parse_level(_need(doc, "T2"))
    return {"result": ext_class_equal(rho1, rho2, b1, b2, T1, T2)}


Command = Callable[[Any, argparse.Namespace], Dict]

# name -> (command, or action name -> command; help text)
COMMANDS: Dict[str, Tuple[Union[Command, Dict[str, Command]], str]] = {
    "validate": (_validate, "check the commutation identity and invertibility"),
    "casimir": (_casimir, "print the Casimir matrix"),
    "minpoly": (_minpoly, "minimal polynomial of the Casimir operator"),
    "levels": (_levels, "level decomposition summary"),
    "filtration": (_filtration, "canonical filtration of a single-level module"),
    "devissage": (_devissage, "Grothendieck class and certificate tree"),
    "tensor": (_tensor, "tensor product of two modules"),
    "hom": (_hom, "internal Hom of two modules"),
    "dual": (_dual, "dual module"),
    "iso": (_iso, "rank-1 isomorphism test with intertwiner"),
    "classify-rank1": (_classify_rank1, "match against the polynomial families"),
    "rationalize": (_rationalize, "rationalize a polynomial representation"),
    "solve-add": (_solve_add, "solve phi(z+1) - phi(z) = s(z)"),
    "solve-mult": (_solve_mult, "solve t(z)/t(z+1) = f(z)"),
    "orbit": (_orbit, "cyclic-orbit coefficient of a rank-1 module"),
    "pic": ({"normalize": _pic_normalize, "mul": _pic_mul, "inv": _pic_inv}, "Picard invariant operations"),
    "ext": ({"build": _ext_build, "casimir": _ext_casimir, "class-eq": _ext_class_eq}, "extension operations"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2rat",
        description="Exact computations with rational sl(2)-modules over Q(z).",
    )
    parser.add_argument("--version", action="version", version=f"sl2rat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(command, dict):
            p.add_argument("action", choices=tuple(command))
        p.add_argument("--input", help="input JSON file (default: stdin)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0, help="seed for devissage searches")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `execute` reuses; argparse keeps no state between parses."""
    return build_parser()


def execute(argv) -> int:
    args = _parser().parse_args(argv)
    command = COMMANDS[args.command][0]
    if isinstance(command, dict):
        command = command[args.action]
    code = 0
    try:
        out = command(_load_doc(args), args)
    except Sl2RatError as exc:
        out, code = {"error": exc.payload()}, 1
    except ValueError as exc:
        out, code = {"error": {"type": "ValueError", "message": str(exc)}}, 1
    _emit(args, out)
    return code


def main() -> None:
    raise SystemExit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
