"""Command line front end: every library operation on representation files.

Deterministic, machine-first output: JSON by default (sorted keys, compact
separators), a plain text rendering with --format text.  Exit codes: 0 on
success, 1 on domain errors (with a structured diagnostic on stdout), 2 on
usage errors (argparse, unreadable input file).

Representation documents are {"dim": m, "L1": [[...]], "Lm1": [[...]]}
with entries in the expression grammar; polynomial representations use the
same schema with polynomial entries.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Any, Dict, List

from . import __version__
from .errors import Sl2RatError
from .extension import ExtDatum, exponent_of, ext_build, ext_class_equal, ext_is_casimir, solve_add_diff
from .k0 import FactorKey, K0Class, Rank1Key, devissage
from .matrix import mat_from_strings
from .monoidal import dual, internal_hom, tensor
from .parser import parse_ratfunc
from .picard import PicInvariant, iso_rank1, pic_inverse, pic_invariant, pic_mul, solve_mult_diff
from .poly import format_poly
from .rep import (
    PolynomialRep,
    RationalRep,
    canonical_filtration,
    casimir_matrix,
    casimir_minpoly,
    classify_rank1,
    cyclic_orbit,
    level_decompose,
    rationalize,
    validate,
)


class InputError(Sl2RatError):
    """Malformed input document."""

    code = "InputError"


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
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from None


def _need(doc: Dict, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"input document is missing field {key!r}")
    return doc[key]


def _rep_from_doc(doc: Dict) -> RationalRep:
    dim = _need(doc, "dim")
    l1 = _need(doc, "L1")
    lm1 = _need(doc, "Lm1")
    A = mat_from_strings(lm1)
    B = mat_from_strings(l1)
    if A.nrows != dim or B.nrows != dim:
        raise InputError("declared dim disagrees with the matrices")
    return validate(RationalRep(dim, A, B))


def _poly_rep_from_doc(doc: Dict) -> PolynomialRep:
    dim = _need(doc, "dim")
    A = mat_from_strings(_need(doc, "Lm1"))
    B = mat_from_strings(_need(doc, "L1"))
    return PolynomialRep(dim, A, B)


def _rep_to_doc(rep) -> Dict:
    return {"dim": rep.dim, "L1": rep.B.to_strings(), "Lm1": rep.A.to_strings()}


def _invariant_to_doc(inv: PicInvariant) -> Dict:
    return {
        "level": str(inv.level),
        "lead": str(inv.lead),
        "classes": [[str(p), m] for p, m in inv.classes],
    }


def _key_to_doc(key: FactorKey) -> Dict:
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
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not an exact rational: {text!r}") from None


def _emit(args, doc: Dict) -> None:
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
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


# -- command implementations ----------------------------------------------------


def _cmd_validate(args):
    rep = _rep_from_doc(_load_doc(args))
    _emit(args, {"ok": True, "dim": rep.dim})


def _cmd_casimir(args):
    rep = _rep_from_doc(_load_doc(args))
    _emit(args, {"matrix": casimir_matrix(rep).to_strings()})


def _cmd_minpoly(args):
    rep = _rep_from_doc(_load_doc(args))
    _emit(args, {"minpoly": format_poly(casimir_minpoly(rep), "t")})


def _cmd_levels(args):
    rep = _rep_from_doc(_load_doc(args))
    comps = level_decompose(rep)
    _emit(
        args,
        {
            "levels": [
                {"level": str(c.level), "exponent": c.exponent, "dim": c.rep.dim}
                for c in comps
            ]
        },
    )


def _cmd_filtration(args):
    rep = _rep_from_doc(_load_doc(args))
    comps = level_decompose(rep)
    if len(comps) != 1:
        raise InputError("filtration expects a single-level module; use `levels` first")
    filt = canonical_filtration(comps[0])
    _emit(
        args,
        {
            "level": str(filt.level),
            "exponent": filt.length,
            "dims": [s.basis.ncols for s in filt.steps],
            "quotient_dims": list(filt.quotient_dims()),
        },
    )


def _cmd_devissage(args):
    rep = _rep_from_doc(_load_doc(args))
    cls, tree = devissage(rep, seed=args.seed)
    _emit(args, {"class": _class_to_doc(cls), "tree": tree.serialize()})


def _cmd_tensor(args):
    doc = _load_doc(args)
    r1 = _rep_from_doc(_need(doc, "first"))
    r2 = _rep_from_doc(_need(doc, "second"))
    _emit(args, _rep_to_doc(tensor(r1, r2)))


def _cmd_hom(args):
    doc = _load_doc(args)
    r1 = _rep_from_doc(_need(doc, "first"))
    r2 = _rep_from_doc(_need(doc, "second"))
    _emit(args, _rep_to_doc(internal_hom(r1, r2)))


def _cmd_dual(args):
    rep = _rep_from_doc(_load_doc(args))
    _emit(args, _rep_to_doc(dual(rep)))


def _pic_pair(doc) -> PicInvariant:
    mu = _parse_level(_need(doc, "level"))
    r = parse_ratfunc(_need(doc, "r"))
    return pic_invariant(mu, r)


def _cmd_pic(args):
    doc = _load_doc(args)
    if args.action == "normalize":
        inv = _pic_pair(doc)
    elif args.action == "inv":
        inv = pic_inverse(_pic_pair(doc))
    else:
        inv = pic_mul(_pic_pair(_need(doc, "first")), _pic_pair(_need(doc, "second")))
    _emit(args, _invariant_to_doc(inv))


def _cmd_iso(args):
    doc = _load_doc(args)
    r1 = _rep_from_doc(_need(doc, "first"))
    r2 = _rep_from_doc(_need(doc, "second"))
    result = iso_rank1(r1, r2)
    if result.intertwiner is None:
        _emit(args, {"isomorphic": False, "reason": result.reason})
    else:
        _emit(args, {"isomorphic": True, "intertwiner": str(result.intertwiner)})


def _cmd_classify_rank1(args):
    rep = _rep_from_doc(_load_doc(args))
    kinds = classify_rank1(rep)
    from .rep import require_casimir

    _emit(
        args,
        {
            "level": str(require_casimir(rep)),
            "kinds": [{"kind": k, "gamma": str(g)} for k, g in kinds],
        },
    )


def _cmd_rationalize(args):
    prep = _poly_rep_from_doc(_load_doc(args))
    _emit(args, _rep_to_doc(rationalize(prep)))


def _cmd_solve_add(args):
    doc = _load_doc(args)
    s = parse_ratfunc(_need(doc, "s"))
    phi = solve_add_diff(s)
    if phi is None:
        _emit(args, {"solvable": False})
    else:
        _emit(args, {"solvable": True, "phi": str(phi)})


def _cmd_solve_mult(args):
    doc = _load_doc(args)
    f = parse_ratfunc(_need(doc, "f"))
    t = solve_mult_diff(f)
    if t is None:
        _emit(args, {"solvable": False})
    else:
        _emit(args, {"solvable": True, "t": str(t)})


def _ext_datum(doc) -> ExtDatum:
    left = _rep_from_doc(_need(doc, "left"))
    right = _rep_from_doc(_need(doc, "right"))
    B1 = mat_from_strings(_need(doc, "B1"))
    T = mat_from_strings(_need(doc, "T"))
    return ExtDatum(left, right, B1, T)


def _cmd_ext(args):
    doc = _load_doc(args)
    if args.action == "build":
        built = ext_build(_ext_datum(doc))
        _emit(args, _rep_to_doc(built))
    elif args.action == "casimir":
        datum = _ext_datum(doc)
        is_cas = ext_is_casimir(datum)
        _emit(args, {"casimir": is_cas, "exponent": exponent_of(ext_build(datum))})
    else:  # class-eq
        mu = _parse_level(_need(doc, "level"))
        from .rep import rank1

        rho1 = rank1(mu, parse_ratfunc(_need(doc, "r1")))
        rho2 = rank1(mu, parse_ratfunc(_need(doc, "r2")))
        result = ext_class_equal(
            rho1,
            rho2,
            parse_ratfunc(_need(doc, "b1")),
            parse_ratfunc(_need(doc, "b2")),
            _parse_level(_need(doc, "T1")),
            _parse_level(_need(doc, "T2")),
        )
        _emit(args, {"result": result})


def _cmd_orbit(args):
    doc = _load_doc(args)
    mu = _parse_level(_need(doc, "level"))
    r = parse_ratfunc(_need(doc, "r"))
    m = _need(doc, "m")
    if not isinstance(m, int):
        raise InputError("orbit index m must be an integer")
    _emit(args, {"coefficient": str(cyclic_orbit(mu, r, m))})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2rat",
        description="Exact computations with rational sl(2)-modules over Q(z).",
    )
    parser.add_argument("--version", action="version", version=f"sl2rat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", help="input JSON file (default: stdin)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0, help="seed for devissage searches")

    simple = {
        "validate": (_cmd_validate, "check the commutation identity and invertibility"),
        "casimir": (_cmd_casimir, "print the Casimir matrix"),
        "minpoly": (_cmd_minpoly, "minimal polynomial of the Casimir operator"),
        "levels": (_cmd_levels, "level decomposition summary"),
        "filtration": (_cmd_filtration, "canonical filtration of a single-level module"),
        "devissage": (_cmd_devissage, "Grothendieck class and certificate tree"),
        "tensor": (_cmd_tensor, "tensor product of two modules"),
        "hom": (_cmd_hom, "internal Hom of two modules"),
        "dual": (_cmd_dual, "dual module"),
        "iso": (_cmd_iso, "rank-1 isomorphism test with intertwiner"),
        "classify-rank1": (_cmd_classify_rank1, "match against the polynomial families"),
        "rationalize": (_cmd_rationalize, "rationalize a polynomial representation"),
        "solve-add": (_cmd_solve_add, "solve phi(z+1) - phi(z) = s(z)"),
        "solve-mult": (_cmd_solve_mult, "solve t(z)/t(z+1) = f(z)"),
        "orbit": (_cmd_orbit, "cyclic-orbit coefficient of a rank-1 module"),
    }
    for name, (fn, help_text) in simple.items():
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(fn=fn)

    pic = sub.add_parser("pic", help="Picard invariant operations")
    pic.add_argument("action", choices=("normalize", "mul", "inv"))
    common(pic)
    pic.set_defaults(fn=_cmd_pic)

    ext = sub.add_parser("ext", help="extension operations")
    ext.add_argument("action", choices=("build", "casimir", "class-eq"))
    common(ext)
    ext.set_defaults(fn=_cmd_ext)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `execute` reuses; argparse keeps no state between parses."""
    return build_parser()


def execute(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        args.fn(args)
    except Sl2RatError as exc:
        payload = exc.payload()
    except ValueError as exc:
        payload = {"type": "ValueError", "message": str(exc)}
    else:
        return 0
    doc = {"error": payload}
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(f"error: {payload.get('type')}: {payload.get('message')}")
    return 1


def main() -> None:
    raise SystemExit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
