"""Regenerate the CLI golden files.

Run from the repository root:  python3 tests/make_goldens.py
Inputs land in tests/data/, expected outputs in tests/goldens/.  The test
suite compares CLI output byte-for-byte against these files, so regenerate
only when an output format change is intended, and review the diff.

Each request runs in a fresh `python -m sl2rat.cli` with `src` first on its
PYTHONPATH.  Every output is collected before any is written: when a request
prints a traceback or fails to import the package, nothing is written and
the script exits with status 1.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, os.pardir, "src"))

sys.path.insert(0, SRC)

from sl2rat.cli import _rep_to_doc  # noqa: E402
from sl2rat.extension import ExtDatum, ext_build  # noqa: E402
from sl2rat.matrix import Mat  # noqa: E402
from sl2rat.ratfunc import RatFunc  # noqa: E402
from sl2rat.rep import direct_sum, rank1  # noqa: E402

Z = RatFunc.variable()

RHO0 = rank1(0, 1)
RHO1 = rank1(1, 1)
T1_EXT = ext_build(ExtDatum(RHO0, RHO0, Mat([[0]]), Mat([[1]])))
IRRED = {"dim": 2, "L1": [["0", "z"], ["1", "0"]], "Lm1": [["0", "z^2 - z"], ["z", "0"]]}

CASES = [
    # (name, argv, input document)
    ("validate_ok", ["validate"], _rep_to_doc(RHO0)),
    ("validate_fail", ["validate"], {"dim": 2, "L1": [["1", "0"], ["0", "1"]], "Lm1": [["1", "0"], ["0", "1"]]}),
    ("validate_text", ["validate", "--format", "text"], _rep_to_doc(RHO0)),
    ("casimir", ["casimir"], _rep_to_doc(T1_EXT)),
    ("minpoly", ["minpoly"], _rep_to_doc(direct_sum(RHO0, RHO1))),
    ("levels", ["levels"], _rep_to_doc(direct_sum(RHO0, RHO1))),
    ("levels_outside", ["levels"], {"dim": 2, "L1": [["1", "0"], ["0", "1"]], "Lm1": [["z^2 - z", "-2"], ["-1", "z^2 - z"]]}),
    ("filtration", ["filtration"], _rep_to_doc(T1_EXT)),
    ("devissage_sum", ["devissage"], _rep_to_doc(direct_sum(RHO0, RHO1))),
    ("devissage_ext", ["devissage"], _rep_to_doc(T1_EXT)),
    ("devissage_irred", ["devissage"], IRRED),
    ("devissage_text", ["devissage", "--format", "text"], _rep_to_doc(T1_EXT)),
    ("tensor", ["tensor"], {"first": _rep_to_doc(rank1(1, Z)), "second": _rep_to_doc(rank1(2, Z - 1))}),
    ("hom", ["hom"], {"first": _rep_to_doc(rank1(1, Z)), "second": _rep_to_doc(rank1(2, Z - 1))}),
    ("dual", ["dual"], _rep_to_doc(rank1(2, Z))),
    ("pic_normalize", ["pic", "normalize"], {"level": "0", "r": "2*(z - 1/2)/(z + 3/2)"}),
    ("pic_mul", ["pic", "mul"], {"first": {"level": "1/2", "r": "z"}, "second": {"level": "1", "r": "1/(z - 3)"}}),
    ("pic_inv", ["pic", "inv"], {"level": "2", "r": "z"}),
    ("pic_zero_error", ["pic", "normalize"], {"level": "0", "r": "1/(z - z)"}),
    ("iso_yes", ["iso"], {"first": _rep_to_doc(RHO0), "second": _rep_to_doc(rank1(0, (Z - 1) / Z))}),
    ("iso_invariant_mismatch", ["iso"], {"first": _rep_to_doc(RHO0), "second": _rep_to_doc(rank1(0, Z))}),
    ("iso_level_mismatch", ["iso"], {"first": _rep_to_doc(RHO0), "second": _rep_to_doc(RHO1)}),
    ("classify_I", ["classify-rank1"], _rep_to_doc(rank1(0, Z * (Z + 1)))),
    ("classify_none", ["classify-rank1"], _rep_to_doc(rank1(0, 1 / (Z - RatFunc.constant("1/3"))))),
    ("rationalize", ["rationalize"], {"dim": 1, "L1": [["z^2 + z"]], "Lm1": [["1"]]}),
    ("rationalize_bad", ["rationalize"], {"dim": 1, "L1": [["1/z"]], "Lm1": [["z^2 - z^3"]]}),
    ("filtration_multi_level", ["filtration"], _rep_to_doc(direct_sum(RHO0, RHO1))),
    ("iso_not_rank1", ["iso"], {"first": _rep_to_doc(T1_EXT), "second": _rep_to_doc(RHO0)}),
    ("solve_add_yes", ["solve-add"], {"s": "1/(z^2 + z)"}),
    ("solve_add_no", ["solve-add"], {"s": "1/z"}),
    ("solve_mult_yes", ["solve-mult"], {"f": "(z - 1)/z"}),
    ("solve_mult_no", ["solve-mult"], {"f": "z"}),
    ("ext_build", ["ext", "build"], {"left": _rep_to_doc(RHO0), "right": _rep_to_doc(RHO0), "B1": [["0"]], "T": [["1"]]}),
    ("ext_build_invalid", ["ext", "build"], {"left": _rep_to_doc(RHO0), "right": _rep_to_doc(RHO1), "B1": [["1"]], "T": [["0"]]}),
    ("ext_casimir", ["ext", "casimir"], {"left": _rep_to_doc(RHO0), "right": _rep_to_doc(RHO0), "B1": [["1"]], "T": [["0"]]}),
    ("ext_class_eq", ["ext", "class-eq"], {"level": "0", "r1": "1", "r2": "1", "b1": "1/(z - 3)", "b2": "1/z", "T1": "0", "T2": "0"}),
    ("ext_class_neq", ["ext", "class-eq"], {"level": "0", "r1": "1", "r2": "1", "b1": "1/z", "b2": "0", "T1": "0", "T2": "0"}),
    ("orbit", ["orbit"], {"level": "0", "r": "1", "m": -1}),
    ("orbit_pos", ["orbit"], {"level": "2", "r": "z", "m": 2}),
    ("parse_error", ["solve-add"], {"s": "z + ?"}),
    ("input_error", ["minpoly"], {"dim": 1, "L1": [["1"]]}),
]


def _run(argv, text: str) -> subprocess.CompletedProcess:
    """One CLI request in a fresh process, the input document's text on stdin."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "sl2rat.cli", *argv],
        input=text,
        capture_output=True,
        text=True,
        env=env,
    )


def main(root: str = HERE) -> int:
    """Write data/ and goldens/ under `root`; 1, with nothing written, when a request crashed."""
    outputs = []
    for name, argv, doc in CASES:
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        proc = _run(argv, text)
        if "Traceback" in proc.stderr or "ModuleNotFoundError" in proc.stderr:
            print(f"{name}: the request crashed; no file written\n{proc.stderr}", file=sys.stderr)
            return 1
        outputs.append((name, argv, text, proc))
    data, gold = os.path.join(root, "data"), os.path.join(root, "goldens")
    os.makedirs(data, exist_ok=True)
    os.makedirs(gold, exist_ok=True)
    manifest = []
    for name, argv, text, proc in outputs:
        with open(os.path.join(data, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(os.path.join(gold, f"{name}.out"), "w", encoding="utf-8") as fh:
            fh.write(proc.stdout)
        manifest.append({"name": name, "argv": argv, "exit": proc.returncode})
        print(f"{name}: exit={proc.returncode}")
    with open(os.path.join(gold, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
