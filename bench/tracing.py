"""Spans around the public functions of every `sl2rat` layer, from outside `src/`.

`Tracer.installed()` replaces each traced function by a wrapper in every
`sl2rat.*` module namespace that bound it (`from .poly import poly_gcd`
copies the name, so patching the defining module alone would miss calls),
and each traced method on its class.  A span is (name, start, end, parent
span, op id); spans live in flat arrays while the run goes and are written
out when it ends.  Counts, self times and ratios are derived from them.
"""
from __future__ import annotations

import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute) for functions; the attribute may be a
# method given as "Class.method".
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("poly.gcd", "sl2rat.poly", "poly_gcd"),
    ("poly.mul", "sl2rat.poly", "Poly.__mul__"),
    ("poly.divmod", "sl2rat.poly", "Poly.__divmod__"),
    ("poly.shift", "sl2rat.poly", "Poly.shifted"),
    ("factor", "sl2rat.factor", "factor_poly"),
    ("ratfunc.normalize", "sl2rat.ratfunc", "RatFunc.__init__"),
    ("ratfunc.partial_fractions", "sl2rat.ratfunc", "partial_fractions"),
    ("parser", "sl2rat.parser", "parse_ratfunc"),
    ("shifts", "sl2rat.shifts", "canonical_shift_rep"),
    ("shifts", "sl2rat.shifts", "shift_offset"),
    ("matrix.mul", "sl2rat.matrix", "Mat.__mul__"),
    ("matrix.mul", "sl2rat.matrix", "Mat.__rmul__"),
    ("matrix.rref", "sl2rat.matrix", "Mat.rref"),
    ("matrix.det", "sl2rat.matrix", "Mat.det"),
    ("matrix.inverse", "sl2rat.matrix", "Mat.inverse"),
    ("rep.validate", "sl2rat.rep", "validate"),
    ("rep.minpoly", "sl2rat.rep", "casimir_minpoly"),
    ("rep.level_decompose", "sl2rat.rep", "level_decompose"),
    ("rep.filtration", "sl2rat.rep", "canonical_filtration"),
    ("rep.subquotient", "sl2rat.rep", "restrict_to_invariant_subspace"),
    ("rep.subquotient", "sl2rat.rep", "quotient_by_invariant_subspace"),
    ("monoidal.dual", "sl2rat.monoidal", "dual"),
    ("picard.invariant", "sl2rat.picard", "pic_invariant"),
    ("picard.iso", "sl2rat.picard", "iso_rank1"),
    ("picard.solve_mult", "sl2rat.picard", "solve_mult_diff"),
    ("extension.build", "sl2rat.extension", "ext_build"),
    ("extension.solve_add", "sl2rat.extension", "solve_add_diff"),
    ("hyper.search", "sl2rat.hyper", "hyper_search"),
    ("k0.devissage", "sl2rat.k0", "devissage"),
    ("cli.execute", "sl2rat.cli", "execute"),
)

# Names whose self time is reported; matrix.inverse reports calls only (its
# elimination shows up as matrix.rref).
TIMED = tuple(dict.fromkeys(name for name, _, _ in TRACED if name != "matrix.inverse"))


class Tracer:
    """Collects spans in memory; `installed()` patches the library while active."""

    def __init__(self):
        self.names: List[str] = list(dict.fromkeys(name for name, _, _ in TRACED))
        self.name_id = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.stack: List[int] = []
        self.op = -1
        self.gcd_nontrivial = 0
        self.factor_seen: set = set()
        self.factor_repeats = 0
        self.factor_degree_sum = 0
        self.hyper_found = 0
        self.hyper_probes = 0

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        nid = self.names.index(name)
        name_id, start, end, parent, op_of, stack = (
            self.name_id, self.start, self.end, self.parent, self.op_of, self.stack,
        )
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(tracer.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_gcd(self, args, result) -> None:
        if result.degree > 0:
            self.gcd_nontrivial += 1

    def _after_factor(self, args, result) -> None:
        p = args[0]
        if p.coeffs in self.factor_seen:
            self.factor_repeats += 1
        else:
            self.factor_seen.add(p.coeffs)
        self.factor_degree_sum += max(p.degree, 0)

    def _after_hyper(self, args, result) -> None:
        if result[0] is not None:
            self.hyper_found += 1

    def _counting_search(self, search: Callable) -> Callable:
        tracer = self

        def counted(coeffs):
            for item in search(coeffs):
                if item[0] == "probe":
                    tracer.hyper_probes += 1
                yield item

        counted.__wrapped__ = search
        return counted

    @contextmanager
    def installed(self):
        """Patch every traced function and method; restore them on exit."""
        afters = {"poly.gcd": self._after_gcd, "factor": self._after_factor, "hyper.search": self._after_hyper}
        undo: List[Tuple[object, str, object]] = []
        # import every traced module first, so none binds a wrapper after this point
        homes = {modname: importlib.import_module(modname) for _, modname, _ in TRACED}
        modules = [m for n, m in sys.modules.items() if n == "sl2rat" or n.startswith("sl2rat.")]
        try:
            for name, modname, attr in TRACED:
                home = homes[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    wrapper = self._wrap(name, original, afters.get(name))
                    # aliases such as `__rmul__ = __mul__` share the function
                    for key, value in list(vars(cls).items()):
                        if value is original:
                            undo.append((cls, key, value))
                            setattr(cls, key, wrapper)
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, afters.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
            hyper = sys.modules["sl2rat.hyper"]
            undo.append((hyper, "_search", hyper._search))
            hyper._search = self._counting_search(hyper._search)
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    # -- results ------------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def per_name(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self seconds); self time excludes direct child spans."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = name_id[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def inclusive(self) -> Dict[str, float]:
        """name -> seconds inside its outermost spans (nested calls of the same name count once)."""
        out = [0.0] * len(self.names)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        for i in range(len(start)):
            k = name_id[i]
            p = parent[i]
            while p >= 0 and name_id[p] != k:
                p = parent[p]
            if p < 0:
                out[k] += end[i] - start[i]
        return dict(zip(self.names, out))

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        stats = self.per_name()
        out: Dict[str, Tuple[float, str]] = {}
        for name in self.names:
            calls, self_s = stats[name]
            out[f"{name}.calls"] = (calls, "count")
            if name in TIMED:
                out[f"{name}.self_s"] = (self_s, "s")
        gcd_calls = stats["poly.gcd"][0]
        factor_calls = stats["factor"][0]
        hyper_calls = stats["hyper.search"][0]
        out["poly.gcd.nontrivial_ratio"] = (self.gcd_nontrivial / gcd_calls if gcd_calls else 0.0, "ratio")
        out["factor.repeat_ratio"] = (self.factor_repeats / factor_calls if factor_calls else 0.0, "ratio")
        out["factor.degree_sum"] = (self.factor_degree_sum, "count")
        out["hyper.probes"] = (self.hyper_probes, "count")
        out["hyper.found_ratio"] = (self.hyper_found / hyper_calls if hyper_calls else 0.0, "ratio")
        return out

    def write(self, path_prefix: str) -> None:
        """Spans as five flat binary arrays plus a JSON header describing them."""
        with open(path_prefix + ".bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.op_of, self.start, self.end):
                arr.tofile(fh)
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [
                ["name_id", self.name_id.typecode],
                ["parent", self.parent.typecode],
                ["op", self.op_of.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
            "itemsize": {a: array(a).itemsize for a in "bld"},
        }
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
