"""Span tracing of klrcalc, installed from outside the package.

`install` wraps the public functions of every klrcalc module, a few `KLR`
methods and the arithmetic methods of the coefficient domains.  A wrapper
replaces the function at every binding site: names imported with
`from ... import` are bound once in each importer, so each klrcalc module
namespace (and each dict in it, such as `suites.SUITES`) is searched for the
original function object.

Each call records one span: a name, its start and end (monotonic ns) and
the index of its parent span.  Spans stay in four arrays in memory and are
written out once, by `Recorder.dump`, when the traced process ends.
`summarize` reads them back and computes, per span name, the call count and
the self time: the span's duration minus the part covered by its children.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
import types
from fractions import Fraction

# KLR methods traced as "algebra.<method>".
KLR_METHODS = ("gen_left", "multiply", "mono_degree", "enumerate_basis")
# Domain arithmetic methods, traced together as "scalars.ops".
DOMAIN_OPS = ("add", "sub", "mul", "neg", "inv")
# Counts that need a call's arguments or result, kept beside the spans.
COUNTERS = ("algebra.gen_left.terms_in", "algebra.multiply.term_pairs",
            "algebra.multiply.terms_out", "linalg.rank.rows_in",
            "linalg.rank.rank_out", "signop.clifford_axioms_check.pairs_checked",
            "scalars.nonintegral_results")


class Recorder:
    """In-memory span store plus counters that need call arguments."""

    def __init__(self):
        self.ids: dict = {}  # span name -> id, in order of first use
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.contexts: list = []

    def name_id(self, name: str) -> int:
        return self.ids.setdefault(name, len(self.ids))

    def count(self, key: str, k: int = 1) -> None:
        self.counters[key] += k

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call of `fn`; `after(args,
        result)` runs once the span has ended."""
        nid = self.name_id(name)
        name_append = self.name.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        ends = self.end
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(ends)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0)
            stack.append(i)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def memo_stats(self) -> tuple:
        """(entries, tables at their cache limit) over every context built
        by `suites.make_context`; a memo table is a dict attribute whose
        name ends in `_cache`."""
        entries = full = 0
        for ctx in self.contexts:
            limit = getattr(ctx, "cache_limit", None)
            for key, table in vars(ctx).items():
                if key.endswith("_cache") and isinstance(table, dict):
                    entries += len(table)
                    full += limit is not None and len(table) >= limit
        return entries, full

    def dump(self, path: str) -> None:
        """Write the spans to `path` and the name table, counters and memo
        statistics to `path + ".json"`."""
        entries, full = self.memo_stats()
        counters = dict(self.counters)
        counters["algebra.memo_entries"] = entries
        counters["algebra.memo_tables_full"] = full
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"names": list(self.ids), "spans": len(self.end),
                       "counters": counters}, fh)


def _klr_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "klrcalc" or name.startswith("klrcalc."))]


def _rebind(modules, originals: dict) -> None:
    """Replace each original function (keyed by id) by its wrapper wherever
    a module global or a module-level dict holds it."""
    for mod in modules:
        space = vars(mod)
        for key, val in list(space.items()):
            hit = originals.get(id(val))
            if hit is not None and hit[0] is val:
                space[key] = hit[1]
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    hit = originals.get(id(v))
                    if hit is not None and hit[0] is v:
                        val[k] = hit[1]


def install(rec: Recorder) -> None:
    """Wrap klrcalc's public functions, `KLR_METHODS` and `DOMAIN_OPS`.

    klrcalc must already be imported; `klrcalc.cli` is left alone (its
    code runs as `__main__` and imports the wrapped names).
    """
    from klrcalc import algebra, scalars

    def rank_after(args, result):
        rec.count("linalg.rank.rows_in", len(args[0]))
        rec.count("linalg.rank.rank_out", result)

    def clifford_after(args, result):
        rec.count("signop.clifford_axioms_check.pairs_checked",
                  result[2].get("pairs_checked", 0))

    def gen_left_after(args, result):
        rec.count("algebra.gen_left.terms_in", len(args[2].terms))

    def multiply_after(args, result):
        _, x, y = args
        rec.count("algebra.multiply.term_pairs", len(x.terms) * len(y.terms))
        rec.count("algebra.multiply.terms_out", len(result.terms))

    def nonintegral(args, result):
        if type(result) is Fraction and result.denominator != 1:
            rec.count("scalars.nonintegral_results")

    hooks = {
        "linalg.rank": rank_after,
        "signop.clifford_axioms_check": clifford_after,
        "suites.make_context": lambda args, result: rec.contexts.append(result),
        "algebra.gen_left": gen_left_after,
        "algebra.multiply": multiply_after,
    }
    modules = _klr_modules()
    originals: dict = {}
    for mod in modules:
        if mod.__name__ in ("klrcalc", "klrcalc.cli"):
            continue
        short = mod.__name__.rpartition(".")[2]
        for key, val in list(vars(mod).items()):
            if (isinstance(val, types.FunctionType) and not key.startswith("_")
                    and val.__module__ == mod.__name__):
                name = f"{short}.{key}"
                originals[id(val)] = (val, rec.wrap(name, val, hooks.get(name)))
    _rebind(modules, originals)

    for meth in KLR_METHODS:
        fn = vars(algebra.KLR).get(meth)
        if fn is not None:
            name = f"algebra.{meth}"
            setattr(algebra.KLR, meth, rec.wrap(name, fn, hooks.get(name)))
    for cls in (scalars.Rationals, scalars.PrimeField):
        for meth in DOMAIN_OPS:
            fn = vars(cls).get(meth)
            if fn is not None:
                setattr(cls, meth, rec.wrap("scalars.ops", fn, nonintegral))


def summarize(path: str) -> dict:
    """Per span name: {"calls", "self_ns"}; plus the recorded counters under
    the key "counters".  Reads what `Recorder.dump` wrote."""
    with open(path + ".json") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = []
    with open(path, "rb") as fh:
        for code in ("i", "i", "q", "q"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    name, parent, start, end = arrays
    names = meta["names"]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    covered = array.array("q", bytes(8 * n))
    # children are recorded after their parent, so a backward pass has
    # finished every child of a span before it reaches the span itself
    for i in range(n - 1, -1, -1):
        dur = end[i] - start[i]
        nid = name[i]
        calls[nid] += 1
        self_ns[nid] += dur - covered[i]
        p = parent[i]
        if p >= 0:
            covered[p] += dur
    out = {nm: {"calls": calls[k], "self_ns": self_ns[k]}
           for k, nm in enumerate(names)}
    out["counters"] = meta["counters"]
    return out
