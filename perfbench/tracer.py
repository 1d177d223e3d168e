"""Per-layer tracing of the deltaspace library, applied from outside.

Tracer.install() replaces the public functions and methods of each
library module with wrappers, at every module namespace that binds them
(`validate`, for one, is also bound in `amalgam` and `limitbuilder`), and
uninstall() puts the originals back.  No library file changes.

A span wrapper records calls and self time: the span's duration minus
the time covered by the spans it called.  A count wrapper only counts
calls; it is used for the exact-arithmetic methods and the rank lookups,
which run millions of times, and its cost lands in the caller's self
time.  Timings and counts are kept apart: counts repeat exactly for a
seed, timings do not.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "exact", "dvs", "equiv", "space", "amalgam", "limitbuilder", "ramsey", "coding")

# What each layer wraps, beyond its module-level public functions:
# (class name, method name, key) for spans, and (class, method, key) for
# count-only wrappers.  Several methods may share one key.
_COMPARE = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__", "sign", "is_zero")
_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__neg__", "__truediv__", "__rtruediv__", "__abs__", "inverse", "floor")
SPAN_METHODS = {
    "dvs": [("DistanceSet", "__contains__", "dvs.contains"), ("DistanceSet", "from_json", "dvs.from_json"),
            ("DistanceSet", "to_json", "dvs.to_json")],
    "equiv": [("ScalingWitness", "__post_init__", "equiv.ScalingWitness")],
    "space": [("Space", "induced", "space.induced"), ("Space", "diameter", "space.diameter"),
              ("Space", "from_json", "space.from_json"), ("Space", "to_json", "space.to_json")],
    "coding": [("DvsCode", "from_json", "coding.code_from_json"), ("DvsCode", "to_json", "coding.code_to_json"),
               ("EncodedModel", "to_json", "coding.model_to_json")],
}
COUNT_METHODS = {
    "exact": [("ExactReal", "__init__", "exact.construct")]
    + [("ExactReal", m, "exact.compare") for m in _COMPARE]
    + [("ExactReal", m, "exact.arith") for m in _ARITH],
    "space": [("Space", "rank", "space.rank"), ("Space", "before", "space.before")],
}
# Module-level functions that are counted, not spanned.
COUNT_FUNCTIONS = {"exact": {"compare": "exact.compare"}}


class Tracer:
    def __init__(self, lib):
        self.lib = lib  # namespace with one attribute per layer module
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.extra = Counter()  # work counts derived from arguments and results
        self.layer_of = {}
        self._stack = []  # child time accumulated by each open span
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, key, fn, after=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived work counts ------------------------------------------------

    def _afters(self):
        extra = self.extra

        def validate(args, result):
            n = args[0].n
            extra["space.validate.triples"] += n * (n - 1) * (n - 2)

        def copies_of(args, result):
            extra["space.copies_of.subsets"] += math.comb(args[0].n, args[1].n)

        def realize(args, result):
            extra["limitbuilder.points_added"] += result.n - args[0].n

        def find_realizer(args, result):
            extra["limitbuilder.find_realizer.found"] += result is not None

        def report(args, result):
            rep = result[1] if isinstance(result, tuple) else result
            extra["limitbuilder.extensions_checked"] += rep.checked

        def arrow(args, result):
            extra["ramsey.nodes"] += result.nodes

        def model_encode(args, result):
            extra["coding.sample_q"] += len(result.rq)

        return {
            "space.validate": validate,
            "space.copies_of": copies_of,
            "limitbuilder.realize": realize,
            "limitbuilder.find_realizer": find_realizer,
            "limitbuilder.extension_property_check": report,
            "limitbuilder.saturate": report,
            "ramsey.arrow": arrow,
            "coding.model_encode": model_encode,
        }

    # -- install / uninstall ------------------------------------------------

    def _wrappers(self):
        """Map id(original) -> wrapper for every module-level function."""
        afters = self._afters()
        out = {}
        for layer in LAYERS:
            mod = getattr(self.lib, layer)
            names = ["main"] if layer == "cli" else [
                n for n, obj in vars(mod).items()
                if not n.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
            ]
            for name in names:
                fn = getattr(mod, name)
                count_key = COUNT_FUNCTIONS.get(layer, {}).get(name)
                key = count_key or ("cli" if layer == "cli" else f"{layer}.{name}")
                self.layer_of[key] = layer
                out[id(fn)] = self._count(key, fn) if count_key else self._span(key, fn, afters.get(key))
        return out

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        wrappers = self._wrappers()
        mods = [getattr(self.lib, layer) for layer in LAYERS] + [self.lib.package]
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if callable(obj) and id(obj) in wrappers:
                    self._set(mod, name, wrappers[id(obj)])
        for table, make in ((SPAN_METHODS, self._span), (COUNT_METHODS, self._count)):
            for layer, entries in table.items():
                mod = getattr(self.lib, layer)
                for cls_name, meth, key in entries:
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    self.layer_of[key] = layer
                    if isinstance(raw, staticmethod):
                        self._set(cls, meth, staticmethod(make(key, raw.__func__)))
                    else:
                        self._set(cls, meth, make(key, raw))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- per-layer metrics --------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if self.layer_of.get(k) == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if self.layer_of.get(k) == layer and k in self.self_s)
