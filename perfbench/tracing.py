"""Per-layer spans and counters, recorded from outside nilext.

``Tracer.install`` wraps the public functions and methods of each layer
module, plus the operators and constructors of the two scalar classes.
Module-level functions are replaced under every name they are bound to in
any ``nilext`` module, so calls made through ``from .x import f`` go through
the wrapper too. ``Tracer.restore`` puts every original object back.

A span is recorded only where a call crosses from one layer into another
(the benchmark's own code is the layer ``bench``). Spans are kept in
memory as parallel arrays (name, start, end, parent) and aggregated by
``Tracer.metrics`` into per-layer call counts and self times; a layer's
self time is its spans' durations minus the parts covered by their
direct child spans, which by construction lie in other layers.
"""

from __future__ import annotations

import enum
import sys
import time
from array import array

LAYERS = ("catalog", "exprs", "poly", "linalg", "algebra", "identities",
          "extensions", "orbits")

# Dunder methods that are work, not bookkeeping, on the layers' classes.
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__",
             "__eq__")

# Work counters: metric name -> (layer, qualified name); every call counts.
COUNTERS = {
    "algebra.multiply.calls": ("algebra", "Algebra.multiply"),
    "algebra.eval_tree.calls": ("algebra", "eval_tree"),
    "algebra.is_homomorphism.calls": ("algebra", "is_homomorphism"),
    "linalg.rref.calls": ("linalg", "Matrix.rref"),
    "linalg.matmul.calls": ("linalg", "Matrix.__mul__"),
    "linalg.apply.calls": ("linalg", "Matrix.apply"),
    "identities.holds.calls": ("identities", "holds"),
    "identities.induced_cocycle_constraints.calls":
        ("identities", "induced_cocycle_constraints"),
    "extensions.classify_line.calls": ("extensions", "classify_line"),
    "orbits.iso_search_fp.calls": ("orbits", "iso_search_fp"),
    "exprs.eval_str.calls": ("exprs", "eval_str"),
}

# Scalar classes: name -> (ops counter, constructor counter, operator names).
SCALARS = {
    "FpElt": ("scalars.fp_ops", "scalars.fp_elts",
              OPERATORS + ("inverse",)),
    "Cyc12": ("scalars.cyc12_ops", "scalars.cyc12_elts",
              OPERATORS + ("inverse", "galois")),
}


# Layers whose self time is reported. poly runs only in catalog-q's symbolic
# checks and extensions not at all in iso-search, so their self time reads
# exactly 0 on some workloads; their call counts are reported everywhere.
SELF_TIME_LAYERS = tuple(L for L in LAYERS if L not in ("poly", "extensions"))


def metric_names():
    """Every per-layer metric name, in report order."""
    names = []
    for layer in LAYERS:
        names.append(layer + ".calls")
        if layer in SELF_TIME_LAYERS:
            names.append(layer + ".self_s")
    for ops, elts, _ in SCALARS.values():
        names += [ops, elts]
    return names + list(COUNTERS)


class Tracer:
    def __init__(self):
        self.names = []        # span name table
        self._name_ids = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.counts = dict.fromkeys(
            [k for ops, elts, _ in SCALARS.values() for k in (ops, elts)]
            + list(COUNTERS), 0)
        self._stack = [-1]     # open span indices; -1 is the bench root
        self._layers = ["bench"]
        self._patched = []     # (owner, attribute, original raw object)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, layer, qualname):
        key = layer + "." + qualname
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        name_id = self._name_ids[key]
        counter = next((m for m, lq in COUNTERS.items()
                        if lq == (layer, qualname)), None)
        counts = self.counts
        stack, layers = self._stack, self._layers
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            layers.append(layer)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                layers.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            self._patch(cls, attr, type(raw)(make(raw.__func__)))
        elif callable(raw):
            self._patch(cls, attr, make(raw))

    # -- install / restore ------------------------------------------------

    def install(self):
        """Wrap every layer's public names; call ``restore`` afterwards."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nilext"
                                         or n.startswith("nilext."))]
        replace = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules["nilext." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if issubclass(obj, (BaseException, enum.Enum)):
                        continue
                    for mname in list(vars(obj)):
                        if mname.startswith("_") and mname not in OPERATORS:
                            continue
                        if isinstance(vars(obj)[mname], property):
                            continue
                        qual = obj.__name__ + "." + mname
                        self._patch_method(
                            obj, mname,
                            lambda f, q=qual, L=layer: self._span_wrapper(
                                f, L, q))
                elif callable(obj):
                    replace[id(obj)] = self._span_wrapper(obj, layer, attr)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._patch(mod, attr, replace[id(obj)])
        scalars = sys.modules["nilext.scalars"]
        for cls_name, (ops, elts, operators) in SCALARS.items():
            cls = getattr(scalars, cls_name)
            self._patch_method(cls, "__init__",
                               lambda f, k=elts: self._count_wrapper(f, k))
            for op in operators:
                if op in vars(cls):
                    self._patch_method(
                        cls, op, lambda f, k=ops: self._count_wrapper(f, k))

    def restore(self):
        """Put back every object ``install`` replaced, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- aggregation ------------------------------------------------------

    def _self_times(self):
        """Each span's duration minus the durations of its direct children."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        out = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                out[p] -= self.span_end[i] - self.span_start[i]
        return out

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        for name_id, t in zip(self.span_name, self._self_times()):
            calls[layer_of[name_id]] += 1
            self_s[layer_of[name_id]] += t
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = (calls[layer], "count")
            out[layer + ".self_s"] = (self_s[layer], "s")
        for key, value in self.counts.items():
            out[key] = (value, "count")
        return {k: out[k] for k in metric_names()}

    def top_spans(self, limit=12):
        """Span names with the largest total self time, for the trace file."""
        agg = {}
        for name_id, t in zip(self.span_name, self._self_times()):
            c, s = agg.get(name_id, (0, 0.0))
            agg[name_id] = (c + 1, s + t)
        rows = sorted(agg.items(), key=lambda kv: -kv[1][1])[:limit]
        return [{"span": self.names[i], "calls": c, "self_s": s}
                for i, (c, s) in rows]
