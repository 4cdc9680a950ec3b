"""Per-layer tracing of the kernel, installed from the benchmark's own files.

While installed, every public function and every public method of a public
class in the layer modules is wrapped.  Modules bind names with
``from .x import y``, so each wrapper replaces every binding of the original
in every kernel module, not only the one in the defining module.

A call that enters a layer from outside it (from another layer, or from the
benchmark) is a span: name, layer, start, end, parent span and request id.
Calls inside one layer are counted but not timed, which keeps the overhead
down.  A layer's self time is the time of its spans minus the time their
child spans cover.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "documents", "boxes", "affine", "finite", "dynamics",
          "szymczak", "conley", "semiflow")
# inclusive time of the outermost call, per-layer metric name
TIMED = {"documents.parse_document": "documents.parse_s",
         "boxes.BoxSet.of": "boxes.of_s",
         "semiflow.dom_interval": "semiflow.dom_interval_s"}
BOX_ALGEBRA = {f"boxes.BoxSet.{m}" for m in (
    "union", "intersect", "difference", "complement", "closure", "interior",
    "interior_in")}
PIECE_RESULTS = {"affine.compose", "affine.power",
                 "affine.PiecewiseAffineMap.restrict"}
DECISIONS = {"szymczak.is_shift_equivalence", "szymczak.sz_is_iso"}
SEARCHES = {"dynamics.find_admissible", "dynamics.sim_f",
            "semiflow.find_admissible_cont", "semiflow.sim_F"}
# search contexts whose cached subset tests a search leaves behind
CONTEXTS = {"dynamics": ("_SearchContext", ("_cond1", "_cond2")),
            "semiflow": ("_ContContext", ("_c1", "_c2"))}


class Tracer:
    def __init__(self):
        self.request_id = None
        self.spans = []            # (request, name, layer, start, end, parent)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.timed = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []           # [layer, start, child time, span index]
        self._depth = defaultdict(int)
        self._contexts = None      # search contexts of the running search
        self._patches = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name)
        tracer, calls, stack = self, self.calls, self._stack
        timed_key = TIMED.get(name)
        extra = name in BOX_ALGEBRA or name in PIECE_RESULTS or \
            name in DECISIONS or name in SEARCHES or name == "semiflow.time_map"

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if stack and stack[-1][0] == layer and timed_key is None \
                    and not extra:
                return fn(*args, **kwargs)
            return tracer._call(fn, layer, name, timed_key, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_generator(self, fn, layer, name):
        calls, counts = self.calls, self.counts

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            for item in fn(*args, **kwargs):
                counts["szymczak.maps_enumerated"] += 1
                yield item

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _call(self, fn, layer, name, timed_key, args, kwargs):
        stack = self._stack
        boundary = not stack or stack[-1][0] != layer
        if name in SEARCHES:
            self.counts["dynamics.searches"] += 1
            outer_contexts, self._contexts = self._contexts, []
        if name in DECISIONS:
            self.counts["szymczak.decisions"] += 1
        elif name == "semiflow.time_map":
            self.counts["semiflow.time_maps"] += 1
        if timed_key is not None:
            self._depth[timed_key] += 1
        t0 = time.perf_counter()
        if boundary:
            index = len(self.spans)
            self.spans.append(None)
            stack.append([layer, t0, 0.0, index])
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if boundary:
                _, _, child, index = stack.pop()
                self.self_s[layer] += (t1 - t0) - child
                parent = stack[-1][3] if stack else None
                if stack:
                    stack[-1][2] += t1 - t0
                self.spans[index] = (self.request_id, name, layer, t0, t1, parent)
            if timed_key is not None:
                self._depth[timed_key] -= 1
                if not self._depth[timed_key]:
                    self.timed[timed_key] += t1 - t0
            if name in SEARCHES:
                tests = sum(len(getattr(ctx, attr)) for ctx, attrs in self._contexts
                            for attr in attrs)
                self.counts["dynamics.subset_tests"] += tests
                self._contexts = outer_contexts
        if name in BOX_ALGEBRA:
            self.counts["boxes.boxes_out"] += len(result.boxes)
        elif name in PIECE_RESULTS:
            self.counts["affine.pieces_out"] += len(result.pieces)
        return result

    def _watch_context(self, cls, attrs):
        original = cls.__init__
        tracer = self

        def init(ctx, *args, **kwargs):
            original(ctx, *args, **kwargs)
            if tracer._contexts is not None:
                tracer._contexts.append((ctx, attrs))

        self._patches.append((cls, "__init__", original))
        cls.__init__ = init

    @contextlib.contextmanager
    def installed(self):
        modules = {layer: importlib.import_module(f"conley_kernel.{layer}")
                   for layer in LAYERS}
        replace = {}               # id(original) -> wrapper, for functions
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, layer, f"{layer}.{attr}")
                    replace[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, f"{layer}.{attr}")
        for mod in [m for n, m in sys.modules.items()
                    if n == "conley_kernel" or n.startswith("conley_kernel.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)][1])
        for layer, (cls_name, attrs) in CONTEXTS.items():
            self._watch_context(getattr(modules[layer], cls_name), attrs)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _wrap_class(self, cls, layer, qual):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(val, (staticmethod, classmethod)):
                new = type(val)(self._wrap(val.__func__, layer, f"{qual}.{attr}"))
            elif inspect.isfunction(val):
                new = self._wrap(val, layer, f"{qual}.{attr}")
            else:
                continue           # properties and cached values stay as they are
            self._patches.append((cls, attr, val))
            setattr(cls, attr, new)

    # -- results --------------------------------------------------------------

    def write(self, path: str):
        """One JSON array per line: request, name, layer, start, end, parent
        (the index of the parent span's line, or null)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

    def metrics(self, passes: int, traced_wall: float, overhead: float) -> dict:
        """Per-pass averages of times and counts over the traced passes."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer] / passes, "s")
            out[f"{layer}.calls"] = (self.calls[layer] / passes, "count")
        for key in TIMED.values():
            out[key] = (self.timed[key] / passes, "s")
        c = self.counts
        for key in ("boxes.boxes_out", "affine.pieces_out", "dynamics.searches",
                    "dynamics.subset_tests", "szymczak.decisions",
                    "szymczak.maps_enumerated", "semiflow.time_maps"):
            out[key] = (c[key] / passes, "count")
        out["dynamics.tests_per_search"] = (
            c["dynamics.subset_tests"] / max(c["dynamics.searches"], 1), "ratio")
        out["szymczak.maps_per_decision"] = (
            c["szymczak.maps_enumerated"] / max(c["szymczak.decisions"], 1), "ratio")
        layers_s = sum(self.self_s.values())
        out["trace.pass_s"] = (traced_wall / passes, "s")
        out["trace.untraced_s"] = ((traced_wall - layers_s) / passes, "s")
        out["trace.overhead_ratio"] = (overhead, "ratio")
        return out
