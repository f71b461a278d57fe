"""Span tracing from outside the library.

`install()` wraps every public function of the eight layer modules and
rebinds it wherever the package holds a reference to it, so calls between
modules and through the CLI's registry are recorded too.  A span is (name,
start, end, parent); spans stay in memory in flat arrays until `summary()`
aggregates them.  The library's own source is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("lattice", "theta", "weier_core", "aux_zeta", "zeta_diff", "jacobi", "verify", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "module.function"
        self.fn_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        fn_ids, parents, starts, ends = self.fn_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(fn_ids)
            fn_ids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Calls and self time per layer: a span's duration minus that of its
        direct children."""
        n = len(self.fn_id)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        layer_of = [name.split(".")[0] for name in self.names]
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for i in range(n):
            row = out[layer_of[self.fn_id[i]]]
            row["calls"] += 1
            row["self_s"] += (self.end[i] - self.start[i]) - child_time[i]
        return {"spans": n, "layers": out}


def _is_public_function(obj, module_name: str) -> bool:
    if not callable(obj) or inspect.isclass(obj):
        return False
    return getattr(obj, "__module__", None) == module_name


def install() -> Tracer:
    """Wrap the public functions of every layer module; returns the tracer."""
    tracer = Tracer()
    modules = [importlib.import_module(f"weierzeta.{layer}") for layer in LAYERS]
    package = sys.modules["weierzeta"]
    replacements = {}
    for layer, mod in zip(LAYERS, modules):
        for name, obj in list(vars(mod).items()):
            if not name.startswith("_") and _is_public_function(obj, mod.__name__):
                replacements[id(obj)] = tracer.wrap(obj, f"{layer}.{name}")
    for mod in (package, *modules):
        for name, obj in list(vars(mod).items()):
            if id(obj) in replacements and callable(obj):
                setattr(mod, name, replacements[id(obj)])
    return tracer
