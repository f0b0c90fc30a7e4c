"""Per-layer spans recorded from outside the program.

The layers are the six modules of ``src/pspec``. Every public function of a
layer (and every public method of a class it defines) is replaced by a
wrapper that opens a span, so no file of the program changes. ``pspec``
binds names with ``from .x import f``, so each wrapper is written into every
``pspec`` module namespace that holds the original function object.

A span's self time is its duration minus the durations of the spans opened
inside it; a layer's self time is the sum over its spans. Call counts and
inclusive seconds are kept per function key; nested activations of one key
(``build_ellipsoid`` calling ``build_icosphere`` are both ``manifold.build``)
count once, as the outermost activation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("manifold", "pspectral", "rearrange", "isoperim", "harness", "cli")
EIGEN_FUNCTIONS = ("closed_eigen", "dirichlet_eigen")

# functions reported under one key
_GROUPS = {
    "build_icosphere": "build",
    "build_ellipsoid": "build",
    "build_interval": "build",
    "build_circle": "build",
}


class Spans:
    """Span accounting for one traced process (single-threaded)."""

    def __init__(self):
        self._open = []            # child seconds accumulated per open span
        self._depth = Counter()
        self.seconds = Counter()   # "layer.key" -> inclusive seconds
        self.calls = Counter()     # "layer.key" -> outermost activations
        self.self_s = Counter()    # layer -> self seconds
        self.counts = Counter()    # extra counters ("isoperim.superlevel_measures.thresholds")

    def call(self, layer, key, fn, args, kwargs):
        frame = [0.0]
        self._open.append(frame)
        self._depth[key] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = perf_counter() - t0
            self._open.pop()
            self._depth[key] -= 1
            if self._open:
                self._open[-1][0] += d
            self.self_s[layer] += d - frame[0]
            if not self._depth[key]:
                self.seconds[key] += d
                self.calls[key] += 1

    def snapshot(self):
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "self_s": {layer: self.self_s[layer] for layer in LAYERS},
            "counts": dict(self.counts),
        }


def _public_callables(module):
    """(owner, name, function) for public functions and methods defined here."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj
        elif inspect.isclass(obj):
            for mname, meth in list(vars(obj).items()):
                if not mname.startswith("_") and inspect.isfunction(meth):
                    yield obj, f"{name}.{mname}", meth


def _wrap(fn, layer, key, spans, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            if spans is None:
                out = fn(*args, **kwargs)
            else:
                out = spans.call(layer, key, fn, args, kwargs)
        except Exception as exc:
            if after is not None:
                after(args, kwargs, None, exc)
            raise
        if after is not None:
            after(args, kwargs, out, None)
        return out

    return wrapper


def install(spans, on_eigen):
    """Wrap the layers' public callables in place.

    With ``spans`` None only the two eigen entry points are wrapped, and only
    to hand each call to ``on_eigen(kind, region, p, result, exc)``; this
    records results for the output checks and adds no timing. With a Spans
    object every public callable opens a span.
    """
    modules = {layer: importlib.import_module(f"pspec.{layer}") for layer in LAYERS}
    replaced = {}  # id(original) -> (original, wrapper)
    for layer, module in modules.items():
        for owner, name, fn in _public_callables(module):
            after = None
            if owner is module and name in EIGEN_FUNCTIONS:
                kind = name.split("_")[0]

                def after(args, kwargs, out, exc, kind=kind):
                    on_eigen(kind, args[0], args[1], out, exc)

            elif spans is None:
                continue
            elif name == "superlevel_measures":

                def after(args, kwargs, out, exc, spans=spans):
                    ts = args[1] if len(args) > 1 else kwargs["ts"]
                    spans.counts["isoperim.superlevel_measures.thresholds"] += len(ts)

            key = f"{layer}.{_GROUPS.get(name, name)}"
            wrapper = _wrap(fn, layer, key, spans, after)
            if owner is module:
                replaced[id(fn)] = (fn, wrapper)
            else:
                setattr(owner, name.rsplit(".", 1)[1], wrapper)
    for modname, module in list(sys.modules.items()):
        if modname != "pspec" and not modname.startswith("pspec."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
