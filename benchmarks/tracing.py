"""Spans around calls into blowlab, recorded from outside the package.

A function is wrapped at every name under which a blowlab module holds it,
because that is where its callers look it up: `dynamics._stage` reaches
`projected_sources` through `blowlab.dynamics.projected_sources`, not through
`blowlab.projection`. Each wrapper appends one span (layer, binding module,
start, end, parent span) to an in-memory list; nothing is written until
`dump`. A layer's self time is its span time minus the time of the traced
spans directly inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "blowlab"


def bindings(fn) -> list:
    """(module, name) for every blowlab module global that is `fn`."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for name, obj in list(vars(mod).items()):
            if obj is fn:
                out.append((mod, name))
    return out


class _Patches:
    """Replaces module globals and puts the originals back on `uninstall`."""

    def __init__(self):
        self._undo: list = []

    def patch(self, fn, make_wrapper) -> None:
        for mod, name in bindings(fn):
            setattr(mod, name, functools.wraps(fn)(make_wrapper(mod.__name__)))
            self._undo.append((mod, name, fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._undo):
            setattr(mod, name, fn)
        self._undo.clear()


class ScaleCounter(_Patches):
    """Counts trajectories and the scale time they integrate.

    Wraps `blowlab.dynamics.run` only, so it costs one extra call per
    trajectory; it stays on in untraced runs, where the shoot workload has no
    other way to see the trajectories its search integrates. `after_each`,
    when set, runs after every trajectory (the shoot workload's speed probe).
    """

    def __init__(self):
        super().__init__()
        self.trajectories = 0
        self.s_units = 0.0
        self.after_each = None

    def install(self, dynamics) -> None:
        fn = dynamics.run

        def counted(*args, **kwargs):
            record = fn(*args, **kwargs)
            self.trajectories += 1
            self.s_units += record.samples[-1].s - record.samples[0].s
            if self.after_each is not None:
                self.after_each()
            return record

        # one wrapper under every name, so the tracer finds them all by identity
        self.patch(fn, lambda _binding: counted)


class Tracer(_Patches):
    """Span recorder for a fixed map of layer name -> [(module, function)]."""

    def __init__(self, layers: dict, hooks: dict | None = None):
        super().__init__()
        self.layers = layers
        self.hooks = hooks or {}
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack: list = []

    def install(self) -> None:
        # resolve every target before patching: patching changes identities
        targets = [
            (layer, getattr(sys.modules[mod], name))
            for layer, funcs in self.layers.items()
            for mod, name in funcs
        ]
        for layer, fn in targets:
            self.patch(fn, self._wrapper(layer, fn))

    def _wrapper(self, layer: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hook = self.hooks.get(layer)
        counters = self.counters

        def make(binding: str):
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[idx] = (layer, binding, t0, clock(), parent)
                    stack.pop()
                if hook is not None:
                    hook(result, counters)
                return result
            return traced

        return make

    def summary(self) -> dict:
        """{layer: {"calls", "self_s", "by_binding": {module: calls}}}."""
        child = [0.0] * len(self.spans)
        for layer, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {
            layer: {"calls": 0, "self_s": 0.0, "by_binding": defaultdict(int)}
            for layer in self.layers
        }
        for i, (layer, binding, t0, t1, _) in enumerate(self.spans):
            agg = out[layer]
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child[i]
            agg["by_binding"][binding] += 1
        return out

    def dump(self, path: Path) -> Path:
        """Write the spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for layer, binding, t0, t1, parent in self.spans:
                fh.write(json.dumps({
                    "layer": layer, "binding": binding, "parent": parent,
                    "start_s": t0 - origin, "end_s": t1 - origin,
                }) + "\n")
        return path
