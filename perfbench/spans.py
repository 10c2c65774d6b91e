"""Span tracing of the contactsurgery layers, from outside the library.

``Tracer.install`` wraps every public module-level function of each
``contactsurgery`` module and rebinds the wrapper under every name that
held the function, in every ``contactsurgery.*`` namespace.  The modules
import each other with ``from .x import y``, so patching only the
defining module would miss most calls.

A span is (function, start, end, parent span, query id, count); spans
stay in memory and are written out once, at the end of the run.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cfrac", "homology", "contact", "kirby", "floer", "lattice", "cli")

KIRBY_MOVES = frozenset({
    "kirby.blow_up", "kirby.blow_down", "kirby.handle_slide",
    "kirby.rolfsen_twist", "kirby.slam_dunk", "kirby.rational_to_integer",
})


def _count(name: str, args, result) -> int:
    """The effort count a span records, by function."""
    if name == "lattice.short_vectors":
        return len(result)
    if name == "lattice.embed_in_diagonal":
        return result is not None
    if name == "homology.smith_normal_form":
        return len(args[0])
    if name == "kirby.plumbing_presentation":
        return len(result.vertices)
    if name == "contact.translate":
        return len(result.members)
    if name == "floer.lspace_propagate":
        return 0 if result is None else len(result.steps)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, query, count]
        self.stack: list[int] = []
        self.query = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.query, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = _count(name, args, result)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {
            mod_name: mod for mod_name, mod in sys.modules.items()
            if mod_name == "contactsurgery" or mod_name.startswith("contactsurgery.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"contactsurgery.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, query, count in self.spans:
                fh.write(json.dumps([name, start, end, parent, query, count]) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over all spans recorded."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for i, (name, start, end, parent, _, count) in enumerate(self.spans):
            self_s = end - start - child_time[i]
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += self_s
            outermost = parent < 0 or self.spans[parent][0] != name
            if name == "lattice.short_vectors":
                out["lattice.short_vectors.self_s"] += self_s
                if outermost:  # a negative definite call recurses once
                    out["lattice.short_vectors.calls"] += 1
                    out["lattice.short_vectors.vectors"] += count
            elif name == "lattice.embed_in_diagonal":
                out["lattice.embed.self_s"] += self_s
                out["lattice.embed.calls"] += 1
                out["lattice.embed.found"] += count
            elif name == "lattice.contains_sublattice":
                out["lattice.sublattice.self_s"] += self_s
                out["lattice.sublattice.calls"] += 1
            elif name == "homology.smith_normal_form":
                out["homology.snf.self_s"] += self_s
                out["homology.snf.calls"] += 1
                out["homology.snf.rows"] += count
            elif name == "homology.det_bareiss":
                out["homology.det.self_s"] += self_s
                out["homology.det.calls"] += 1
            elif name in KIRBY_MOVES:
                out["kirby.moves.self_s"] += self_s
                out["kirby.moves.calls"] += 1
            elif name == "kirby.definiteness":
                out["kirby.definiteness.self_s"] += self_s
                out["kirby.definiteness.calls"] += 1
            elif name == "kirby.plumbing_presentation":
                out["kirby.plumbing.vertices"] += count
            elif name == "contact.translate":
                out["contact.translate.calls"] += 1
                out["contact.members"] += count
            elif name == "floer.lspace_propagate":
                out["floer.lspace.calls"] += 1
                out["floer.chain_steps"] += count
            if layer in ("cfrac", "cli"):
                out[f"{layer}.calls"] += 1
        return dict(out)
