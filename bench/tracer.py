"""Span tracing of gacalc's public entry points, done from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
gacalc module that binds it (``gacalc.expr`` and ``gacalc.stereo``
import functions by name, so patching the defining module alone would
miss their calls) and each traced ``Multivector`` method on the class.
A wrapper records one span: start, end, layer and parent span. Spans
stay in flat in-memory arrays until ``summary`` computes each layer's
self time, its span time minus the time covered by its child spans.
``uninstall`` restores the originals, so untraced and traced chunks can
alternate in one process.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array

# layer name -> Multivector methods it covers
METHODS = {
    "algebra.gp": ("__mul__",),
    "algebra.outer": ("__xor__",),
    "algebra.inner": ("__or__",),
    "algebra.add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "algebra.norm": ("norm",),
    "algebra.inverse": ("inverse",),
    "algebra.exp": ("exp",),
    "expr.format": ("__str__",),
}

# layer name -> (module, public functions it covers)
FUNCTIONS = {
    "algebra.vector_inverse": ("algebra", ("vector_inverse",)),
    "algebra.dual": ("algebra", ("dual",)),
    "algebra.cross": ("algebra", ("cross",)),
    "transforms.rotate": ("transforms", ("rotate",)),
    "transforms.rotor_between": ("transforms", ("rotor_between",)),
    "transforms.compose_rotors": ("transforms", ("compose_rotors",)),
    "transforms.reflect": ("transforms", ("reflect_normal", "reflect_in_plane")),
    "transforms.project": ("transforms", ("project", "reject")),
    "transforms.rotor_from_reflections": ("transforms", ("rotor_from_reflections",)),
    "stereo.project": ("stereo", ("stereo_project",)),
    "stereo.unproject": ("stereo", ("stereo_unproject",)),
    "stereo.prob": ("stereo", ("prob_plus", "prob_minus")),
    "geometry.distance_to_line": ("geometry", ("distance_to_line",)),
    "expr.tokenize": ("expr", ("tokenize",)),
    "expr.parse": ("expr", ("parse_statement", "parse_expression")),
    "expr.evaluate": ("expr", ("execute_statement", "evaluate")),
}

LAYERS = tuple(METHODS) + tuple(FUNCTIONS)
PAIR_LAYERS = ("algebra.gp", "algebra.outer", "algebra.inner")

# evaluate recurses through the module global it is patched under; a
# nested call is folded into the enclosing span instead of opening one
_COLLAPSE = {"expr.evaluate"}


def _pairs(args) -> int:
    right = args[1]
    terms = getattr(right, "terms", None)
    return len(args[0].terms) * (1 if terms is None else len(terms))


def ast_nodes(node) -> int:
    """Syntax tree nodes of a parsed statement or expression."""
    if isinstance(node, tuple):
        return sum(ast_nodes(item) for item in node)
    if dataclasses.is_dataclass(node):
        return 1 + sum(ast_nodes(getattr(node, f.name)) for f in dataclasses.fields(node))
    return 0


class Tracer:
    """Spans and counts of one traced run; install and uninstall may
    alternate any number of times."""

    def __init__(self) -> None:
        self.start = array("q")
        self.end = array("q")
        self.layer = array("i")
        self.parent = array("i")
        self.counts = {"term_pairs": dict.fromkeys(PAIR_LAYERS, 0), "tokens": 0, "ast_nodes": 0}
        self._stack = [-1]
        self._stack_layer = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        lid = LAYERS.index(layer)
        start, end, layers, parent = self.start, self.end, self.layer, self.parent
        stack, stack_layer, counts = self._stack, self._stack_layer, self.counts
        clock = time.perf_counter_ns
        collapse = layer in _COLLAPSE
        pairs = counts["term_pairs"] if layer in PAIR_LAYERS else None
        after = {"expr.tokenize": "tokens", "expr.parse": "ast_nodes"}.get(layer)
        measure = len if after == "tokens" else ast_nodes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if collapse and stack_layer[-1] == lid:
                return fn(*args, **kwargs)
            if pairs is not None:
                pairs[layer] += _pairs(args)
            sid = len(start)
            start.append(0)
            end.append(0)
            layers.append(lid)
            parent.append(stack[-1])
            stack.append(sid)
            stack_layer.append(lid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack_layer.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                counts[after] += measure(result)
            return result

        return traced

    def install(self, ga) -> None:
        """Patch gacalc (the imported package) for tracing."""
        cls = ga.Multivector
        for layer, names in METHODS.items():
            for name in names:
                original = cls.__dict__[name]
                self._patches.append((cls, name, original))
                setattr(cls, name, self._wrap(layer, original))
        modules = [m for n, m in list(sys.modules.items()) if n == "gacalc" or n.startswith("gacalc.")]
        for layer, (home, names) in FUNCTIONS.items():
            for name in names:
                original = getattr(getattr(ga, home), name)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def summary(self) -> dict:
        """Per layer: calls and self time (ns); plus the total time of
        root spans, the spans with no traced parent."""
        n = len(self.start)
        covered = [0] * n
        root_ns = 0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur
            else:
                root_ns += dur
        calls = [0] * len(LAYERS)
        self_ns = [0] * len(LAYERS)
        for i in range(n):
            lid = self.layer[i]
            calls[lid] += 1
            self_ns[lid] += self.end[i] - self.start[i] - covered[i]
        return {
            "layers": {
                layer: {"calls": calls[i], "self_ns": self_ns[i]} for i, layer in enumerate(LAYERS)
            },
            "term_pairs": dict(self.counts["term_pairs"]),
            "tokens": self.counts["tokens"],
            "ast_nodes": self.counts["ast_nodes"],
            "spans": n,
            "root_ns": root_ns,
        }
