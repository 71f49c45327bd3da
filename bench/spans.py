"""Spans around the public functions of mbfreal's layers, recorded from the
benchmark's side without editing the library.

A traced run replaces each listed function by a wrapper in every ``mbfreal``
namespace that binds it (``realizability`` imports ``corner_table`` by name,
``cli`` imports ``check_class``, and so on), records one span per call with
its parent, and puts the originals back afterwards.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict

import speed

# layer module -> public functions that get a span
TRACED = {
    "boolean_core": ("enumerate_ordered_pairs", "restrict_and_collapse"),
    "interaction": ("corner_table", "enumerate_structures"),
    "linear": ("solve",),
    "realizability": (
        "check_class",
        "check_sigma",
        "monomial_certificate",
        "necessary_condition",
        "search_witness",
        "verify_witness",
    ),
    "ksystem": ("mbfs_to_k", "phi_k", "build_stg", "k_to_mbfs"),
    "paramgraph": ("build_parameter_graph", "annotate_realizability"),
    "cli": ("main",),
}

DECISION = "realizability.check_class"


def _found(args, out):
    return {"found": int(out is not None)}


def _solve(args, out):
    from mbfreal.linear import Infeasible

    return {"rows_in": len(args[1]), "infeasible": int(isinstance(out, Infeasible))}


def _stg(args, out):
    return {"states": len(out.states), "edges": len(out.edges)}


def _graph(args, out):
    return {"vertices": len(out.vertices), "edges": len(out.edges)}


def _decision(args, out):
    tup, class_tag = args[0], args[1]
    return {"label": " ".join(f.to_hex() for f in tup) + " " + class_tag}


# per-span numbers read off the arguments and the result
OBSERVE = {
    "linear.solve": _solve,
    "realizability.search_witness": _found,
    "realizability.monomial_certificate": _found,
    "realizability.necessary_condition": _found,
    "ksystem.build_stg": _stg,
    "paramgraph.build_parameter_graph": _graph,
    DECISION: _decision,
}


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "decision", "attrs")

    def __init__(self, sid, parent, name, start, end=0.0, decision=None, attrs=None):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.decision = decision
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``install`` patches mbfreal, ``restore`` undoes it."""

    def __init__(self):
        self.spans: "list[Span]" = []
        self._stack: "list[Span]" = []
        self._patched: "list[tuple[object, str, object]]" = []

    def wrap(self, name: str, fn):
        observe = OBSERVE.get(name)
        spans = self.spans
        stack = self._stack
        clock = speed.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent.sid if parent else None, name, clock())
            if parent is not None:
                span.decision = parent.decision
            if name == DECISION and span.decision is None:
                span.decision = span.sid
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.attrs = observe(args, out)
            return out

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = {layer: importlib.import_module(f"mbfreal.{layer}") for layer in TRACED}
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "mbfreal"]
        for layer, names in TRACED.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def dump(self, path) -> None:
        """Write every span, one JSON list per line, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            for s in self.spans:
                out.write(
                    json.dumps([s.sid, s.parent, s.name, s.start, s.end, s.decision, s.attrs])
                    + "\n"
                )


def self_times(spans) -> "dict[int, float]":
    """Span duration minus the time its direct children cover.

    Children of one span run one after another in a single thread, so they
    never overlap and their durations add.
    """
    covered: "dict[int, float]" = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.sid: s.duration - covered[s.sid] for s in spans}


def layer_metrics(spans, scale: float = 1.0) -> "dict[str, float]":
    """Per-layer counts, self times and observed numbers, keyed by metric name;
    times are multiplied by ``scale``."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    out: "dict[str, float]" = defaultdict(float)
    for s in spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += own[s.sid] * scale
        if s.name == "linear.solve":
            out["linear.solve.max_ms"] = max(out["linear.solve.max_ms"], 1000 * s.duration * scale)
        if s.attrs:
            for key, value in s.attrs.items():
                if key != "label":
                    out[f"{s.name}.{key}"] += value
        if s.name == "interaction.corner_table" and _inside(s, "realizability.search_witness", by_id):
            out["realizability.search_witness.points"] += 1
    return dict(out)


def _inside(span, name, by_id) -> bool:
    parent = span.parent
    while parent is not None:
        p = by_id[parent]
        if p.name == name:
            return True
        parent = p.parent
    return False


def slowest_decisions(spans, scale: float = 1.0, count: int = 10):
    """The slowest check_class calls, each with the self time of every layer
    that ran inside it; times are multiplied by ``scale``."""
    own = self_times(spans)
    per_decision: "dict[int, dict[str, float]]" = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.decision is not None:
            per_decision[s.decision][s.name] += own[s.sid] * scale
    roots = sorted(
        (s for s in spans if s.name == DECISION and s.decision == s.sid),
        key=lambda s: -s.duration,
    )[:count]
    return [
        {
            "decision": (s.attrs or {}).get("label", "?"),
            "seconds": s.duration * scale,
            "self_s": dict(sorted(per_decision[s.sid].items(), key=lambda kv: -kv[1])),
        }
        for s in roots
    ]
