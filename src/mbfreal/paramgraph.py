"""Parameter graphs: per-node factors over ordered function tuples and their
product with single-entry-flip adjacency.

A factor vertex is an ordered tuple of positive monotone functions, one per
output of the node; two vertices are adjacent when exactly one function
differs at exactly one input combination.  Flips that break the implication
order leave the vertex set, so no edge is created there.  The product graph
moves one factor along one factor edge per step.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .boolean_core import ACTIVATING, MbfFunction, OrderedTuple, enumerate_chains
from .interaction import CLASS_TAGS, KCLASS
from .realizability import check_class

MAX_FACTOR_INPUTS = 4
MAX_FACTOR_OUTPUTS = 3


@dataclass(frozen=True)
class FactorGraph:
    """All ordered function tuples of one node shape, with flip adjacency."""

    num_inputs: int
    num_outputs: int
    signs: "tuple[str, ...]"
    vertices: "tuple[tuple[MbfFunction, ...], ...]"
    edges: "tuple[tuple[int, int], ...]"


@dataclass(frozen=True)
class ParameterGraph:
    """Product of one factor per network node."""

    node_names: "tuple[str, ...]"
    factors: "tuple[FactorGraph, ...]"
    vertices: "tuple[tuple[int, ...], ...]"
    edges: "tuple[tuple[int, int], ...]"


def build_factor(
    num_inputs: int, num_outputs: int, signs: "tuple[str, ...] | None" = None
) -> FactorGraph:
    """Factor graph for a node with the given numbers of inputs and outputs.

    The vertices are ``enumerate_chains(num_inputs, num_outputs)``, in its
    order, so they are stored sign-normalized (positive functions); the
    signs are carried for interpretation only and default to all-activating.
    Edges are found on truth masks: each vertex's tuple of masks, with one
    function's mask flipped at one corner, is looked up among the vertices'
    mask tuples.
    """
    if num_inputs > MAX_FACTOR_INPUTS:
        raise ValueError(f"factor guarded at {MAX_FACTOR_INPUTS} inputs")
    if num_outputs > MAX_FACTOR_OUTPUTS:
        raise ValueError(f"factor guarded at {MAX_FACTOR_OUTPUTS} outputs")
    if num_outputs < 1:
        raise ValueError("a factor needs at least one output")
    if signs is None:
        signs = (ACTIVATING,) * num_inputs
    if len(signs) != num_inputs:
        raise ValueError("one sign per input required")
    vertices = tuple(enumerate_chains(num_inputs, num_outputs))
    # a flipped table that is not monotone, or that breaks the implication
    # order, is not a vertex, so the lookup is the whole test
    index = {tuple(f.truth for f in v): i for i, v in enumerate(vertices)}
    bits = [1 << corner for corner in range(1 << num_inputs)]
    edges = []
    for masks, pos in index.items():
        for slot, t in enumerate(masks):
            head, tail = masks[:slot], masks[slot + 1 :]
            for bit in bits:
                other = index.get(head + (t ^ bit,) + tail)
                if other is not None and other > pos:
                    edges.append((pos, other))
    return FactorGraph(num_inputs, num_outputs, tuple(signs), vertices, tuple(sorted(edges)))


def factor_for_node(net, name: str) -> FactorGraph:
    incoming = net.sources(name)
    return build_factor(
        len(incoming), net.out_degree(name), tuple(e.sign for e in incoming)
    )


def build_parameter_graph(net) -> ParameterGraph:
    """One factor per node with at least one output; vertices are tuples of
    factor vertex indices and edges move exactly one factor one step.

    Vertices are listed in row-major order, so moving slot ``s`` from factor
    vertex ``a`` to ``b`` moves the product index by ``(b - a)`` times the
    product of the later factors' sizes.
    """
    names = [name for name in net.names if net.out_degree(name) > 0]
    factors = tuple(factor_for_node(net, name) for name in names)
    vertices = tuple(itertools.product(*(range(len(f.vertices)) for f in factors)))
    # per factor, each vertex's neighbours with a larger index
    upward = []
    for factor in factors:
        up: "list[list[int]]" = [[] for _ in factor.vertices]
        for a, b in factor.edges:
            up[min(a, b)].append(max(a, b))
        upward.append(up)
    strides = [1] * len(factors)
    for slot in range(len(factors) - 2, -1, -1):
        strides[slot] = strides[slot + 1] * len(factors[slot + 1].vertices)
    # edges take their indices from one list and so share its int objects; a
    # fresh int per neighbour would add 28 bytes to every edge
    ids = list(range(len(vertices)))
    edges = []
    for pos, vertex in zip(ids, vertices):
        for coordinate, up, stride in zip(vertex, upward, strides):
            for b in up[coordinate]:
                edges.append((pos, ids[pos + (b - coordinate) * stride]))
    return ParameterGraph(tuple(names), factors, vertices, tuple(sorted(edges)))


# ---------------------------------------------------------------- annotation

def annotate_factor(factor: FactorGraph, class_tag: str):
    """check_class verdict for every factor vertex, in vertex order.

    The vertices share one ``decided`` dict, so each relabeling orbit among
    them is decided once (see ``check_class``).
    """
    decided = {}
    out = []
    for vertex in factor.vertices:
        out.append(check_class(OrderedTuple(vertex), class_tag, decided=decided))
    return tuple(out)


def annotate_realizability(pg: ParameterGraph, class_tag: str):
    """Per-product-vertex status: realizable iff every factor verdict is.

    Returns (per-factor verdict tuples, per-vertex status strings).
    """
    if class_tag != KCLASS and class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    factor_verdicts = tuple(annotate_factor(factor, class_tag) for factor in pg.factors)
    statuses = []
    for vertex in pg.vertices:
        verdicts = [factor_verdicts[slot][pos] for slot, pos in enumerate(vertex)]
        if all(v.is_realizable for v in verdicts):
            statuses.append("realizable")
        elif any(v.is_not_realizable for v in verdicts):
            statuses.append("not_realizable")
        else:
            statuses.append("unknown")
    return factor_verdicts, tuple(statuses)


# ---------------------------------------------------------------- exports

def _vertex_label(vertex) -> str:
    return "(" + ",".join(str(x) for x in vertex) + ")"


def factor_to_dot(factor: FactorGraph) -> str:
    lines = ["graph factor {"]
    for i, vertex in enumerate(factor.vertices):
        label = " ".join(f.to_hex() for f in vertex)
        lines.append(f'  v{i} [label="{label}"];')
    for a, b in factor.edges:
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pg_to_dot(pg: ParameterGraph) -> str:
    lines = ["graph parameter_graph {"]
    for i, vertex in enumerate(pg.vertices):
        lines.append(f'  v{i} [label="{_vertex_label(vertex)}"];')
    for a, b in pg.edges:
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pg_to_json(pg: ParameterGraph) -> str:
    adjacency: "dict[str, list]" = {str(i): [] for i in range(len(pg.vertices))}
    for a, b in pg.edges:
        adjacency[str(a)].append(b)
        adjacency[str(b)].append(a)
    data = {
        "nodes": list(pg.node_names),
        "vertices": [list(v) for v in pg.vertices],
        "adjacency": {k: sorted(v) for k, v in adjacency.items()},
    }
    return json.dumps(data, indent=2) + "\n"


def vertex_table_csv(pg: ParameterGraph, annotations: "dict[str, tuple] | None" = None) -> str:
    """CSV with one row per product vertex: factor coordinates, the per-node
    function tuples in hex, and one status column per annotated class."""
    classes = sorted(annotations) if annotations else []
    header = ["vertex_index", "coordinates"]
    header += [f"{name}_functions" for name in pg.node_names]
    header += [f"verdict_{c}" for c in classes]
    lines = [",".join(header)]
    for i, vertex in enumerate(pg.vertices):
        row = [str(i), '"' + _vertex_label(vertex) + '"']
        for slot, pos in enumerate(vertex):
            funcs = pg.factors[slot].vertices[pos]
            row.append(" ".join(f.to_hex() for f in funcs))
        for c in classes:
            row.append(annotations[c][i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
