"""Weighted regulatory networks and their discrete switching dynamics.

A network carries a decay rate per node and a positive threshold per edge;
the monotone constant family K assigns a production level to every
(active activators, active repressors) combination of each node.  All
dynamics are computed on the finite domain-state set D: a state holds, per
node, the 1-based index of the interval its concentration occupies among the
node's sorted outgoing thresholds.  The induced self-map of D determines the
asynchronous state transition graph, and its equivalence classes correspond
to collections of monotone Boolean functions, one per edge.

Each network object compiles, once, its canonical network (the one
``mbfs_to_k`` returns, the same object on every call) and one plan per node
(``_NodePlan``) that ``validate_k``, ``phi_k``, ``k_to_mbfs`` and
``mbfs_to_k`` share: the (A, B) key of every activity combination, the
adjacent monotone pairs, the outgoing thresholds scaled by the decay, and
the node's activity combination in every domain state.  K values are
compared with each other and with the scaled thresholds in exact integers:
each node's values times their common denominator.  Once per (network
object, K), the violation list and every node's threshold clearances are
computed from those integers and kept on the K for the network object it
was last used with, compared by identity, so ``validate_k``, ``phi_k`` and
``k_to_mbfs`` on one pair read each node's values once.  ``mbfs_to_k``
computes that table from its counts (denominator 1) with the same code, and
keeps it on the K it returns for the canonical network.
``phi_k`` tabulates each node's image level over all 2^m
activity combinations of its m inputs before visiting any state; this
evaluates no more and no fewer K values than a per-state loop, because every
combination occurs in some state (each source coordinate can be 1, below all
of its thresholds, or its out-degree + 1, above all of them).  ``build_stg``
reads every edge it can emit from a step table built once per state set.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .boolean_core import (
    ACTIVATING,
    MbfFunction,
    OrderedTuple,
    REPRESSING,
)


class NetworkError(ValueError):
    pass


class DegenerateKError(ValueError):
    """A K value sitting exactly on a scaled threshold; the dynamics are
    undefined there."""


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    sign: str
    threshold: Fraction


@dataclass(frozen=True)
class WeightedRegulatoryNetwork:
    """Signed digraph with decay rates on nodes and thresholds on edges.

    Per-node lookups are computed once per network object and cached outside
    the fields, so equality and hashing see only ``nodes`` and ``edges``.
    """

    nodes: "tuple[tuple[str, Fraction], ...]"  # (name, decay)
    edges: "tuple[Edge, ...]"

    def __post_init__(self) -> None:
        names = self.names
        if len(set(names)) != len(names):
            raise NetworkError("duplicate node names")
        for name, decay in self.nodes:
            # a K file keys each cell by its source names joined with commas,
            # the vertex table heads a column with each name, and each factor
            # graph file is named after its node
            if not name:
                raise NetworkError("node names must be non-empty")
            if "," in name:
                raise NetworkError(f"node name {name!r} contains a comma")
            bad = next((c for c in name if c in '/\\"' or not c.isprintable()), None)
            if bad is not None:
                raise NetworkError(f"node name {name!r} contains {bad!r}")
            if decay <= 0:
                raise NetworkError(f"decay of {name} must be positive")
        seen_pairs = set()
        per_source: "dict[str, set]" = {}
        for e in self.edges:
            if e.source not in names or e.target not in names:
                raise NetworkError(f"edge {e.source}->{e.target} references unknown node")
            if e.sign not in (ACTIVATING, REPRESSING):
                raise NetworkError(f"bad sign {e.sign!r}")
            if e.threshold <= 0:
                raise NetworkError("thresholds must be positive")
            if (e.source, e.target) in seen_pairs:
                raise NetworkError(f"duplicate edge {e.source}->{e.target}")
            seen_pairs.add((e.source, e.target))
            if e.threshold in per_source.setdefault(e.source, set()):
                raise NetworkError(
                    f"outgoing thresholds of {e.source} must be pairwise distinct"
                )
            per_source[e.source].add(e.threshold)

    # -- structure helpers ------------------------------------------------

    @cached_property
    def names(self) -> "tuple[str, ...]":
        return tuple(name for name, _ in self.nodes)

    @cached_property
    def _decays(self) -> "dict[str, Fraction]":
        return dict(self.nodes)

    @cached_property
    def _incoming(self) -> "dict[str, tuple[Edge, ...]]":
        order = {n: i for i, n in enumerate(self.names)}
        incoming: "dict[str, list]" = {n: [] for n in self.names}
        for e in sorted(self.edges, key=lambda e: order[e.source]):
            incoming[e.target].append(e)
        return {n: tuple(edges) for n, edges in incoming.items()}

    @cached_property
    def _outgoing(self) -> "dict[str, tuple[Edge, ...]]":
        outgoing: "dict[str, list]" = {n: [] for n in self.names}
        for e in self.edges:
            outgoing[e.source].append(e)
        return {n: tuple(edges) for n, edges in outgoing.items()}

    @cached_property
    def _ranks(self) -> "dict[tuple[str, str], int]":
        """Each edge's 1-based rank among its source's outgoing thresholds,
        ascending."""
        ranks = {}
        for outgoing in self._outgoing.values():
            for r, e in enumerate(sorted(outgoing, key=lambda e: e.threshold), start=1):
                ranks[(e.source, e.target)] = r
        return ranks

    @cached_property
    def _states(self) -> "tuple[tuple[int, ...], ...]":
        return tuple(self.state_space())

    @cached_property
    def _plans(self) -> "tuple[_NodePlan, ...]":
        """One compiled plan per node, in node order."""
        return tuple(_NodePlan.compile(self, name) for name in self.names)

    @cached_property
    def _canonical(self) -> "WeightedRegulatoryNetwork":
        """Decays 1, and each node's outgoing thresholds moved to the
        half-integers 1/2, 3/2, ... in their order."""
        ranks = self._ranks
        return WeightedRegulatoryNetwork(
            tuple((name, Fraction(1)) for name in self.names),
            tuple(
                Edge(e.source, e.target, e.sign, Fraction(2 * ranks[(e.source, e.target)] - 1, 2))
                for e in self.edges
            ),
        )

    def decay(self, name: str) -> Fraction:
        try:
            return self._decays[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def sources(self, name: str) -> "tuple[Edge, ...]":
        """Incoming edges, ordered by the network's node order."""
        return self._incoming.get(name, ())

    def targets(self, name: str) -> "tuple[Edge, ...]":
        return self._outgoing.get(name, ())

    def out_thresholds(self, name: str) -> "tuple[Fraction, ...]":
        return tuple(sorted(e.threshold for e in self.targets(name)))

    def out_degree(self, name: str) -> int:
        return len(self.targets(name))

    def state_space(self):
        """All 1-based domain states, in row-major node order."""
        ranges = [range(1, self.out_degree(name) + 2) for name in self.names]
        return itertools.product(*ranges)


def gamma_normalize(net: WeightedRegulatoryNetwork) -> WeightedRegulatoryNetwork:
    """Set every decay to 1, scaling each node's outgoing thresholds by its
    decay; the induced state dynamics are unchanged.  A network whose decays
    are all 1 is returned as it is."""
    if all(d == 1 for _, d in net.nodes):
        return net
    decays = net._decays
    edges = tuple(
        Edge(e.source, e.target, e.sign, e.threshold * decays[e.source])
        for e in net.edges
    )
    nodes = tuple((name, Fraction(1)) for name, _ in net.nodes)
    return WeightedRegulatoryNetwork(nodes, edges)


# ---------------------------------------------------------------- K collections

@dataclass(frozen=True)
class KCollection:
    """Per node, the production level for each (A, B) activity combination.

    ``entries[node][(A, B)]`` with A the active activators and B the active
    repressors, both frozensets of source node names.
    """

    entries: "tuple[tuple[str, tuple], ...]"

    @classmethod
    def from_dict(cls, mapping) -> "KCollection":
        entries = []
        for node in sorted(mapping):
            cells = tuple(
                sorted(
                    (
                        ((frozenset(a), frozenset(b)), Fraction(v))
                        for (a, b), v in mapping[node].items()
                    ),
                    key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1])),
                )
            )
            entries.append((node, cells))
        return cls(tuple(entries))

    @cached_property
    def _index(self) -> "dict[str, dict]":
        return {node: dict(cells) for node, cells in self.entries}

    @cached_property
    def _integers(self) -> "dict[str, tuple[int, dict]]":
        """Per node, the common denominator of its K values and each value
        times it."""
        out = {}
        for node, cells in self.entries:
            den = math.lcm(*(v.denominator for _, v in cells))
            out[node] = (den, {key: v.numerator * (den // v.denominator) for key, v in cells})
        return out

    def as_dict(self) -> dict:
        return {node: dict(cells) for node, cells in self._index.items()}

    def value(self, node: str, a: frozenset, b: frozenset) -> Fraction:
        cells = self._index.get(node)
        if cells is None:
            raise KeyError(f"no K entries for node {node!r}")
        try:
            return cells[(a, b)]
        except KeyError:
            raise KeyError(f"missing K[{node}][{sorted(a)},{sorted(b)}]") from None


def _subsets(items) -> "list[frozenset]":
    items = tuple(items)
    return [
        frozenset(c)
        for r in range(len(items) + 1)
        for c in itertools.combinations(items, r)
    ]


@dataclass(frozen=True)
class _NodePlan:
    """One node's facts for ``validate_k``, ``phi_k``, ``k_to_mbfs`` and
    ``mbfs_to_k``, compiled once per network object.

    Activity combinations are bitmasks whose bit i marks incoming edge i
    (in node order) active; ``keys[v]`` is the (A, B) key of bitmask v.
    """

    name: str
    inputs: "tuple[str, ...]"
    signs: "tuple[str, ...]"
    keys: "tuple[tuple[frozenset, frozenset], ...]"
    labels: "tuple[str, ...]"  # per bitmask, the key as the messages print it
    order: "tuple[int, ...]"  # bitmasks in validate_k's order
    pairs: "tuple[tuple[int, int, str], ...]"  # (x, y, message): K[x] > K[y] violates
    flip: int  # bitmask of the repressing inputs
    cell_order: "tuple[int, ...]"  # bitmasks in KCollection.from_dict's cell order
    bound_den: int
    bounds: "tuple[int, ...]"  # ascending thresholds times decay, times bound_den
    targets: "tuple[str, ...]"  # edge targets, largest threshold first
    levels: "tuple[Fraction, ...]"  # 0..out-degree, the canonical K values
    masks: "tuple[int, ...]"  # the activity bitmask in each domain state

    @classmethod
    def compile(cls, net: WeightedRegulatoryNetwork, name: str) -> "_NodePlan":
        incoming = net.sources(name)
        bit = {e.source: 1 << i for i, e in enumerate(incoming)}
        keys = [(frozenset(), frozenset())]
        for e in incoming:
            s = {e.source}
            if e.sign == ACTIVATING:
                keys += [(a | s, b) for a, b in keys]
            else:
                keys += [(a, b | s) for a, b in keys]
        plus = [e.source for e in incoming if e.sign == ACTIVATING]
        minus = [e.source for e in incoming if e.sign == REPRESSING]
        order, pairs = [], []
        for a in _subsets(plus):
            for b in _subsets(minus):
                v = sum(bit[j] for j in a | b)
                order.append(v)
                for j in plus:
                    if j not in a:
                        pairs.append((v, v | bit[j], (
                            f"{name}: K[A={sorted(a)},B={sorted(b)}] > "
                            f"K[A={sorted(a | {j})},B={sorted(b)}] (activator grows)"
                        )))
                for j in minus:
                    if j not in b:
                        pairs.append((v | bit[j], v, (
                            f"{name}: K[A={sorted(a)},B={sorted(b)}] < "
                            f"K[A={sorted(a)},B={sorted(b | {j})}] (repressor grows)"
                        )))
        decay = net.decay(name)
        outgoing = sorted(net.targets(name), key=lambda e: e.threshold)
        scaled = [e.threshold * decay for e in outgoing]
        bound_den = math.lcm(*(t.denominator for t in scaled))
        position = {n: i for i, n in enumerate(net.names)}
        axes = [
            (1 << i, position[e.source], net._ranks[(e.source, e.target)])
            for i, e in enumerate(incoming)
        ]
        return cls(
            name=name,
            inputs=tuple(e.source for e in incoming),
            signs=tuple(e.sign for e in incoming),
            keys=tuple(keys),
            labels=tuple(f"{sorted(a)},{sorted(b)}" for a, b in keys),
            order=tuple(order),
            pairs=tuple(pairs),
            flip=sum(bit[j] for j in minus),
            cell_order=tuple(
                sorted(range(len(keys)), key=lambda v: (sorted(keys[v][0]), sorted(keys[v][1])))
            ),
            bound_den=bound_den,
            bounds=tuple(t.numerator * (bound_den // t.denominator) for t in scaled),
            targets=tuple(e.target for e in reversed(outgoing)),
            levels=tuple(Fraction(c) for c in range(len(outgoing) + 1)),
            masks=tuple(
                sum(flag for flag, p, r in axes if state[p] > r) for state in net._states
            ),
        )


def _node_values(plan: _NodePlan, k: KCollection) -> "tuple[int, list[int]]":
    """The common denominator of the node's K values, and each value times
    it, indexed by activity bitmask."""
    try:
        den, cells = k._integers[plan.name]
    except KeyError:
        raise KeyError(f"no K entries for node {plan.name!r}") from None
    try:
        return den, [cells[key] for key in plan.keys]
    except KeyError:
        v = next(v for v in plan.order if plan.keys[v] not in cells)
        raise KeyError(f"missing K[{plan.name}][{plan.labels[v]}]") from None


def _clearances(plan: _NodePlan, den: int, values: "list[int]"):
    """Per activity bitmask, how many of the node's scaled thresholds its K
    value exceeds, and the (bitmask, threshold index) pairs where the value
    sits exactly on one.  A value p / den exceeds a threshold
    q / bound_den when p * bound_den > q * den."""
    bounds = [q * den for q in plan.bounds]
    counts, on = [], []
    for v, p in enumerate(values):
        x = p * plan.bound_den
        i = bisect_left(bounds, x)
        if i < len(bounds) and bounds[i] == x:
            on.append((v, i))
        counts.append(i)
    return counts, on


def _node_table(plan: _NodePlan, den: int, values: "list[int]"):
    """The node's part of ``_table``: its negative values and monotonicity
    violations, and its ``_clearances``."""
    violations = [
        f"{plan.name}: K[{plan.labels[v]}] negative" for v in plan.order if values[v] < 0
    ]
    violations += [message for x, y, message in plan.pairs if values[x] > values[y]]
    return violations, _clearances(plan, den, values)


def _table(net: WeightedRegulatoryNetwork, k: KCollection):
    """The violation list, and per node of ``net`` its ``_clearances``.

    Computed once per (network object, K) and kept on the K for the network
    object it was last used with; coverage errors raise and keep nothing.
    """
    kept = k.__dict__.get("_table")
    if kept is not None and kept[0] is net:
        return kept[1], kept[2]
    violations, clearances = [], []
    for plan in net._plans:
        bad, clear = _node_table(plan, *_node_values(plan, k))
        violations += bad
        clearances.append(clear)
    object.__setattr__(k, "_table", (net, violations, clearances))
    return violations, clearances


def validate_k(net: WeightedRegulatoryNetwork, k: KCollection) -> "list[str]":
    """Coverage errors raise; returned list names the negative values and the
    monotonicity violations (adjacent subset pairs suffice)."""
    return list(_table(net, k)[0])


# ---------------------------------------------------------------- dynamics

def phi_k(net: WeightedRegulatoryNetwork, k: KCollection) -> dict:
    """The discrete self-map of the domain-state set.

    For each state, an input counts as active when its axis coordinate lies
    above that edge's threshold (activity is determined by threshold ranks
    alone); the target level K/decay then lands in one of the node's own
    threshold intervals, giving the image coordinate.  Each node's image
    level is tabulated once per activity combination of its inputs, and each
    state only indexes the tables.
    """
    problems, clearances = _table(net, k)
    if problems:
        raise NetworkError("K violates monotonicity: " + "; ".join(problems))
    columns = []
    for plan, (counts, on) in zip(net._plans, clearances):
        if on:
            v, i = on[0]
            value = k.value(plan.name, *plan.keys[v]) / net.decay(plan.name)
            raise DegenerateKError(
                f"value {value} sits exactly on threshold {net.out_thresholds(plan.name)[i]}"
            )
        columns.append([counts[m] + 1 for m in plan.masks])
    # a network without nodes has the one empty state, mapped to itself
    return dict(zip(net._states, zip(*columns) if columns else [()]))


@dataclass(frozen=True)
class StateTransitionGraph:
    states: "tuple[tuple[int, ...], ...]"
    edges: "tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]"


@lru_cache(maxsize=64)
def _steps(states: "tuple[tuple[int, ...], ...]"):
    """Every edge ``build_stg`` can emit from the sorted states, built once
    per state set (all the parameter points of one network share it).

    Per state d: ``(d, loop, downs, ups)`` with ``loop`` the edge (d, d),
    ``downs`` the pairs (i, edge to d with coordinate i one lower) by
    ascending i, and ``ups`` the pairs (i, edge to d with coordinate i one
    higher) by descending i.  In sorted order a down-step precedes d, an
    up-step follows it, and a step at a lower coordinate sits further from d.
    """
    table = []
    for d in states:
        downs = tuple((i, (d, d[:i] + (d[i] - 1,) + d[i + 1 :])) for i in range(len(d)))
        ups = tuple((i, (d, d[:i] + (d[i] + 1,) + d[i + 1 :])) for i in reversed(range(len(d))))
        table.append((d, (d, d), downs, ups))
    return tuple(table)


def build_stg(phi: dict) -> StateTransitionGraph:
    """Asynchronous unit-step graph: fixed states get a self-loop, every
    coordinate moving toward its image contributes one unit edge.  Edges are
    emitted sorted: by state, then from each state the down-steps by
    ascending coordinate and the up-steps by descending coordinate.  The
    edges are taken from ``_steps``, kept per state set, so graphs over one
    state set share their edge tuples."""
    states = tuple(sorted(phi))
    edges = []
    append = edges.append
    for d, loop, downs, ups in _steps(states):
        image = phi[d]
        if image == d:
            append(loop)
            continue
        for i, edge in downs:
            if image[i] < d[i]:
                append(edge)
        for i, edge in ups:
            if image[i] > d[i]:
                append(edge)
    return StateTransitionGraph(states, tuple(edges))


def stg_to_dot(stg: StateTransitionGraph) -> str:
    def label(state):
        return "(" + ",".join(str(x) for x in state) + ")"

    lines = ["digraph stg {"]
    for state in stg.states:
        lines.append(f'  "{label(state)}";')
    for a, b in stg.edges:
        lines.append(f'  "{label(a)}" -> "{label(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- K <-> MBFs

@dataclass(frozen=True)
class NodeFunctions:
    """One node's slice of a parameter point: its ordered positive functions,
    one per target, largest threshold first."""

    inputs: "tuple[str, ...]"
    signs: "tuple[str, ...]"
    targets: "tuple[str, ...]"
    functions: OrderedTuple


def k_to_mbfs(net: WeightedRegulatoryNetwork, k: KCollection) -> dict:
    """The collection of monotone Boolean functions equivalent to [K].

    Each target's function marks the input combinations whose production
    level clears that edge's threshold scaled by the source's decay.  Raw
    tables are monotone with the edge signs and are returned
    positive-normalized.
    """
    problems, clearances = _table(net, k)
    if problems:
        raise NetworkError("K violates monotonicity: " + "; ".join(problems))
    out = {}
    for plan, (counts, on) in zip(net._plans, clearances):
        b = len(plan.targets)
        if not b:
            continue
        if on:
            # the first value on a threshold, taking the targets from the
            # largest threshold down and each over every activity bitmask
            v, i = min(on, key=lambda vi: (-vi[1], vi[0]))
            raise DegenerateKError(
                f"K value {k.value(plan.name, *plan.keys[v])} equals normalized "
                f"threshold of {plan.name}->{plan.targets[b - 1 - i]}"
            )
        # tables[j] is the function of the (j + 1)-th largest threshold, its
        # repressing inputs flipped so that it is positive; MbfFunction and
        # OrderedTuple check monotonicity and implication
        tables = [0] * b
        for v, c in enumerate(counts):
            for j in range(b - c, b):
                tables[j] |= 1 << (v ^ plan.flip)
        n = len(plan.inputs)
        functions = OrderedTuple(tuple(MbfFunction(n, t) for t in tables))
        out[plan.name] = NodeFunctions(plan.inputs, plan.signs, plan.targets, functions)
    return out


def mbfs_to_k(net: WeightedRegulatoryNetwork, assignments: dict):
    """Canonical K for a collection of per-node ordered positive functions.

    Returns the canonical network (decays 1, each node's outgoing thresholds
    moved to half-integer ranks, order preserved; one object per network)
    and the K collection whose production levels count how many of the
    node's functions are true.  A node without outgoing edges needs no
    functions and gets level 0 everywhere.  The K keeps its table for the
    canonical network (see ``_table``), computed from the counts.
    """
    for name in assignments:
        if name not in net._decays:
            raise NetworkError(f"functions for {name!r}, which is not a node of the network")
    canon_net = net._canonical
    entries, violations, clearances = [], [], []
    for plan in canon_net._plans:
        b = len(plan.targets)
        counts = [0] * len(plan.keys)
        if b:
            if plan.name not in assignments:
                raise NetworkError(f"no functions for node {plan.name!r}")
            functions = assignments[plan.name]
            if len(functions) != b:
                raise NetworkError(
                    f"{plan.name} has {b} targets but {len(functions)} functions"
                )
            if functions.n != len(plan.inputs):
                raise NetworkError(
                    f"{plan.name} has {len(plan.inputs)} inputs but arity {functions.n}"
                )
            for f in functions:
                for v in range(len(counts)):
                    counts[v] += f.truth >> (v ^ plan.flip) & 1
        cells = tuple((plan.keys[v], plan.levels[counts[v]]) for v in plan.cell_order)
        entries.append((plan.name, cells))
        # the levels are the integer counts: denominator 1
        bad, clear = _node_table(plan, 1, counts)
        violations += bad
        clearances.append(clear)
    # node names are distinct, so the sort compares names only
    k = KCollection(tuple(sorted(entries)))
    object.__setattr__(k, "_table", (canon_net, violations, clearances))
    return canon_net, k


# ---------------------------------------------------------------- serialization

def network_to_json(net: WeightedRegulatoryNetwork) -> str:
    data = {
        "nodes": [{"name": name, "decay": str(d)} for name, d in net.nodes],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "sign": e.sign,
                "threshold": str(e.threshold),
            }
            for e in net.edges
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise NetworkError(f"{what} must be a JSON object")
    return value


def _field(obj, key: str, kind, what: str):
    """``obj[key]`` of an object that must be a JSON object holding a value
    of the given type there."""
    value = _object(obj, what).get(key)
    if not isinstance(value, kind):
        raise NetworkError(f"{what} needs a {key!r} field of type {kind.__name__}")
    return value


def _number(value, what: str) -> Fraction:
    # JSON true and false load as bool, which is an int
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise NetworkError(f"{what} must be a number or a number string")
    try:
        return Fraction(value)
    except (ValueError, ArithmeticError):
        raise NetworkError(f"{what} is not a number: {value!r}") from None


def network_from_json(text: str) -> WeightedRegulatoryNetwork:
    data = json.loads(text)
    nodes = tuple(
        (_field(n, "name", str, "node"), _number(n.get("decay"), "node decay"))
        for n in _field(data, "nodes", list, "network")
    )
    edges = tuple(
        Edge(
            _field(e, "source", str, "edge"),
            _field(e, "target", str, "edge"),
            _field(e, "sign", str, "edge"),
            _number(e.get("threshold"), "edge threshold"),
        )
        for e in _field(data, "edges", list, "network")
    )
    return WeightedRegulatoryNetwork(nodes, edges)


def k_to_json(k: KCollection) -> str:
    data = {}
    for node, cells in k.entries:
        data[node] = {
            ",".join(sorted(a | b)): str(v) for (a, b), v in cells
        }
    return json.dumps(data, indent=2) + "\n"


def k_from_json(text: str, net: WeightedRegulatoryNetwork) -> KCollection:
    data = _object(json.loads(text), "K collection")
    table = {}
    for node, cells in data.items():
        if node not in net.names:
            raise NetworkError(f"K entries for {node!r}, which is not a node of the network")
        cells = _object(cells, f"K entries of {node}")
        plus = {e.source for e in net.sources(node) if e.sign == ACTIVATING}
        minus = {e.source for e in net.sources(node) if e.sign == REPRESSING}
        parsed, keys = {}, {}
        for key, v in cells.items():
            members = frozenset(key.split(",")) if key else frozenset()
            if not members <= plus | minus:
                raise NetworkError(f"K key {key!r} names non-sources of {node}")
            if members in keys:
                raise NetworkError(
                    f"K keys {keys[members]!r} and {key!r} of {node} name the same sources"
                )
            keys[members] = key
            parsed[(members & plus, members & minus)] = _number(v, f"K[{node}][{key}]")
        table[node] = parsed
    return KCollection.from_dict(table)
