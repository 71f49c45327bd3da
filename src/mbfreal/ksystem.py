"""Weighted regulatory networks and their discrete switching dynamics.

A network carries a decay rate per node and a positive threshold per edge;
the monotone constant family K assigns a production level to every
(active activators, active repressors) combination of each node.  All
dynamics are computed on the finite domain-state set D: a state holds, per
node, the 1-based index of the interval its concentration occupies among the
node's sorted outgoing thresholds.  The induced self-map of D determines the
asynchronous state transition graph, and its equivalence classes correspond
to collections of monotone Boolean functions, one per edge.

Per-node facts (incoming edges in node order, decays, the (A, B) key of
each activity combination, the K cells) are built once per network or K
object.  ``phi_k`` tabulates each node's image level over all 2^m activity
combinations of its m inputs before visiting any state; this evaluates no
more and no fewer K values than a per-state loop, because every combination
occurs in some state (each source coordinate can be 1, below all of its
thresholds, or its out-degree + 1, above all of them).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .boolean_core import (
    ACTIVATING,
    MbfFunction,
    OrderedTuple,
    REPRESSING,
    beta_normalize,
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
    def _activity_keys(self) -> "dict[str, tuple[tuple[frozenset, frozenset], ...]]":
        """Per node, the (A, B) key of every activity combination of its
        incoming edges, indexed by the bitmask whose bit i marks edge i
        active."""
        out = {}
        for name, incoming in self._incoming.items():
            keys = [(frozenset(), frozenset())]
            for e in incoming:
                s = {e.source}
                if e.sign == ACTIVATING:
                    keys += [(a | s, b) for a, b in keys]
                else:
                    keys += [(a, b | s) for a, b in keys]
            out[name] = tuple(keys)
        return out

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


def validate_k(net: WeightedRegulatoryNetwork, k: KCollection) -> "list[str]":
    """Coverage errors raise; returned list names the monotonicity violations
    (adjacent subset pairs suffice)."""
    violations = []
    for name in net.names:
        incoming = net.sources(name)
        plus = [e.source for e in incoming if e.sign == ACTIVATING]
        minus = [e.source for e in incoming if e.sign == REPRESSING]
        cells = k._index.get(name)
        if cells is None:
            raise KeyError(f"no K entries for node {name!r}")
        plus_subsets, minus_subsets = _subsets(plus), _subsets(minus)
        for a in plus_subsets:
            for b in minus_subsets:
                if (a, b) not in cells:
                    raise KeyError(f"missing K[{name}][{sorted(a)},{sorted(b)}]")
                if cells[(a, b)] < 0:
                    violations.append(f"{name}: K[{sorted(a)},{sorted(b)}] negative")
        for a in plus_subsets:
            for b in minus_subsets:
                for j in plus:
                    if j not in a:
                        a2 = a | {j}
                        if cells[(a, b)] > cells[(a2, b)]:
                            violations.append(
                                f"{name}: K[A={sorted(a)},B={sorted(b)}] > "
                                f"K[A={sorted(a2)},B={sorted(b)}] (activator grows)"
                            )
                for j in minus:
                    if j not in b:
                        b2 = b | {j}
                        if cells[(a, b)] < cells[(a, b2)]:
                            violations.append(
                                f"{name}: K[A={sorted(a)},B={sorted(b)}] < "
                                f"K[A={sorted(a)},B={sorted(b2)}] (repressor grows)"
                            )
    return violations


# ---------------------------------------------------------------- dynamics

def _interval_index(value: Fraction, thresholds) -> int:
    """1-based index of the interval containing the value among sorted
    thresholds; the value must not equal any of them."""
    index = 1
    for t in thresholds:
        if value == t:
            raise DegenerateKError(f"value {value} sits exactly on threshold {t}")
        if value > t:
            index += 1
    return index


def phi_k(net: WeightedRegulatoryNetwork, k: KCollection) -> dict:
    """The discrete self-map of the domain-state set.

    For each state, an input counts as active when its axis coordinate lies
    above that edge's threshold (activity is determined by threshold ranks
    alone); the target level K/decay then lands in one of the node's own
    threshold intervals, giving the image coordinate.  Each node's image
    level is tabulated once per activity combination of its inputs, and each
    state only indexes the tables.
    """
    problems = validate_k(net, k)
    if problems:
        raise NetworkError("K violates monotonicity: " + "; ".join(problems))
    names = net.names
    position = {name: i for i, name in enumerate(names)}
    # sorted_out[name]: the node's outgoing thresholds, ascending;
    # rank[(source, target)]: the edge's 1-based rank among its source's
    sorted_out, rank = {}, {}
    for name in names:
        by_threshold = sorted(net.targets(name), key=lambda e: e.threshold)
        sorted_out[name] = tuple(e.threshold for e in by_threshold)
        for r, e in enumerate(by_threshold, start=1):
            rank[(e.source, e.target)] = r
    tables = []
    for name in names:
        incoming = net.sources(name)
        decay = net.decay(name)
        levels = tuple(
            _interval_index(k.value(name, a, b) / decay, sorted_out[name])
            for a, b in net._activity_keys[name]
        )
        axes = tuple(
            (1 << i, position[e.source], rank[(e.source, e.target)])
            for i, e in enumerate(incoming)
        )
        tables.append((axes, levels))
    out = {}
    for state in net.state_space():
        image = []
        for axes, levels in tables:
            v = 0
            for bit, p, r in axes:
                if state[p] > r:
                    v |= bit
            image.append(levels[v])
        out[state] = tuple(image)
    return out


@dataclass(frozen=True)
class StateTransitionGraph:
    states: "tuple[tuple[int, ...], ...]"
    edges: "tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]"


def build_stg(phi: dict) -> StateTransitionGraph:
    """Asynchronous unit-step graph: fixed states get a self-loop, every
    coordinate moving toward its image contributes one unit edge."""
    states = tuple(sorted(phi))
    edges = []
    for d in states:
        image = phi[d]
        if image == d:
            edges.append((d, d))
            continue
        for i, (cur, tgt) in enumerate(zip(d, image)):
            if tgt > cur:
                step = d[:i] + (cur + 1,) + d[i + 1 :]
                edges.append((d, step))
            elif tgt < cur:
                step = d[:i] + (cur - 1,) + d[i + 1 :]
                edges.append((d, step))
    return StateTransitionGraph(states, tuple(sorted(edges)))


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

    Decays are normalized away first; each target's function marks the input
    combinations whose production level clears that edge's scaled threshold.
    Raw tables are monotone with the edge signs and are returned
    positive-normalized.
    """
    problems = validate_k(net, k)
    if problems:
        raise NetworkError("K violates monotonicity: " + "; ".join(problems))
    normalized = gamma_normalize(net)
    out = {}
    for name in normalized.names:
        targets = sorted(
            normalized.targets(name), key=lambda e: e.threshold, reverse=True
        )
        if not targets:
            continue
        incoming = normalized.sources(name)
        signs = tuple(e.sign for e in incoming)
        values = [k.value(name, a, b) for a, b in normalized._activity_keys[name]]
        raw_tables = []
        for e in targets:
            truth = 0
            for v, value in enumerate(values):
                if value == e.threshold:
                    raise DegenerateKError(
                        f"K value {value} equals normalized threshold of "
                        f"{name}->{e.target}"
                    )
                if value > e.threshold:
                    truth |= 1 << v
            raw_tables.append(truth)
        functions = OrderedTuple(tuple(beta_normalize(t, signs) for t in raw_tables))
        inputs = tuple(e.source for e in incoming)
        out[name] = NodeFunctions(inputs, signs, tuple(e.target for e in targets), functions)
    return out


def mbfs_to_k(net: WeightedRegulatoryNetwork, assignments: dict):
    """Canonical K for a collection of per-node ordered positive functions.

    Returns the normalized network (decays 1, each node's outgoing thresholds
    moved to half-integer ranks, order preserved) and the K collection whose
    production levels count how many of the node's functions are true.
    """
    normalized = gamma_normalize(net)
    new_edges = {}
    for name in normalized.names:
        targets = sorted(
            normalized.targets(name), key=lambda e: e.threshold, reverse=True
        )
        b = len(targets)
        for j, e in enumerate(targets, start=1):
            new_edges[(e.source, e.target)] = Fraction(2 * (b - j) + 1, 2)
    canon_net = WeightedRegulatoryNetwork(
        normalized.nodes,
        tuple(
            Edge(e.source, e.target, e.sign, new_edges[(e.source, e.target)])
            for e in normalized.edges
        ),
    )
    table = {}
    for name in canon_net.names:
        incoming = canon_net.sources(name)
        keys = canon_net._activity_keys[name]
        b = canon_net.out_degree(name)
        if b == 0:
            # no outgoing thresholds: the production level never matters
            table[name] = {key: Fraction(0) for key in keys}
            continue
        functions = assignments[name]
        if len(functions) != b:
            raise NetworkError(
                f"{name} has {b} targets but {len(functions)} functions"
            )
        if functions.n != len(incoming):
            raise NetworkError(
                f"{name} has {len(incoming)} inputs but arity {functions.n}"
            )
        flip = sum(
            1 << i for i, e in enumerate(incoming) if e.sign == REPRESSING
        )
        table[name] = {
            key: Fraction(sum(f.truth >> (v ^ flip) & 1 for f in functions))
            for v, key in enumerate(keys)
        }
    return canon_net, KCollection.from_dict(table)


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
    if not isinstance(value, (str, int, float)):
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
        parsed = {}
        for key, v in cells.items():
            members = set(key.split(",")) if key else set()
            if not members <= plus | minus:
                raise NetworkError(f"K key {key!r} names non-sources of {node}")
            parsed[(frozenset(members & plus), frozenset(members & minus))] = _number(
                v, f"K[{node}][{key}]"
            )
        table[node] = parsed
    return KCollection.from_dict(table)
