import itertools
import random
from fractions import Fraction

import pytest

from mbfreal import ksystem
from mbfreal.boolean_core import (
    ACTIVATING,
    MbfFunction,
    OrderedTuple,
    REPRESSING,
    beta_normalize,
)
from mbfreal.ksystem import (
    DegenerateKError,
    Edge,
    KCollection,
    NetworkError,
    StateTransitionGraph,
    WeightedRegulatoryNetwork,
    build_stg,
    gamma_normalize,
    k_from_json,
    k_to_json,
    k_to_mbfs,
    mbfs_to_k,
    network_from_json,
    network_to_json,
    phi_k,
    stg_to_dot,
    validate_k,
)
from mbfreal.paramgraph import build_parameter_graph

F = Fraction


def example_network(gamma1=F(1)):
    """Two nodes: 1 activates itself (threshold 3) and node 2 (threshold 2);
    node 2 represses node 1 (threshold 3/2)."""
    return WeightedRegulatoryNetwork(
        nodes=(("1", gamma1), ("2", F(1))),
        edges=(
            Edge("1", "1", ACTIVATING, F(3)),
            Edge("1", "2", ACTIVATING, F(2)),
            Edge("2", "1", REPRESSING, F(3, 2)),
        ),
    )


def example_k(k1_empty=F(1, 2)):
    return KCollection.from_dict(
        {
            "1": {
                (frozenset(), frozenset()): k1_empty,
                (frozenset(), frozenset({"2"})): F(1, 10),
                (frozenset({"1"}), frozenset()): F(6),
                (frozenset({"1"}), frozenset({"2"})): F(5),
            },
            "2": {
                (frozenset(), frozenset()): F(1, 5),
                (frozenset({"1"}), frozenset()): F(2, 5),
            },
        }
    )


EXPECTED_STG_EDGES = {
    ((1, 1), (1, 1)),
    ((2, 1), (1, 1)),
    ((3, 1), (3, 1)),
    ((1, 2), (1, 1)),
    ((2, 2), (1, 2)),
    ((2, 2), (2, 1)),
    ((3, 2), (3, 1)),
}


# ---------------------------------------------------------------- validation

def test_example_k_is_valid():
    assert validate_k(example_network(), example_k()) == []


def test_repressor_monotonicity_violation():
    bad = example_k().as_dict()
    bad["1"][(frozenset(), frozenset({"2"}))] = F(3, 5)  # above K[{},{}] = 1/2
    problems = validate_k(example_network(), KCollection.from_dict(bad))
    assert len(problems) == 1
    assert "repressor" in problems[0]


def test_all_equal_k_is_valid():
    flat = {
        node: {key: F(1) for key in cells}
        for node, cells in example_k().as_dict().items()
    }
    assert validate_k(example_network(), KCollection.from_dict(flat)) == []


def test_missing_entry_raises():
    partial = example_k().as_dict()
    del partial["2"][(frozenset({"1"}), frozenset())]
    with pytest.raises(KeyError):
        validate_k(example_network(), KCollection.from_dict(partial))


def test_network_validation():
    with pytest.raises(NetworkError):
        WeightedRegulatoryNetwork(
            (("1", F(1)),),
            (Edge("1", "1", ACTIVATING, F(1)), Edge("1", "1", ACTIVATING, F(2))),
        )
    with pytest.raises(NetworkError):
        WeightedRegulatoryNetwork(
            (("1", F(1)), ("2", F(1))),
            (Edge("1", "1", ACTIVATING, F(1)), Edge("1", "2", ACTIVATING, F(1))),
        )


# ---------------------------------------------------------------- dynamics

def test_phi_known_states():
    phi = phi_k(example_network(), example_k())
    assert phi[(2, 2)] == (1, 1)
    assert phi[(1, 1)] == (1, 1)
    assert phi[(3, 1)] == (3, 1)


def test_phi_zero_k():
    zero = {
        node: {key: F(0) for key in cells}
        for node, cells in example_k().as_dict().items()
    }
    phi = phi_k(example_network(), KCollection.from_dict(zero))
    assert all(image == (1, 1) for image in phi.values())


def test_stg_matches_expected():
    stg = build_stg(phi_k(example_network(), example_k()))
    assert set(stg.edges) == EXPECTED_STG_EDGES
    assert len(stg.edges) == 7
    assert len(stg.states) == 6


def test_identity_phi_all_self_loops():
    states = [(1, 1), (1, 2), (2, 1), (2, 2)]
    stg = build_stg({s: s for s in states})
    assert set(stg.edges) == {(s, s) for s in states}


def test_stg_unit_moves_only():
    stg = build_stg(phi_k(example_network(), example_k()))
    for a, b in stg.edges:
        diff = sum(abs(x - y) for x, y in zip(a, b))
        assert diff in (0, 1)


def test_degenerate_k_rejected():
    bad = example_k().as_dict()
    bad["1"][(frozenset(), frozenset())] = F(2)  # exactly the 1->2 threshold
    with pytest.raises(DegenerateKError):
        phi_k(example_network(), KCollection.from_dict(bad))


# ---------------------------------------------------------------- K -> MBFs

def test_k_to_mbfs_example_tables():
    out = k_to_mbfs(example_network(), example_k())
    node1 = out["1"]
    assert node1.inputs == ("1", "2")
    assert node1.signs == (ACTIVATING, REPRESSING)
    assert node1.targets == ("1", "2")  # thresholds 3 > 2
    # both raw tables are true exactly on {10, 11}; y2 is irrelevant so the
    # positive normalization leaves them unchanged
    assert [f.truth for f in node1.functions] == [0b1010, 0b1010]
    node2 = out["2"]
    assert node2.inputs == ("1",)
    assert node2.functions[0] == MbfFunction.const(1, 0)


def test_adjacent_collection_single_bit():
    # raising the resting level of node 1 into the (2, 3) window flips one
    # table entry: the lower-threshold function gains the corner 00
    base = k_to_mbfs(example_network(), example_k())
    moved = k_to_mbfs(example_network(), example_k(k1_empty=F(5, 2)))
    same = [f.truth for f in base["1"].functions]
    changed = [f.truth for f in moved["1"].functions]
    assert same[0] == changed[0]
    diff = same[1] ^ changed[1]
    assert bin(diff).count("1") == 1
    assert moved["2"] == base["2"]


def test_resting_level_above_active_level_rejected():
    # raising K[2][{},{}] from 1/5 to 11/10 lifts the resting production of
    # node 2 above its activated production (2/5), which the monotonicity
    # validation must reject; the legitimate adjacent move is the one
    # exercised above
    bumped = example_k().as_dict()
    bumped["2"][(frozenset(), frozenset())] = F(11, 10)
    problems = validate_k(example_network(), KCollection.from_dict(bumped))
    assert problems and "activator" in problems[0]


def test_k_to_mbfs_zero_k():
    zero = {
        node: {key: F(0) for key in cells}
        for node, cells in example_k().as_dict().items()
    }
    out = k_to_mbfs(example_network(), KCollection.from_dict(zero))
    for nf in out.values():
        for f in nf.functions:
            assert f.truth == 0


# ---------------------------------------------------------------- MBFs -> K

def test_roundtrip_through_canonical_k():
    net = example_network()
    original = k_to_mbfs(net, example_k())
    canon_net, canon_k = mbfs_to_k(net, {n: nf.functions for n, nf in original.items()})
    assert validate_k(canon_net, canon_k) == []
    back = k_to_mbfs(canon_net, canon_k)
    assert {n: nf.functions for n, nf in back.items()} == {
        n: nf.functions for n, nf in original.items()
    }
    # the canonical representative induces the same discrete dynamics
    assert phi_k(canon_net, canon_k) == phi_k(net, example_k())


def test_all_const_one_tuples():
    net = example_network()
    tuples = {
        "1": OrderedTuple((MbfFunction.const(2, 1), MbfFunction.const(2, 1))),
        "2": OrderedTuple((MbfFunction.const(1, 1),)),
    }
    canon_net, canon_k = mbfs_to_k(net, tuples)
    for node, cells in canon_k.as_dict().items():
        b = canon_net.out_degree(node)
        assert all(v == b for v in cells.values())


def test_canonical_thresholds_are_half_integers():
    canon_net, _ = mbfs_to_k(
        example_network(), {n: nf.functions for n, nf in k_to_mbfs(example_network(), example_k()).items()}
    )
    assert canon_net.out_thresholds("1") == (F(1, 2), F(3, 2))
    assert canon_net.out_thresholds("2") == (F(1, 2),)


# ---------------------------------------------------------------- decay scaling

def test_gamma_normalize_identity_when_unit():
    net = example_network()
    assert gamma_normalize(net) == net


def test_gamma_normalize_scales_outgoing():
    # decay 2 would park K[1][{1},{}]/decay = 3 exactly on the self-threshold,
    # where the dynamics are undefined; decay 4 stays clear
    net = example_network(gamma1=F(4))
    normalized = gamma_normalize(net)
    assert normalized.out_thresholds("1") == (F(8), F(12))
    assert normalized.out_thresholds("2") == (F(3, 2),)
    assert phi_k(net, example_k()) == phi_k(normalized, example_k())


def test_doubled_decay_is_degenerate_with_example_k():
    with pytest.raises(DegenerateKError):
        phi_k(example_network(gamma1=F(2)), example_k())


def random_network(rng):
    names = ["a", "b", "c"][: rng.randint(2, 3)]
    nodes = tuple((n, F(rng.randint(1, 4), rng.randint(1, 3))) for n in names)
    edges = []
    per_source = {n: 0 for n in names}
    for s in names:
        for t in names:
            if rng.random() < 0.6:
                per_source[s] += 1
                edges.append(
                    Edge(
                        s,
                        t,
                        ACTIVATING if rng.random() < 0.5 else REPRESSING,
                        F(2 * per_source[s] + 1, 2),
                    )
                )
    if not edges:
        edges.append(Edge(names[0], names[-1], ACTIVATING, F(1, 2)))
    return WeightedRegulatoryNetwork(nodes, tuple(edges))


def random_k(rng, net):
    table = {}
    for n in net.names:
        plus = [e.source for e in net.sources(n) if e.sign == ACTIVATING]
        minus = [e.source for e in net.sources(n) if e.sign == REPRESSING]
        w = {j: rng.randint(0, 5) for j in plus}
        u = {j: rng.randint(0, 5) for j in minus}
        base = rng.randint(0, 4)
        cells = {}
        for amask in range(1 << len(plus)):
            for bmask in range(1 << len(minus)):
                a = frozenset(j for i, j in enumerate(plus) if amask >> i & 1)
                b = frozenset(j for i, j in enumerate(minus) if bmask >> i & 1)
                raw = base + sum(w[j] for j in a) + sum(u[j] for j in minus if j not in b)
                # K/decay then has fractional part 1/3, clear of the
                # half-integer thresholds
                cells[(a, b)] = (raw + F(1, 3)) * net.decay(n)
        table[n] = cells
    return KCollection.from_dict(table)


def test_random_networks_invariants():
    rng = random.Random(1812)
    for _ in range(100):
        net = random_network(rng)
        k = random_k(rng, net)
        assert validate_k(net, k) == []
        phi = phi_k(net, k)
        stg = build_stg(phi)
        for a, b in stg.edges:
            assert sum(abs(x - y) for x, y in zip(a, b)) <= 1
            if a == b:
                assert phi[a] == a
        # decay normalization leaves the state dynamics untouched
        assert phi == phi_k(gamma_normalize(net), k)


def continuous_oracle(net, k, state):
    """Independent derivation of the state image through a real-valued
    representative: pick a point inside the state's box, read off which
    thresholds it clears, and locate the target point's box."""
    names = net.names
    position = {n: i for i, n in enumerate(names)}
    rep = []
    for name, d in zip(names, state):
        ts = [F(0)] + list(net.out_thresholds(name))
        if d <= len(ts) - 1:
            rep.append((ts[d - 1] + ts[d]) / 2)
        else:
            rep.append(ts[-1] + 1)
    image = []
    for name in names:
        a, b = set(), set()
        for e in net.sources(name):
            if rep[position[e.source]] > e.threshold:
                (a if e.sign == "+" else b).add(e.source)
        target = k.value(name, frozenset(a), frozenset(b)) / net.decay(name)
        level = 1 + sum(1 for t in net.out_thresholds(name) if target > t)
        image.append(level)
    return tuple(image)


def test_commuting_diagram_oracle():
    net, k = example_network(), example_k()
    phi = phi_k(net, k)
    for state, image in phi.items():
        assert continuous_oracle(net, k, state) == image


def test_commuting_diagram_oracle_random():
    rng = random.Random(52)
    for _ in range(40):
        net = random_network(rng)
        k = random_k(rng, net)
        phi = phi_k(net, k)
        for state, image in phi.items():
            assert continuous_oracle(net, k, state) == image


def test_phi_equality_iff_same_functions():
    rng = random.Random(407)
    agree = disagree = 0
    for _ in range(60):
        net = random_network(rng)
        k1 = random_k(rng, net)
        k2 = random_k(rng, net)
        same_phi = phi_k(net, k1) == phi_k(net, k2)
        g1 = {n: nf.functions for n, nf in k_to_mbfs(net, k1).items()}
        g2 = {n: nf.functions for n, nf in k_to_mbfs(net, k2).items()}
        assert same_phi == (g1 == g2)
        agree += same_phi
        disagree += not same_phi
    assert disagree > 0  # the sample actually exercised both sides


# ---------------------------------------------------------------- serialization

def test_network_json_roundtrip():
    net = example_network(gamma1=F(7, 3))
    assert network_from_json(network_to_json(net)) == net


def test_k_json_roundtrip():
    net = example_network()
    k = example_k()
    assert k_from_json(k_to_json(k), net) == k


def test_k_json_rejects_unknown_sources():
    net = example_network()
    with pytest.raises(NetworkError):
        k_from_json('{"1": {"7": "1"}}', net)


def test_stg_dot_output():
    stg = build_stg(phi_k(example_network(), example_k()))
    dot = stg_to_dot(stg)
    assert dot.startswith("digraph")
    assert '"(2,2)" -> "(1,2)"' in dot
    assert dot.count("->") == 7


def test_input_free_node():
    net = WeightedRegulatoryNetwork(
        (("a", F(1)), ("b", F(1))),
        (Edge("a", "b", ACTIVATING, F(1)),),
    )
    k = KCollection.from_dict(
        {
            "a": {(frozenset(), frozenset()): F(1, 2)},
            "b": {(frozenset(), frozenset()): F(0), (frozenset({"a"}), frozenset()): F(2)},
        }
    )
    out = k_to_mbfs(net, k)
    assert out["a"].functions[0].n == 0
    assert "b" not in out  # no outgoing edges, no functions
    states = set(phi_k(net, k))
    assert states == {(1, 1), (2, 1)}


# ---------------------------------------------------------------- per-node tables

def _interval_index(value, thresholds):
    """1-based index of the interval containing the value among sorted
    thresholds; the value must not equal any of them."""
    index = 1
    for t in thresholds:
        if value == t:
            raise DegenerateKError(f"value {value} sits exactly on threshold {t}")
        if value > t:
            index += 1
    return index


def _reference_phi(net, k):
    """phi_k as a per-state loop: every state looks up its own K value."""
    names = net.names
    position = {name: i for i, name in enumerate(names)}
    rank = {
        name: {t: r for r, t in enumerate(net.out_thresholds(name), start=1)}
        for name in names
    }
    out = {}
    for state in net.state_space():
        image = []
        for name in names:
            a, b = set(), set()
            for e in net.sources(name):
                if state[position[e.source]] > rank[e.source][e.threshold]:
                    (a if e.sign == ACTIVATING else b).add(e.source)
            target = k.value(name, frozenset(a), frozenset(b)) / net.decay(name)
            image.append(_interval_index(target, net.out_thresholds(name)))
        out[state] = tuple(image)
    return out


def _reference_tables(net, k):
    """k_to_mbfs's raw tables, one K lookup per (target, input combination)."""
    out = {}
    for name in net.names:
        incoming = net.sources(name)
        plus = {e.source for e in incoming if e.sign == ACTIVATING}
        inputs = [e.source for e in incoming]
        tables = []
        for e in sorted(net.targets(name), key=lambda e: e.threshold, reverse=True):
            truth = 0
            for v in range(1 << len(inputs)):
                chosen = {x for i, x in enumerate(inputs) if v >> i & 1}
                value = k.value(name, frozenset(chosen & plus), frozenset(chosen - plus))
                if value > e.threshold * net.decay(name):
                    truth |= 1 << v
            tables.append(truth)
        if tables:
            out[name] = tables
    return out


def _random_draws(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        net = random_network(rng)
        yield net, random_k(rng, net)


def test_tables_match_per_state_reference():
    draws = [(example_network(), example_k()), (example_network(F(4)), example_k())]
    draws += list(_random_draws(2024, 60))
    assert any(d != 1 for net, _ in draws for _, d in net.nodes)
    for net, k in draws:
        phi = phi_k(net, k)
        assert phi == _reference_phi(net, k)
        assert build_stg(phi) == build_stg(_reference_phi(net, k))
        out = k_to_mbfs(net, k)
        reference = _reference_tables(net, k)
        assert sorted(out) == sorted(reference)
        for name, nf in out.items():
            expected = [beta_normalize(t, nf.signs) for t in reference[name]]
            assert list(nf.functions) == expected
        canon_net, canon_k = mbfs_to_k(net, {n: nf.functions for n, nf in out.items()})
        assert all(d == 1 for _, d in canon_net.nodes)
        assert phi_k(canon_net, canon_k) == _reference_phi(canon_net, canon_k) == phi
        back = k_to_mbfs(canon_net, canon_k)
        assert {n: nf.functions for n, nf in back.items()} == {
            n: nf.functions for n, nf in out.items()
        }
        for name, cells in canon_k.as_dict().items():
            for (a, b), value in cells.items():
                assert canon_k.value(name, a, b) == value


def test_gamma_normalize_scales_or_returns_the_network():
    net = example_network()
    assert gamma_normalize(net) is net
    scaled = example_network(F(7, 3))
    normalized = gamma_normalize(scaled)
    assert normalized is not scaled
    assert all(d == 1 for _, d in normalized.nodes)
    assert normalized.edges == tuple(
        Edge(e.source, e.target, e.sign, e.threshold * scaled.decay(e.source))
        for e in scaled.edges
    )


def test_tables_keep_degenerate_and_missing_errors():
    for gamma1, k1_empty in ((F(1), F(2)), (F(2), F(1, 2))):
        net, k = example_network(gamma1), example_k(k1_empty)
        with pytest.raises(DegenerateKError):
            phi_k(net, k)
        with pytest.raises(DegenerateKError):
            _reference_phi(net, k)
    with pytest.raises(DegenerateKError):
        k_to_mbfs(example_network(), example_k(F(2)))
    partial = example_k().as_dict()
    del partial["1"][(frozenset(), frozenset({"2"}))]
    partial = KCollection.from_dict(partial)
    message = "missing K[1][[],['2']]"
    for call in (
        lambda: validate_k(example_network(), partial),
        lambda: phi_k(example_network(), partial),
        lambda: k_to_mbfs(example_network(), partial),
        lambda: partial.value("1", frozenset(), frozenset({"2"})),
    ):
        with pytest.raises(KeyError) as info:
            call()
        assert info.value.args == (message,)
    with pytest.raises(KeyError) as info:
        partial.value("9", frozenset(), frozenset())
    assert info.value.args == ("no K entries for node '9'",)


def test_lookups_of_unknown_nodes():
    net = example_network()
    assert net.sources("9") == ()
    assert net.targets("9") == ()
    with pytest.raises(NetworkError):
        net.decay("9")


def test_cached_network_compares_and_hashes_by_fields():
    used = example_network(F(4))
    phi_k(used, example_k())
    k_to_mbfs(used, example_k())
    assert "_incoming" in vars(used)
    fresh = example_network(F(4))
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert used != example_network()
    k = example_k()
    k.value("1", frozenset(), frozenset())
    assert k == example_k() and hash(k) == hash(example_k())


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"nodes": "ab", "edges": []}',
        '{"nodes": [{"name": "a", "decay": null}], "edges": []}',
        '{"nodes": [{"name": "a", "decay": "1/0"}], "edges": []}',
        '{"nodes": [{"name": 3, "decay": 1}], "edges": []}',
        '{"nodes": [{"name": "a", "decay": 1}]}',
        '{"nodes": [{"name": "a", "decay": 1}], "edges": [7]}',
        '{"nodes": [{"name": "a", "decay": 1}], "edges": [{"source": "a"}]}',
        # JSON booleans load as bool, an int, but are no numbers
        '{"nodes": [{"name": "a", "decay": true}], "edges": []}',
        '{"nodes": [{"name": "a", "decay": 1}], "edges": '
        '[{"source": "a", "target": "a", "sign": "+", "threshold": true}]}',
        # a K file joins source names with commas, so an empty name would
        # key the {""} cell like the {} cell, and "a,b" would read as two
        '{"nodes": [{"name": "", "decay": 1}], "edges": '
        '[{"source": "", "target": "", "sign": "+", "threshold": 1}]}',
        '{"nodes": [{"name": "a,b", "decay": 1}], "edges": '
        '[{"source": "a,b", "target": "a,b", "sign": "+", "threshold": 1}]}',
        '{"nodes": [{"name": "a", "decay": 1}, {"name": ",", "decay": 1}], "edges": []}',
        # mbfreal pg names a file after each node and heads a CSV column with
        # it: a path separator, a quote or a character that does not print
        '{"nodes": [{"name": "../escaped", "decay": 1}], "edges": []}',
        '{"nodes": [{"name": "a\\\\b", "decay": 1}], "edges": []}',
        '{"nodes": [{"name": "q\\"x", "decay": 1}], "edges": []}',
        '{"nodes": [{"name": "x\\ny", "decay": 1}], "edges": []}',
        '{"nodes": [{"name": "x\\ty", "decay": 1}], "edges": []}',
        '{"nodes": [{"name": "x\\u0000", "decay": 1}], "edges": []}',
    ],
)
def test_network_json_shape_errors(text):
    with pytest.raises(NetworkError):
        network_from_json(text)


@pytest.mark.parametrize(
    "text",
    ['[]', '{"1": 5}', '{"1": {"": [1]}}', '{"1": {"": null}}', '{"1": {"": "x"}}',
     '{"zz": {"": "5"}}', '{"1": {"": false}}', '{"1": {"": true}}',
     # two keys naming one source set: reordered, or with a repeated source
     '{"1": {"1,2": "5", "2,1": "7"}}', '{"1": {"1": "6", "1,1": "7"}}'],
)
def test_k_json_shape_errors(text):
    with pytest.raises(NetworkError):
        k_from_json(text, example_network())


def test_k_json_names_both_keys_of_one_source_set():
    with pytest.raises(NetworkError) as info:
        k_from_json('{"1": {"": "1", "1,2": "5", "2,1": "7"}}', example_network())
    assert info.value.args == ("K keys '1,2' and '2,1' of 1 name the same sources",)


# ---------------------------------------------------------------- compiled plans

def _reference_subsets(items):
    items = tuple(items)
    return [
        frozenset(c)
        for r in range(len(items) + 1)
        for c in itertools.combinations(items, r)
    ]


def _reference_validate(net, k):
    """validate_k as a nested loop over the subsets of each node's
    activators and repressors, comparing the Fraction values."""
    violations = []
    for name in net.names:
        incoming = net.sources(name)
        plus = [e.source for e in incoming if e.sign == ACTIVATING]
        minus = [e.source for e in incoming if e.sign == REPRESSING]
        cells = k._index.get(name)
        if cells is None:
            raise KeyError(f"no K entries for node {name!r}")
        plus_subsets, minus_subsets = _reference_subsets(plus), _reference_subsets(minus)
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


def _outcome(call):
    """The call's result, or the type and arguments of what it raised."""
    try:
        return "ok", call()
    except (KeyError, NetworkError, DegenerateKError) as exc:
        return type(exc).__name__, exc.args


def _validation_draws():
    """The example K and the 60 random draws, each also once perturbed: one
    cell set to another cell's value of the same node (ties), negated, or set
    to a random fraction; one draw loses a cell and one a whole node.  Two
    example draws put a value on a scaled threshold."""
    rng = random.Random(3031)
    draws = [(example_network(), example_k()), (example_network(F(4)), example_k())]
    draws += [(example_network(), example_k(F(2))), (example_network(F(2)), example_k())]
    for index, (net, k) in enumerate(_random_draws(2024, 60)):
        draws.append((net, k))
        table = k.as_dict()
        node = rng.choice(sorted(table))
        keys = sorted(table[node], key=lambda ab: (sorted(ab[0]), sorted(ab[1])))
        key = rng.choice(keys)
        if index == 0:
            del table[node][key]
        elif index == 1:
            del table[node]
        elif index % 3 == 0:
            table[node][key] = table[node][rng.choice(keys)]
        elif index % 3 == 1:
            table[node][key] = -table[node][key] - F(1, 7)
        else:
            table[node][key] = F(rng.randint(-2, 14), rng.randint(1, 4))
        draws.append((net, KCollection.from_dict(table)))
    return draws


def _checked_reference_phi(net, k):
    problems = _reference_validate(net, k)
    if problems:
        raise NetworkError("K violates monotonicity: " + "; ".join(problems))
    return _reference_phi(net, k)


def test_validate_k_matches_nested_loop_reference():
    seen = set()
    for net, k in _validation_draws():
        got = _outcome(lambda: validate_k(net, k))
        assert got == _outcome(lambda: _reference_validate(net, k))
        seen.add(got[0])
        if got[0] == "ok":
            seen.update(
                kind for kind in ("negative", "activator", "repressor")
                for message in got[1] if kind in message
            )
        phi = _outcome(lambda: phi_k(net, k))
        assert phi == _outcome(lambda: _checked_reference_phi(net, k))
        seen.add(phi[0])
        out = _outcome(lambda: k_to_mbfs(net, k))
        if phi[0] == "ok":
            reference = _reference_tables(net, k)
            assert {n: list(nf.functions) for n, nf in out[1].items()} == {
                n: [beta_normalize(t, out[1][n].signs) for t in tables]
                for n, tables in reference.items()
            }
        else:
            assert out[0] == phi[0]
            if phi[0] != "DegenerateKError":
                assert out == phi
    # the draws reach every outcome and every kind of violation
    assert seen == {
        "ok", "KeyError", "NetworkError", "DegenerateKError",
        "negative", "activator", "repressor",
    }


def test_degenerate_messages_are_pinned():
    # node 1's values 2 and 3 sit on its thresholds 2 (1->2) and 3 (1->1):
    # phi_k reports the first activity combination, k_to_mbfs the largest
    # threshold first
    table = example_k().as_dict()
    table["1"][(frozenset(), frozenset())] = F(2)
    table["1"][(frozenset({"1"}), frozenset())] = F(3)
    table["1"][(frozenset({"1"}), frozenset({"2"}))] = F(5, 2)
    k = KCollection.from_dict(table)
    assert validate_k(example_network(), k) == []
    with pytest.raises(DegenerateKError) as info:
        phi_k(example_network(), k)
    assert info.value.args == ("value 2 sits exactly on threshold 2",)
    with pytest.raises(DegenerateKError) as info:
        k_to_mbfs(example_network(), k)
    assert info.value.args == ("K value 3 equals normalized threshold of 1->1",)
    # with decay 4 the values are compared with the thresholds times 4
    table = example_k().as_dict()
    table["1"][(frozenset({"1"}), frozenset())] = F(12)
    k = KCollection.from_dict(table)
    with pytest.raises(DegenerateKError) as info:
        phi_k(example_network(F(4)), k)
    assert info.value.args == ("value 3 sits exactly on threshold 3",)
    with pytest.raises(DegenerateKError) as info:
        k_to_mbfs(example_network(F(4)), k)
    assert info.value.args == ("K value 12 equals normalized threshold of 1->1",)


def _assignment(net, k):
    return {n: nf.functions for n, nf in k_to_mbfs(net, k).items()}


def test_mbfs_to_k_returns_one_canonical_network():
    net = example_network(F(4))
    assignment = _assignment(net, example_k())
    first, k1 = mbfs_to_k(net, assignment)
    second, k2 = mbfs_to_k(net, assignment)
    assert first is second
    assert first == WeightedRegulatoryNetwork(first.nodes, first.edges)
    assert first == WeightedRegulatoryNetwork(
        (("1", F(1)), ("2", F(1))),
        (
            Edge("1", "1", ACTIVATING, F(3, 2)),
            Edge("1", "2", ACTIVATING, F(1, 2)),
            Edge("2", "1", REPRESSING, F(1, 2)),
        ),
    )
    assert k1 == k2 == KCollection.from_dict(k1.as_dict())


def test_mbfs_to_k_names_missing_and_unknown_nodes():
    net = example_network()
    assignment = _assignment(net, example_k())
    with pytest.raises(NetworkError) as info:
        mbfs_to_k(net, {})
    assert info.value.args == ("no functions for node '1'",)
    with pytest.raises(NetworkError) as info:
        mbfs_to_k(net, {"1": assignment["1"]})
    assert info.value.args == ("no functions for node '2'",)
    with pytest.raises(NetworkError) as info:
        mbfs_to_k(net, {**assignment, "zz": assignment["2"]})
    assert info.value.args == ("functions for 'zz', which is not a node of the network",)


def three_node_network():
    """Three nodes with unit decay; node 1 regulates itself and both others."""
    return WeightedRegulatoryNetwork(
        nodes=(("1", F(1)), ("2", F(1)), ("3", F(1))),
        edges=(
            Edge("1", "1", ACTIVATING, F(3)),
            Edge("1", "2", ACTIVATING, F(2)),
            Edge("1", "3", ACTIVATING, F(1)),
            Edge("2", "1", REPRESSING, F(3, 2)),
            Edge("3", "1", ACTIVATING, F(5, 2)),
        ),
    )


def test_round_trip_on_parameter_graph_vertices():
    net = three_node_network()
    pg = build_parameter_graph(net)
    assert len(pg.vertices) == 7983
    for vertex in pg.vertices[::97]:
        assignment = {
            name: OrderedTuple(factor.vertices[i])
            for name, factor, i in zip(pg.node_names, pg.factors, vertex)
        }
        canon_net, k = mbfs_to_k(net, assignment)
        copy = KCollection.from_dict(k.as_dict())
        assert k == copy and k._integers == copy._integers
        # the table mbfs_to_k keeps from its counts is the one the K's
        # values give: violations and every node's clearances
        kept = k.__dict__["_table"]
        assert kept[0] is canon_net
        assert kept[1:] == ksystem._table(canon_net, copy)
        assert validate_k(canon_net, k) == _reference_validate(canon_net, k) == []
        phi = phi_k(canon_net, k)
        assert phi == _reference_phi(canon_net, k)
        assert build_stg(phi) == _reference_stg(phi)
        assert _assignment(canon_net, k) == assignment


def _reference_stg(phi):
    """The unit-step graph built per coordinate from tuple slices, then
    sorted."""
    states = tuple(sorted(phi))
    edges = []
    for d in states:
        image = phi[d]
        if image == d:
            edges.append((d, d))
            continue
        for i, (cur, tgt) in enumerate(zip(d, image)):
            if tgt > cur:
                edges.append((d, d[:i] + (cur + 1,) + d[i + 1 :]))
            elif tgt < cur:
                edges.append((d, d[:i] + (cur - 1,) + d[i + 1 :]))
    return StateTransitionGraph(states, tuple(sorted(edges)))


def test_stg_matches_sorting_reference_on_random_self_maps():
    rng = random.Random(1515)
    for _ in range(200):
        levels = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        states = list(itertools.product(*(range(1, c + 1) for c in levels)))
        # about a fifth of the states are fixed, the rest move on any number
        # of coordinates at once
        phi = {
            d: d if rng.random() < 0.2 else rng.choice(states)
            for d in states
        }
        assert build_stg(phi) == _reference_stg(phi)
    empty = {(): ()}
    assert build_stg(empty) == _reference_stg(empty) == StateTransitionGraph(
        ((),), (((), ()),)
    )


def test_stg_step_tables_of_equal_sized_state_sets():
    # a 2x2 grid and a one-node line of 4 levels have 4 states each, the
    # three-node network and a 4x4 grid 16 each; their graphs are built in
    # turn, so each one reads its own state set's step table
    rng = random.Random(1919)
    net = three_node_network()
    pg = build_parameter_graph(net)
    state_sets = [
        list(itertools.product((1, 2), (1, 2))),
        [(level,) for level in range(1, 5)],
        list(net._canonical._states),
        list(itertools.product(range(1, 5), range(1, 5))),
    ]
    phis = []
    for _ in range(10):
        for states in state_sets:
            phis.append({d: d if rng.random() < 0.2 else rng.choice(states) for d in states})
        vertex = rng.choice(pg.vertices)
        assignment = {
            name: OrderedTuple(factor.vertices[i])
            for name, factor, i in zip(pg.node_names, pg.factors, vertex)
        }
        phis.append(phi_k(*mbfs_to_k(net, assignment)))
    for phi in phis:
        assert build_stg(phi) == _reference_stg(phi)
    assert ksystem._steps.cache_info().currsize == len(state_sets)


def test_one_k_against_several_network_objects():
    # another decay, another threshold (K[1][{1},{}] = 5 falls below it), and
    # decay 2 (a value on a threshold); each network object in turn, then
    # again, must see what a fresh K sees
    base = example_network()
    moved = WeightedRegulatoryNetwork(
        base.nodes, (Edge("1", "1", ACTIVATING, F(11, 2)),) + base.edges[1:]
    )
    nets = [base, example_network(F(4)), moved, example_network(F(2))]
    shared = example_k()
    phis = set()
    for net in nets + nets:
        for call in (validate_k, phi_k, k_to_mbfs):
            got = _outcome(lambda: call(net, shared))
            assert got == _outcome(lambda: call(net, example_k()))
            if call is phi_k:
                phis.add(repr(got))
    assert len(phis) == len(nets)


def test_validate_k_returns_a_fresh_list():
    bad = example_k().as_dict()
    bad["1"][(frozenset(), frozenset({"2"}))] = F(3, 5)
    net, k = example_network(), KCollection.from_dict(bad)
    first = validate_k(net, k)
    assert len(first) == 1
    first.clear()
    assert len(validate_k(net, k)) == 1


def test_phi_k_and_k_to_mbfs_read_each_node_once(monkeypatch):
    calls = []

    def counting(plan, k):
        calls.append(plan.name)
        return node_values(plan, k)

    node_values = ksystem._node_values
    monkeypatch.setattr(ksystem, "_node_values", counting)
    net, k = example_network(), example_k()
    phi_k(net, k)
    k_to_mbfs(net, k)
    assert validate_k(net, k) == []
    assert calls == ["1", "2"]
