import itertools
import random

import pytest

from mbfreal import realizability
from mbfreal.boolean_core import (
    ACTIVATING,
    REPRESSING,
    MbfFunction,
    OrderedTuple,
    canonical_form,
    implies,
    is_monotone_positive,
)
from mbfreal.interaction import SIGMA
from mbfreal.paramgraph import (
    FactorGraph,
    annotate_factor,
    annotate_realizability,
    build_factor,
    build_parameter_graph,
    factor_to_dot,
    pg_to_dot,
    pg_to_json,
    vertex_table_csv,
)
from mbfreal.realizability import verify_witness

from goldens import brute_force_chains
from test_ksystem import example_network, random_network


def test_single_input_single_output_path():
    factor = build_factor(1, 1)
    assert len(factor.vertices) == 3
    # constants sit at the ends; the identity is the middle of the path
    assert sorted(factor.edges) == [(0, 1), (1, 2)]


def test_two_in_two_out_vertex_count():
    factor = build_factor(2, 2)
    assert len(factor.vertices) == 20


def test_one_in_two_out_vertex_count():
    factor = build_factor(1, 2)
    assert len(factor.vertices) == 6


def test_three_in_two_out_vertex_count():
    factor = build_factor(3, 2)
    assert len(factor.vertices) == 168


def test_single_output_factor_counts():
    # a single-output factor has one vertex per monotone function
    for m, count in ((1, 3), (2, 6), (3, 20)):
        assert len(build_factor(m, 1).vertices) == count


def test_input_free_factor():
    factor = build_factor(0, 1)
    assert len(factor.vertices) == 2
    assert factor.edges == ((0, 1),)


def test_factor_guards():
    with pytest.raises(ValueError):
        build_factor(5, 1)
    with pytest.raises(ValueError):
        build_factor(2, 4)


def test_edges_flip_exactly_one_bit():
    factor = build_factor(2, 2)
    for a, b in factor.edges:
        va, vb = factor.vertices[a], factor.vertices[b]
        diffs = [
            (fa.truth ^ fb.truth) for fa, fb in zip(va, vb) if fa.truth != fb.truth
        ]
        assert len(diffs) == 1
        assert bin(diffs[0]).count("1") == 1
        assert all(implies(x, y) for x, y in zip(va, va[1:]))
        assert all(implies(x, y) for x, y in zip(vb, vb[1:]))


def test_edge_symmetry_no_self_edges():
    factor = build_factor(2, 2)
    assert all(a < b for a, b in factor.edges)
    assert len(set(factor.edges)) == len(factor.edges)


def test_two_in_two_out_edge_count_frozen():
    # frozen from the reference drawing of all 20 ordered pairs on two inputs
    factor = build_factor(2, 2)
    assert len(factor.edges) == 32


def _reference_factor(num_inputs, num_outputs):
    """The factor built by flipping every function of every vertex at every
    corner and looking the flipped tuple of functions up among the
    vertices."""
    vertices = tuple(brute_force_chains(num_inputs, num_outputs))
    index = {v: i for i, v in enumerate(vertices)}
    edges = set()
    for pos, vertex in enumerate(vertices):
        for slot, f in enumerate(vertex):
            for corner in range(1 << num_inputs):
                flipped = f.truth ^ (1 << corner)
                if not is_monotone_positive(flipped, num_inputs):
                    continue
                candidate = (
                    vertex[:slot]
                    + (MbfFunction(num_inputs, flipped),)
                    + vertex[slot + 1 :]
                )
                other = index.get(candidate)
                if other is not None and other > pos:
                    edges.add((pos, other))
    return FactorGraph(
        num_inputs, num_outputs, (ACTIVATING,) * num_inputs, vertices, tuple(sorted(edges))
    )


@pytest.mark.parametrize(
    "num_inputs, num_outputs",
    [(m, b) for m in range(4) for b in range(1, 4)] + [(4, 1), (4, 2)],
)
def test_factor_matches_flip_reference(num_inputs, num_outputs):
    assert build_factor(num_inputs, num_outputs) == _reference_factor(num_inputs, num_outputs)


def test_example_network_product():
    pg = build_parameter_graph(example_network())
    assert [len(f.vertices) for f in pg.factors] == [20, 3]
    assert len(pg.vertices) == 60
    # product edges: one factor moves along one of its edges
    assert len(pg.edges) == 32 * 3 + 2 * 20


def test_signs_recorded():
    pg = build_parameter_graph(example_network())
    assert pg.factors[0].signs == (ACTIVATING, REPRESSING)
    assert pg.factors[1].signs == (ACTIVATING,)


def test_annotate_two_input_factor_sums():
    factor = build_factor(2, 2)
    verdicts = annotate_factor(factor, SIGMA)
    assert all(v.is_realizable for v in verdicts)


def test_annotation_decides_each_orbit_once(monkeypatch):
    # build_factor(2, 2): the 20 pairs at n=2, in 15 sum-realizable orbits
    factor = build_factor(2, 2)
    decisions = []
    decide = realizability._decide

    def counted(tup, class_tag, decided):
        decisions.append(canonical_form(tup)[0])
        return decide(tup, class_tag, decided)

    monkeypatch.setattr(realizability, "_decide", counted)
    verdicts = annotate_factor(factor, SIGMA)
    assert len(verdicts) == len(factor.vertices) == 20
    assert len(decisions) == len(set(decisions)) == 15
    for vertex, verdict in zip(factor.vertices, verdicts):
        assert verify_witness(OrderedTuple(vertex), verdict.witness)


def test_annotate_product_statuses():
    pg = build_parameter_graph(example_network())
    _, statuses = annotate_realizability(pg, SIGMA)
    assert len(statuses) == 60
    assert all(s == "realizable" for s in statuses)


def test_exports():
    pg = build_parameter_graph(example_network())
    dot = pg_to_dot(pg)
    assert dot.count("--") == len(pg.edges)
    fdot = factor_to_dot(pg.factors[1])
    assert fdot.count("--") == 2
    js = pg_to_json(pg)
    assert '"adjacency"' in js
    _, statuses = annotate_realizability(pg, SIGMA)
    csv = vertex_table_csv(pg, {"sigma": statuses})
    lines = csv.strip().split("\n")
    assert lines[0] == "vertex_index,coordinates,1_functions,2_functions,verdict_sigma"
    assert len(lines) == 61


def _reference_product_edges(factors):
    """Product edges by scanning every factor edge at every product vertex."""
    vertices = list(itertools.product(*(range(len(f.vertices)) for f in factors)))
    index = {v: i for i, v in enumerate(vertices)}
    edges = set()
    for pos, vertex in enumerate(vertices):
        for slot, factor in enumerate(factors):
            for a, b in factor.edges:
                if vertex[slot] in (a, b):
                    other = a + b - vertex[slot]
                    neighbor = index[vertex[:slot] + (other,) + vertex[slot + 1:]]
                    if neighbor > pos:
                        edges.add((pos, neighbor))
    return tuple(vertices), tuple(sorted(edges))


def test_product_matches_edge_scan():
    rng = random.Random(31)
    nets = [example_network()]
    while len(nets) < 6:
        net = random_network(rng)
        # keep every factor at two inputs and two outputs or fewer
        if all(len(net.sources(n)) <= 2 and net.out_degree(n) <= 2 for n in net.names):
            nets.append(net)
    assert any(len(net.names) == 3 for net in nets)
    for net in nets:
        pg = build_parameter_graph(net)
        assert (pg.vertices, pg.edges) == _reference_product_edges(pg.factors)
