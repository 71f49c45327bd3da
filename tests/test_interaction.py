import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mbfreal.interaction import (
    CEILING,
    CLASS_TAGS,
    FLOOR,
    PISIGMA,
    SIGMA,
    SIGMAPISIGMA,
    SUMMAND,
    PhiAssignment,
    StructureError,
    collapse_role,
    collapse_shape,
    collapse_structure,
    corner_monomials,
    enumerate_structures,
    evaluate,
    has_factor,
    has_simple_term,
    corner_table,
    parse_structure,
    relabel_assignment,
    relabel_structure,
    scaled_corner_table,
    set_partitions,
    structure,
    sum_structure,
)
from mbfreal.boolean_core import inverse_permutation, permutations


def S(text, n=None):
    return parse_structure(text, n)


# ---------------------------------------------------------------- evaluate

def test_evaluate_known_values():
    assert evaluate(S("(z1+z2)*z3"), (4, 4, 2)) == 16
    assert evaluate(S("z1*z2+z3"), (3, Fraction(31, 10), 4)) == Fraction(133, 10)
    assert evaluate(S("z1+z2+z3"), (1, 1, 1)) == 3


def test_evaluate_rejects_nonpositive():
    with pytest.raises(ValueError):
        evaluate(S("z1+z2"), (1, 0))


def test_evaluate_arity():
    with pytest.raises(ValueError):
        evaluate(S("z1+z2"), (1, 2, 3))


def test_corner_table_matches_evaluate():
    for n in (1, 2, 3, 4):
        phi = phi_for(n)
        for tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
            for s in enumerate_structures(n, tag):
                values = corner_table(s, phi)
                assert len(values) == 1 << n
                for v, value in enumerate(values):
                    assert type(value) is Fraction
                    assert value == evaluate(s, phi.corner(v))


def test_corner_table_arity():
    with pytest.raises(ValueError, match="expected 2 values, got 3"):
        corner_table(S("z1+z2"), phi_for(3))
    with pytest.raises(ValueError, match="expected 3 values, got 2"):
        corner_table(S("z1+z2+z3"), phi_for(2))


# distinct primes: drawn rationals get pairwise coprime denominators, so the
# common scale of an assignment is the product of several of them
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _coprime_phi(data, n):
    dens = data.draw(st.permutations(_PRIMES))[: 2 * n]
    nums = data.draw(st.lists(st.integers(1, 60), min_size=2 * n, max_size=2 * n))
    low = tuple(Fraction(a, d) for a, d in zip(nums[:n], dens[:n]))
    high = tuple(lo + Fraction(b, d) for lo, b, d in zip(low, nums[n:], dens[n:]))
    return PhiAssignment(low, high)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_scaled_corner_table_matches_evaluate(n, data):
    # every structure of every class, against evaluate at every corner
    phi = _coprime_phi(data, n)
    for tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
        for s in enumerate_structures(n, tag):
            values, scale = scaled_corner_table(s, phi)
            assert type(scale) is int and scale > 0
            assert len(values) == 1 << n and all(type(x) is int for x in values)
            exact = tuple(evaluate(s, phi.corner(v)) for v in range(1 << n))
            assert tuple(Fraction(x, scale) for x in values) == exact, s.text()
            assert corner_table(s, phi) == exact


@given(st.data())
def test_evaluate_monotone_in_each_variable(data):
    structs = enumerate_structures(3, SIGMAPISIGMA)
    s = structs[data.draw(st.integers(0, len(structs) - 1))]
    z = [Fraction(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 7))) for _ in range(3)]
    i = data.draw(st.integers(0, 2))
    bump = Fraction(data.draw(st.integers(1, 30)), data.draw(st.integers(1, 5)))
    z2 = list(z)
    z2[i] += bump
    assert evaluate(s, z2) >= evaluate(s, z)


# ---------------------------------------------------------------- enumeration

def test_enumerate_prodsum_3():
    # same five expressions the canonical printer spells with sorted blocks,
    # e.g. (z2+z3)*z1 prints as z1*(z2+z3)
    structs = enumerate_structures(3, PISIGMA)
    got = {s.text() for s in structs}
    assert got == {"z1+z2+z3", "(z1+z2)*z3", "(z1+z3)*z2", "z1*(z2+z3)", "z1*z2*z3"}
    # each call returns a fresh list of the one built per (n, class)
    structs.clear()
    assert len(enumerate_structures(3, PISIGMA)) == 5
    assert parse_structure("(z2+z3)*z1").text() == "z1*(z2+z3)"


def test_enumerate_mixed_3():
    got = {s.text() for s in enumerate_structures(3, SIGMAPISIGMA)}
    assert got == {
        "z1+z2+z3",
        "(z1+z2)*z3",
        "(z1+z3)*z2",
        "z1*(z2+z3)",
        "z1*z2*z3",
        "z1*z2+z3",
        "z1*z3+z2",
        "z1+z2*z3",
    }
    assert parse_structure("z2*z3+z1").text() == "z1+z2*z3"


def test_enumerate_single_variable():
    for tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
        structs = enumerate_structures(1, tag)
        assert [s.text() for s in structs] == ["z1"]


def test_enumerate_sigma_counts():
    for n in (1, 2, 3, 4):
        assert len(enumerate_structures(n, SIGMA)) == (1 << n) - 1


def test_prodsum_counts_are_bell_numbers():
    for n, bell in ((2, 2), (3, 5), (4, 15)):
        assert len(enumerate_structures(n, PISIGMA)) == bell


def test_enumeration_is_deterministic_and_duplicate_free():
    for tag in (PISIGMA, SIGMAPISIGMA):
        for n in (2, 3, 4):
            structs = enumerate_structures(n, tag)
            assert structs == enumerate_structures(n, tag)
            assert len(set(structs)) == len(structs)


def test_class_nesting():
    for n in (2, 3, 4):
        pisigma = set(enumerate_structures(n, PISIGMA))
        mixed = set(enumerate_structures(n, SIGMAPISIGMA))
        assert sum_structure(range(1, n + 1), n) in pisigma
        assert pisigma <= mixed


def test_equal_polynomials_are_equal_structures():
    # one stored form per polynomial: every enumerated structure is its own
    # parsed text, and every relabeling of it is in the same enumeration
    for tag in CLASS_TAGS:
        for n in (1, 2, 3, 4):
            structs = set(enumerate_structures(n, tag))
            for s in structs:
                assert parse_structure(s.text(), n) == s
                for perm in permutations(n):
                    assert relabel_structure(s, perm) in structs


# ---------------------------------------------------------------- text format

def test_parse_print_roundtrip():
    for tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
        for n in (1, 2, 3, 4):
            for s in enumerate_structures(n, tag):
                back = parse_structure(s.text(), n)
                assert back == s
                assert back.text() == s.text()


def test_parse_subset_sum():
    s = S("z1+z3", 3)
    assert s == sum_structure({1, 3}, 3)
    assert s in enumerate_structures(3, SIGMA)
    assert s.support == {1, 3}


def test_parse_reordered_product():
    assert S("z2*(z1+z3)").text() == "(z1+z3)*z2"


def test_parse_rejects_garbage():
    for bad in ("", "z1+", "(z1+z2", "z1**z2", "x1+x2", "(z1*z2)+z3",
                "z1+z1+z2", "(z1)+(z1)", "(z2+z2)*z1*z3", "(z1+z2+z1)*z3", "z1*z1"):
        with pytest.raises(StructureError):
            parse_structure(bad)


def test_product_must_cover_all_variables():
    with pytest.raises(StructureError):
        parse_structure("z1*z2", 3)


# ---------------------------------------------------------------- factor / term

def test_factor_and_term_examples():
    s = S("(z1+z2)*z3")
    assert has_factor(s, 3) and not has_simple_term(s, 3)
    assert not has_factor(s, 1) and not has_simple_term(s, 1)

    s = S("z1*z2+z3")
    assert has_simple_term(s, 3) and not has_factor(s, 3)
    assert not has_factor(s, 1) and not has_simple_term(s, 1)

    s = S("z1+z2+z3")
    for ell in (1, 2, 3):
        assert has_simple_term(s, ell)
        assert not has_factor(s, ell)


def test_every_var_simple_term_in_sums():
    s = sum_structure({1, 2, 3}, 3)
    assert all(has_simple_term(s, ell) for ell in (1, 2, 3))


def test_single_variable_structure():
    s = S("z1", 1)
    assert has_simple_term(s, 1)
    assert not has_factor(s, 1)


def test_pure_product():
    s = S("z1*z2*z3")
    for ell in (1, 2, 3):
        assert has_factor(s, ell)
        assert not has_simple_term(s, ell)


# ---------------------------------------------------------------- collapse

def phi_for(n):
    return PhiAssignment(
        tuple(Fraction(i) for i in range(1, n + 1)),
        tuple(Fraction(2 * i + 1, 2) for i in range(1, n + 1)),
    )


def facet_differences(s, phi, ell, side):
    """``collapse_structure``'s structure and assignment, and the values the
    original minus the collapsed value takes on the facet's corners."""
    out, phi2 = collapse_structure(s, ell, side, phi)
    bit = 1 if side == CEILING else 0
    low = (1 << (ell - 1)) - 1
    values = corner_table(s, phi)
    collapsed = corner_table(out, phi2)
    diffs = {
        values[(w & low) | ((w & ~low) << 1) | bit << (ell - 1)] - collapsed[w]
        for w in range(1 << (s.n - 1))
    }
    return out, phi2, diffs


def test_collapse_drop_summand():
    s = S("z1*z2+z3")
    phi = PhiAssignment((1, 1, 1), (3, 2, 4))
    out, phi2, diffs = facet_differences(s, phi, 3, FLOOR)
    assert out.text() == "z1*z2"
    assert diffs == {1}  # z3's floor value
    assert phi2.low == (1, 1) and phi2.high == (3, 2)


def test_collapse_scale_sibling():
    s = S("(z1+z2)*z3")
    phi = PhiAssignment((1, 1, 1), (4, 4, 2))
    out, phi2, diffs = facet_differences(s, phi, 3, CEILING)
    assert out.text() == "z1+z2"
    assert phi2.low == (2, 2) and phi2.high == (8, 8)
    # equal on every ceiling corner
    assert diffs == {0}


def test_collapse_survivor_absorbs():
    s = S("(z1+z2)*z3")
    phi = PhiAssignment((1, 1, 1), (2, 3, 4))
    out, phi2, diffs = facet_differences(s, phi, 2, FLOOR)
    assert out.text() == "z1*z2"
    assert phi2.low == (2, 1) and phi2.high == (3, 4)
    # equal on every corner with y2 = 0
    assert diffs == {0}


def test_collapse_direction_outside_support():
    s = S("z1", 2)
    phi = PhiAssignment((1, 1), (2, 2))
    out, phi2, diffs = facet_differences(s, phi, 2, FLOOR)
    assert out.text() == "z1"
    assert diffs == {0}


def test_collapse_last_variable_errors():
    s = S("z1", 2)
    phi = PhiAssignment((1, 1), (2, 2))
    with pytest.raises(StructureError):
        collapse_structure(s, 1, FLOOR, phi)


def test_collapse_replay_exhaustive():
    for n in (2, 3, 4):
        phi = phi_for(n)
        structs = []
        for tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
            structs.extend(enumerate_structures(n, tag))
        for s in structs:
            for ell in range(1, n + 1):
                for side, bit in ((FLOOR, 0), (CEILING, 1)):
                    try:
                        out, phi2, diffs = facet_differences(s, phi, ell, side)
                    except StructureError:
                        assert s.support == {ell}
                        continue
                    assert collapse_shape(s, ell) == out
                    summand = collapse_role(s, ell)[0] == SUMMAND
                    assert diffs == {phi.value(ell, bit) if summand else 0}


# ---------------------------------------------------------------- monomials

def test_corner_monomials_match_value():
    # (l, d) symbols: kind 0 is the low, kind 1 is d = high - low; every
    # structure of every class at a random rational assignment.  No monomial
    # holds two symbols of one variable, so a corner value is affine in any
    # one variable's d, which the grid screen of search_witness relies on
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for tag in CLASS_TAGS:
            for s in enumerate_structures(n, tag):
                low = tuple(Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(n))
                high = tuple(x + Fraction(rng.randint(1, 30), rng.randint(1, 7)) for x in low)
                phi = PhiAssignment(low, high)
                values, scale = scaled_corner_table(s, phi)
                for v in range(1 << n):
                    total = Fraction(0)
                    for mono in corner_monomials(s, v):
                        assert len({i for i, _ in mono}) == len(mono), (s.text(), mono)
                        prod = Fraction(1)
                        for i, kind in mono:
                            prod *= phi.value(i, 0) if kind == 0 else phi.value(i, 1) - phi.value(i, 0)
                        total += prod
                    assert total == Fraction(values[v], scale), (s.text(), v)


# ---------------------------------------------------------------- misc

def test_set_partition_counts():
    for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
        assert sum(1 for _ in set_partitions(range(n))) == bell


def test_phi_validation():
    with pytest.raises(ValueError):
        PhiAssignment((1, 2), (2, 2))
    with pytest.raises(ValueError):
        PhiAssignment((0, 1), (1, 2))


def test_structure_rejects_overlap():
    with pytest.raises(StructureError):
        structure([[{1, 2}], [{2}, {3}]], 3)


@pytest.mark.parametrize("groups", [[[set()]], [[]], [[{1}], []]])
def test_structure_rejects_an_empty_group_or_block(groups):
    with pytest.raises(StructureError, match="empty group or block"):
        structure(groups, 2)


# ---------------------------------------------------------------- relabeling

def _image(v, perm):
    return sum(1 << (perm[i] - 1) for i in range(len(perm)) if v >> i & 1)


def test_relabel_structure_renames_variables():
    assert relabel_structure(S("(z1+z2)*z3"), (3, 1, 2)).text() == "(z1+z3)*z2"
    assert relabel_structure(S("z1*z2+z3"), (2, 3, 1)).text() == "z1+z2*z3"
    s = sum_structure({1, 3}, 3)
    out = relabel_structure(s, (2, 1, 3))
    assert out == sum_structure({2, 3}, 3) and out in enumerate_structures(3, SIGMA)
    with pytest.raises(StructureError):
        relabel_structure(S("z1*z2"), (1, 3))


def test_relabeled_expression_keeps_every_corner_value():
    phi = PhiAssignment(
        (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3)),
        (Fraction(3), Fraction(7, 2), Fraction(5), Fraction(4)),
    )
    for class_tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
        structs = enumerate_structures(4, class_tag)
        for s in structs[::5]:
            values = corner_table(s, phi)
            for perm in permutations(4)[::5]:
                rs = relabel_structure(s, perm)
                rphi = relabel_assignment(phi, perm)
                assert rs in structs
                relabeled = corner_table(rs, rphi)
                assert all(relabeled[_image(v, perm)] == values[v] for v in range(16))
                inv = inverse_permutation(perm)
                assert relabel_structure(rs, inv) == s
                assert relabel_assignment(rphi, inv) == phi
