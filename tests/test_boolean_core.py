import pytest
from hypothesis import given, strategies as st

from mbfreal.boolean_core import (
    ACTIVATING,
    CEILING,
    FLOOR,
    REPRESSING,
    ArityError,
    Corner,
    MbfFunction,
    OrderedTuple,
    beta_normalize,
    canonical_form,
    collapse_tuple,
    enumerate_chains,
    enumerate_mbf_positive,
    enumerate_ordered_pairs,
    eta,
    eta_inverse,
    evaluate,
    implies,
    inverse_permutation,
    is_monotone_positive,
    is_monotone_signed,
    maximal_false_corners,
    minimal_true_corners,
    monotone_closure,
    permutations,
    relabel,
    relabel_images,
    relabel_tuple,
    restrict_and_collapse,
)

from goldens import (
    PAIR_NEEDS_MIXED,
    PAIR_NEEDS_PRODUCT,
    PAIR_UNREACHABLE_4,
    brute_force_chains,
    mbf,
)


# ---------------------------------------------------------------- oracles

def brute_force_mbf(n):
    """Independent enumeration: filter every table of 2**n bits."""
    out = []
    for truth in range(1 << (1 << n)):
        ok = True
        for v in range(1 << n):
            for i in range(n):
                if not v >> i & 1:
                    if truth >> v & 1 and not truth >> (v | 1 << i) & 1:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(truth)
    return out


def collapse_oracle(f, direction, side_bit):
    """Set-based facet collapse, independent of the bit-shuffling code path."""
    kept = set()
    for v in f.truth_corners():
        coords = [(v >> i) & 1 for i in range(f.n)]
        if coords[direction - 1] == side_bit:
            del coords[direction - 1]
            kept.add(sum(c << i for i, c in enumerate(coords)))
    return kept


def flip_oracle(truth, n, signs):
    """Truth set after flipping every repressing coordinate, as a set."""
    flip = {i for i, s in enumerate(signs) if s == REPRESSING}
    out = set()
    for v in range(1 << n):
        if truth >> v & 1:
            w = v
            for i in flip:
                w ^= 1 << i
            out.add(w)
    return out


# ---------------------------------------------------------------- corners

def test_corner_string_convention():
    # left character is y1, the low bit
    assert Corner.from_string("110").index == 3
    assert Corner.from_string("001").index == 4
    assert str(Corner(3, 5)) == "101"


def test_corner_roundtrip():
    for n in (1, 2, 3, 4):
        for v in range(1 << n):
            c = Corner(n, v)
            assert Corner.from_string(str(c)) == c


def test_corner_bounds():
    with pytest.raises(ValueError):
        Corner(2, 4)
    with pytest.raises(ArityError):
        Corner(9, 0)


# ---------------------------------------------------------------- evaluate

def test_evaluate_const_zero():
    f = MbfFunction.const(3, 0)
    assert evaluate(f, Corner.from_string("111")) == 0


def test_evaluate_known_pair_corners():
    f, g = PAIR_NEEDS_PRODUCT
    assert evaluate(f, Corner.from_string("101")) == 1
    assert evaluate(g, Corner.from_string("010")) == 1
    assert evaluate(f, Corner.from_string("010")) == 0


def test_evaluate_arity_mismatch():
    f = MbfFunction.const(3, 1)
    with pytest.raises(ArityError):
        evaluate(f, Corner(2, 0))


# ---------------------------------------------------------------- monotonicity

def test_xor_not_monotone():
    assert not is_monotone_positive(0b0110, 2)


def test_and_monotone():
    assert is_monotone_positive(0b1000, 2)


def test_known_f_monotone():
    f, _ = PAIR_NEEDS_PRODUCT
    assert is_monotone_positive(f.truth, 3)


def test_constructor_rejects_non_monotone():
    with pytest.raises(ValueError):
        MbfFunction(2, 0b0110)
    # raw wrapping skips the check so tables can be probed
    raw = MbfFunction.raw(2, 0b0110)
    assert raw.truth == 0b0110


@given(st.integers(min_value=1, max_value=4), st.data())
def test_closure_is_monotone(n, data):
    truth = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    assert is_monotone_positive(monotone_closure(truth, n), n)


# ---------------------------------------------------------------- beta

def test_beta_not_on_one_input():
    # NOT is monotone-decreasing; flipping its input gives the identity
    got = beta_normalize(0b01, (REPRESSING,))
    assert got.truth == 0b10


def test_beta_all_activating_is_identity():
    f, _ = PAIR_NEEDS_PRODUCT
    assert beta_normalize(f.truth, (ACTIVATING,) * 3) == f


def test_beta_matches_flip_oracle():
    # the first output function of the worked two-node network example:
    # positive in y1, indifferent in y2, truth {10, 11}
    truth = mbf(2, ["10", "11"]).truth
    signs = (ACTIVATING, REPRESSING)
    expect = flip_oracle(truth, 2, signs)
    got = beta_normalize(truth, signs)
    assert set(got.truth_corners()) == expect
    assert expect == {1, 3}  # y2 is irrelevant, so the truth set is unchanged


def test_beta_involution():
    signs = (REPRESSING, ACTIVATING, REPRESSING)
    flip = 0b101
    for f in enumerate_mbf_positive(3):
        # build a signed table monotone under `signs` by flipping coordinates
        signed = 0
        for v in f.truth_corners():
            signed |= 1 << (v ^ flip)
        assert is_monotone_signed(signed, 3, signs)
        assert beta_normalize(signed, signs) == f
        # flipping the normalized table again restores the signed one
        back = flip_oracle(beta_normalize(signed, signs).truth, 3, signs)
        assert back == {v for v in range(8) if signed >> v & 1}


def test_beta_rejects_wrong_signs():
    with pytest.raises(ValueError):
        beta_normalize(0b10, (REPRESSING,))  # increasing table, repressing sign


def test_is_monotone_signed_mixed():
    truth = 0b0010  # true only at corner 10: increasing in y1, decreasing in y2
    assert is_monotone_signed(truth, 2, (ACTIVATING, REPRESSING))
    assert not is_monotone_signed(truth, 2, (ACTIVATING, ACTIVATING))


# ---------------------------------------------------------------- implies

def test_implies_const_zero():
    z = MbfFunction.const(3, 0)
    for f in enumerate_mbf_positive(3):
        assert implies(z, f)


def test_implies_known_pair():
    f, g = PAIR_NEEDS_PRODUCT
    assert implies(f, g)
    assert not implies(g, f)


# ---------------------------------------------------------------- collapse

def test_collapse_known_pair_facets():
    f, g = PAIR_NEEDS_PRODUCT
    ceil_f = restrict_and_collapse(f, 1, CEILING)
    assert set(ceil_f.truth_corners()) == {Corner.from_string(s).index for s in ("01", "11")}
    floor_g = restrict_and_collapse(g, 1, FLOOR)
    assert set(floor_g.truth_corners()) == {Corner.from_string(s).index for s in ("10", "11")}


def test_collapse_matches_oracle():
    for f in enumerate_mbf_positive(3):
        for direction in (1, 2, 3):
            for side, bit in ((FLOOR, 0), (CEILING, 1)):
                got = restrict_and_collapse(f, direction, side)
                assert set(got.truth_corners()) == collapse_oracle(f, direction, bit)


def test_collapse_four_to_three():
    f4, g4 = PAIR_UNREACHABLE_4
    f3, g3 = PAIR_NEEDS_MIXED
    assert restrict_and_collapse(f4, 4, FLOOR) == f3
    assert restrict_and_collapse(g4, 4, FLOOR) == g3
    assert collapse_tuple(OrderedTuple(PAIR_UNREACHABLE_4), 4, FLOOR) == OrderedTuple((f3, g3))


def test_collapse_rejects_arity_one():
    with pytest.raises(ArityError):
        restrict_and_collapse(MbfFunction.const(1, 1), 1, FLOOR)


def test_floor_inside_ceiling():
    # facet collapse of the floor is contained in that of the ceiling
    for f in enumerate_mbf_positive(3):
        for direction in (1, 2, 3):
            lo = restrict_and_collapse(f, direction, FLOOR)
            hi = restrict_and_collapse(f, direction, CEILING)
            assert implies(lo, hi)


def _extreme_corners_by_scan(f):
    """Minimal true and maximal false corners, one corner and one neighbor
    at a time."""
    size = 1 << f.n
    minimal = tuple(
        v for v in range(size)
        if f.truth >> v & 1
        and all(not f.truth >> (v & ~(1 << i)) & 1 for i in range(f.n) if v >> i & 1)
    )
    maximal = tuple(
        v for v in range(size)
        if not f.truth >> v & 1
        and all(f.truth >> (v | 1 << i) & 1 for i in range(f.n) if not v >> i & 1)
    )
    return minimal, maximal


@given(st.data())
def test_extreme_corners_match_neighbor_scan(data):
    n = data.draw(st.integers(0, 5))
    truth = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    # any table, monotone or not: both read immediate neighbors only
    f = MbfFunction.raw(n, truth)
    assert (minimal_true_corners(f), maximal_false_corners(f)) == _extreme_corners_by_scan(f)


def test_extreme_corners_of_every_four_input_function():
    for f in enumerate_mbf_positive(4):
        assert (minimal_true_corners(f), maximal_false_corners(f)) == _extreme_corners_by_scan(f)


# ---------------------------------------------------------------- eta

def test_eta_projection():
    z = MbfFunction.const(2, 0)
    o = MbfFunction.const(2, 1)
    h = eta(z, o)
    # h depends only on the new coordinate y3
    assert set(h.truth_corners()) == {v for v in range(8) if v >> 2 & 1}
    assert eta_inverse(h) == (z, o)


def test_eta_assembles_floor_and_ceiling():
    f, g = PAIR_NEEDS_MIXED
    h = eta(f, g)
    assert restrict_and_collapse(h, 4, FLOOR) == f
    assert restrict_and_collapse(h, 4, CEILING) == g


def test_eta_requires_implication():
    f, g = PAIR_NEEDS_PRODUCT
    with pytest.raises(ValueError):
        eta(g, f)


def test_eta_roundtrip_exhaustive():
    for n in (1, 2, 3):
        for f, g in enumerate_ordered_pairs(n):
            assert eta_inverse(eta(f, g)) == (f, g)
    for n in (2, 3, 4):
        for h in enumerate_mbf_positive(n):
            f, g = eta_inverse(h)
            assert implies(f, g)
            assert eta(f, g) == h


def test_eta_inverse_const_one():
    h = MbfFunction.const(3, 1)
    f, g = eta_inverse(h)
    assert f == MbfFunction.const(2, 1)
    assert g == MbfFunction.const(2, 1)


# ---------------------------------------------------------------- enumeration

def test_enumeration_counts_against_brute_force():
    for n, count in ((0, 2), (1, 3), (2, 6), (3, 20), (4, 168)):
        brute = brute_force_mbf(n)
        assert len(brute) == count
        got = enumerate_mbf_positive(n)
        assert [f.truth for f in got] == sorted(brute)


def test_enumeration_n5_count():
    # independent check: pairs (f, g) with f <= g over the brute-forced n=4 set
    brute4 = brute_force_mbf(4)
    expected = sum(
        1 for f in brute4 for g in brute4 if f & ~g == 0
    )
    assert expected == 7581
    assert len(enumerate_mbf_positive(5)) == 7581


def test_enumeration_guard():
    with pytest.raises(ArityError):
        enumerate_mbf_positive(6)
    with pytest.raises(ArityError):
        enumerate_ordered_pairs(5)


def test_pair_counts():
    # the pairs on n inputs are as many as the functions on n+1 inputs,
    # D(n+1) in OEIS A000372, and are the chains of two
    assert [len(enumerate_ordered_pairs(n)) for n in range(5)] == [3, 6, 20, 168, 7581]
    for n in (1, 2, 3):
        assert len(enumerate_ordered_pairs(n)) == len(enumerate_mbf_positive(n + 1))
        assert enumerate_ordered_pairs(n) == enumerate_chains(n, 2)


def test_pairs_are_ordered_and_deterministic():
    pairs = enumerate_ordered_pairs(2)
    assert pairs == sorted(pairs, key=lambda fg: (fg[0].truth, fg[1].truth))
    for f, g in pairs:
        assert implies(f, g)


@pytest.mark.parametrize("n, length", [(n, k) for n in range(4) for k in range(4)])
def test_chains_match_filtered_product(n, length):
    assert enumerate_chains(n, length) == brute_force_chains(n, length)


def test_chain_counts_match_implication_matrix_powers():
    # 1^T M^(L-1) 1 over the 0/1 implication matrix M of the brute-forced
    # tables, independent of both enumerators
    counts = {}
    for n in range(4):
        tables = brute_force_mbf(n)
        paths = [1] * len(tables)
        for length in range(1, 6):
            counts[n, length] = sum(paths)
            assert len(enumerate_chains(n, length)) == counts[n, length], (n, length)
            paths = [sum(p for g, p in zip(tables, paths) if f & ~g == 0) for f in tables]
    assert [counts[3, length] for length in (3, 4, 5)] == [887, 3490, 11196]


def test_chain_edge_lengths():
    functions = enumerate_mbf_positive(2)
    assert enumerate_chains(2, 0) == [()]
    assert enumerate_chains(2, 1) == [(f,) for f in functions]
    with pytest.raises(ValueError, match="negative"):
        enumerate_chains(2, -1)
    with pytest.raises(ArityError, match="pair-enumeration guard 4"):
        enumerate_chains(5, 2)


# ---------------------------------------------------------------- serialization

def test_hex_roundtrip():
    for n in (1, 2, 3, 4):
        for f in enumerate_mbf_positive(n):
            assert MbfFunction.from_hex(f.to_hex()) == f


def test_hex_width():
    f, _ = PAIR_NEEDS_PRODUCT
    assert f.to_hex() == "mbf:3:e0"
    assert MbfFunction.const(1, 1).to_hex() == "mbf:1:3"


# ---------------------------------------------------------------- tuples

def test_ordered_tuple_validates_chain():
    f, g = PAIR_NEEDS_PRODUCT
    OrderedTuple((f, g))
    OrderedTuple((f, f, g))  # repeats allowed
    with pytest.raises(ValueError):
        OrderedTuple((g, f))


def test_ordered_tuple_rejects_mixed_arity():
    with pytest.raises(ArityError):
        OrderedTuple((MbfFunction.const(2, 0), MbfFunction.const(3, 1)))


@given(st.integers(min_value=2, max_value=3), st.data())
def test_monotone_pair_facet_containments(n, data):
    size = (1 << (1 << n)) - 1
    f_truth = monotone_closure(data.draw(st.integers(0, size)), n)
    g_truth = monotone_closure(f_truth | data.draw(st.integers(0, size)), n)
    f, g = MbfFunction(n, f_truth), MbfFunction(n, g_truth)
    for direction in range(1, n + 1):
        for side in (FLOOR, CEILING):
            assert implies(
                restrict_and_collapse(f, direction, side),
                restrict_and_collapse(g, direction, side),
            )
        assert implies(
            restrict_and_collapse(f, direction, FLOOR),
            restrict_and_collapse(g, direction, CEILING),
        )


# ---------------------------------------------------------------- relabeling

def relabel_oracle(f, perm):
    """Corner by corner: the new corner w reads y_i of the old corner at
    y_perm[i-1] of w."""
    truth = 0
    for w in range(1 << f.n):
        v = sum(1 << (i - 1) for i in range(1, f.n + 1) if w >> (perm[i - 1] - 1) & 1)
        truth |= evaluate(f, v) << w
    return MbfFunction(f.n, truth)


def test_permutations_identity_first():
    assert permutations(3)[0] == (1, 2, 3)
    assert len(permutations(4)) == 24
    assert len(set(permutations(4))) == 24
    assert permutations(0) == ((),)


def test_relabel_matches_oracle_and_images():
    for n in (1, 2, 3):
        for f in enumerate_mbf_positive(n):
            images = relabel_images(n, f.truth)
            for perm, image in zip(permutations(n), images):
                g = relabel(f, perm)
                assert g == relabel_oracle(f, perm)
                assert g.truth == image


def test_relabel_then_inverse_is_identity():
    for n in (1, 2, 3, 4):
        for f in enumerate_mbf_positive(n)[:: 1 if n < 4 else 7]:
            for perm in permutations(n):
                inv = inverse_permutation(perm)
                assert relabel(relabel(f, perm), inv) == f
                assert relabel(relabel(f, inv), perm) == f


def test_inverse_permutation_composes_to_identity():
    for perm in permutations(4):
        inv = inverse_permutation(perm)
        assert tuple(inv[perm[i] - 1] for i in range(4)) == (1, 2, 3, 4)
    assert inverse_permutation((2, 3, 1)) == (3, 1, 2)


def test_relabel_keeps_implication_order():
    for f, g in enumerate_ordered_pairs(3):
        for perm in permutations(3):
            rf, rg = relabel(f, perm), relabel(g, perm)
            assert implies(rf, rg)
            assert relabel_tuple(OrderedTuple((f, g)), perm) == OrderedTuple((rf, rg))
    chain = OrderedTuple(PAIR_UNREACHABLE_4)
    for perm in permutations(4):
        assert tuple(relabel_tuple(chain, perm)) == tuple(relabel(f, perm) for f in chain)


def test_relabel_rejects_bad_permutations():
    f = PAIR_NEEDS_PRODUCT[0]
    with pytest.raises(ArityError):
        relabel(f, (1, 2))
    with pytest.raises(ValueError):
        relabel(f, (1, 1, 2))


def test_canonical_form_is_shared_by_the_orbit():
    for f, g in enumerate_ordered_pairs(3):
        tup = OrderedTuple((f, g))
        canon, perm = canonical_form(tup)
        assert relabel_tuple(tup, perm) == canon
        masks = min(
            tuple(h.truth for h in relabel_tuple(tup, p)) for p in permutations(3)
        )
        assert tuple(h.truth for h in canon) == masks
        for p in permutations(3):
            assert canonical_form(relabel_tuple(tup, p))[0] == canon
    # a canonical member is its own canonical form, with the identity
    canon, _ = canonical_form(OrderedTuple(PAIR_NEEDS_PRODUCT))
    again, perm = canonical_form(canon)
    assert again is canon and perm == (1, 2, 3)


def test_canonical_pair_counts():
    for n, expected in ((1, 6), (2, 15), (3, 58), (4, 620)):
        canon = {canonical_form(OrderedTuple(p))[0] for p in enumerate_ordered_pairs(n)}
        assert len(canon) == expected
