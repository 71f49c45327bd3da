import functools
import itertools
import json
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from mbfreal import linear
from mbfreal.boolean_core import (
    CEILING,
    FLOOR,
    MbfFunction,
    OrderedTuple,
    canonical_form,
    corner_insert_bit,
    enumerate_chains,
    enumerate_mbf_positive,
    enumerate_ordered_pairs,
    eta,
    inverse_permutation,
    maximal_false_corners,
    minimal_true_corners,
    monotone_closure,
    permutations,
    relabel_tuple,
    restrict_and_collapse,
)
from mbfreal.interaction import (
    FACTOR,
    PISIGMA,
    SHARED,
    SIGMA,
    SIGMAPISIGMA,
    SUMMAND,
    PhiAssignment,
    collapse_role,
    collapse_shape,
    collapse_structure,
    corner_monomials,
    corner_table,
    enumerate_structures,
    evaluate,
    integer_form,
    parse_structure,
    relabel_structure,
    scaled_corner_table,
    sum_structure,
)
from mbfreal import realizability
from mbfreal.realizability import (
    ExhaustionCertificate,
    FarkasCertificate,
    KWitness,
    Witness,
    WitnessError,
    certificate_from_data,
    certificate_to_data,
    check_class,
    check_sigma,
    collapse_witness,
    derive_thresholds,
    direction_certificate,
    induced_function,
    lift_eta,
    lower_eta,
    monomial_certificate,
    necessary_condition,
    realize_k,
    relabel_certificate,
    relabel_witness,
    replay_certificate,
    search_witness,
    separating_to_witness,
    verify_k_witness,
    verify_witness,
    witness_from_text,
    witness_to_separating,
    witness_to_text,
)

from goldens import (
    DIRECTION_BLOCKED_N3,
    FOUR_INPUT_SEARCH_WITNESSES,
    PAIR_NEEDS_MIXED,
    PAIR_NEEDS_MIXED_MONOMIAL_CERTIFICATE_JSON,
    PAIR_NEEDS_MIXED_WITNESS,
    PAIR_NEEDS_PRODUCT,
    PAIR_NEEDS_PRODUCT_SUM_CERTIFICATE_JSON,
    PAIR_NEEDS_PRODUCT_WITNESS,
    PAIR_UNREACHABLE_4,
    PISIGMA_OPEN_STRUCTURES,
    PRINTED_DIRECTION_ERRATA,
    PRODUCTS_N4_PAIRS,
    REFERENCE_WITNESSES,
    nonseparable_pairs,
)


def witness_from_parts(text, highs, thresholds, n=3):
    s = parse_structure(text, n)
    phi = PhiAssignment(tuple(Fraction(1) for _ in range(n)), tuple(Fraction(h) for h in highs))
    return Witness(s, phi, tuple(Fraction(t) for t in thresholds))


def pair_tuple(pair):
    return OrderedTuple(pair)


# ---------------------------------------------------------------- verify

def test_known_product_witness_verifies():
    text, highs, thresholds = PAIR_NEEDS_PRODUCT_WITNESS
    w = witness_from_parts(text, highs, thresholds)
    assert verify_witness(pair_tuple(PAIR_NEEDS_PRODUCT), w)
    # the variant with high_2 = 41/10 is also valid
    w2 = witness_from_parts(text, (4, Fraction(41, 10), 2), thresholds)
    assert verify_witness(pair_tuple(PAIR_NEEDS_PRODUCT), w2)


def test_known_mixed_witness_verifies():
    text, highs, thresholds = PAIR_NEEDS_MIXED_WITNESS
    w = witness_from_parts(text, highs, thresholds)
    assert verify_witness(pair_tuple(PAIR_NEEDS_MIXED), w)


def test_reference_witnesses_replay():
    rows = nonseparable_pairs()
    assert len(rows) == len(REFERENCE_WITNESSES) == 18
    for (f, g, _), (text, highs, theta_g, theta_f) in zip(rows, REFERENCE_WITNESSES):
        w = witness_from_parts(text, highs, (theta_f, theta_g))
        assert verify_witness(OrderedTuple((f, g)), w)


def test_swapped_thresholds_fail():
    text, highs, thresholds = PAIR_NEEDS_PRODUCT_WITNESS
    w = witness_from_parts(text, highs, tuple(reversed(thresholds)))
    assert not verify_witness(pair_tuple(PAIR_NEEDS_PRODUCT), w)


def test_tie_raises():
    # value at the bottom corner is 2; a threshold of 2 neither holds nor fails
    w = witness_from_parts("(z1+z2)*z3", (4, 4, 2), (9, 2))
    with pytest.raises(WitnessError):
        verify_witness(pair_tuple(PAIR_NEEDS_PRODUCT), w)


# ---------------------------------------------------------------- integer checks

def _reference_separates(tup, thresholds, values):
    """The threshold and separation checks on ``Fraction`` corner values, a
    value compared with a threshold one corner at a time."""
    if len(thresholds) != len(tup):
        return False
    if any(t <= 0 for t in thresholds):
        return False
    if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
        return False
    for f, theta in zip(tup, thresholds):
        for v, value in enumerate(values):
            if value == theta:
                raise WitnessError(f"value at corner {v} equals threshold {theta}")
            if (value > theta) != bool(f.truth >> v & 1):
                return False
    return True


def _reference_verify(tup, w):
    """``verify_witness`` or ``verify_k_witness`` in ``Fraction``s, with
    each structure's corner values from ``evaluate``."""
    if isinstance(w, KWitness):
        if len(w.values) != 1 << tup.n:
            return False
        if any(val < 0 for val in w.values):
            return False
        for v, val in enumerate(w.values):
            for i in range(tup.n):
                if not v >> i & 1 and val > w.values[v | 1 << i]:
                    return False
        return _reference_separates(tup, w.thresholds, w.values)
    if w.structure.n != tup.n or w.phi.n != tup.n:
        raise ValueError("witness arity does not match the tuple")
    values = [evaluate(w.structure, w.phi.corner(v)) for v in range(1 << tup.n)]
    return _reference_separates(tup, w.thresholds, values)


def _reference_thresholds(tup, values):
    """``derive_thresholds`` on ``Fraction`` corner values."""
    size = 1 << tup.n
    gaps = []
    for f in tup:
        false_vals = [values[v] for v in range(size) if not f.truth >> v & 1]
        true_vals = [values[v] for v in range(size) if f.truth >> v & 1]
        lo = max(false_vals) if false_vals else Fraction(0)
        hi = min(true_vals) if true_vals else None
        if hi is not None and lo >= hi:
            return None
        gaps.append((lo, hi))
    thresholds = []
    j = 0
    while j < len(gaps):
        j2 = j
        while j2 < len(gaps) and gaps[j2] == gaps[j]:
            j2 += 1
        m = j2 - j
        lo, hi = gaps[j]
        for t in range(m):
            if hi is None:
                thresholds.append(lo + m - t)
            else:
                thresholds.append(lo + (hi - lo) * Fraction(m - t, m + 1))
        j = j2
    if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
        return None
    return tuple(thresholds)


def _outcome(check, tup, w):
    try:
        return check(tup, w)
    except WitnessError as exc:
        return ("WitnessError", str(exc))


def _threshold_variants(thresholds, values, scale):
    """The thresholds as they are, then corrupted: each one nudged by
    +-1/(2*scale), each one put on the nearest corner value below and above
    it, the list reversed, and the last one made 0 and negative."""
    out = [thresholds]
    exact = sorted({Fraction(x, scale) for x in values})
    nudge = Fraction(1, 2 * scale)
    for j, t in enumerate(thresholds):
        moved = [t + nudge, t - nudge]
        moved += [max(x for x in exact if x < t)] if exact[0] < t else []
        moved += [min(x for x in exact if x > t)] if exact[-1] > t else []
        out += [thresholds[:j] + (x,) + thresholds[j + 1 :] for x in moved]
    out.append(tuple(reversed(thresholds)))
    out.append(thresholds[:-1] + (Fraction(0),))
    out.append(thresholds[:-1] + (-thresholds[-1],))
    return out


def _realized_tuples():
    """Realizable pairs of 1..3 inputs in sigma and pisigma (every third
    pair at n = 3), and chains of three at n = 2 in sigma, each with its
    witness."""
    out = []
    for n in (1, 2, 3):
        pairs = enumerate_ordered_pairs(n)
        for f, g in pairs if n < 3 else pairs[::3]:
            for class_tag in (SIGMA, PISIGMA):
                verdict = check_class(OrderedTuple((f, g)), class_tag)
                if verdict.is_realizable:
                    out.append((OrderedTuple((f, g)), verdict.witness))
    for tup in map(OrderedTuple, enumerate_chains(2, 3)):
        verdict = check_sigma(tup)
        if verdict.is_realizable:
            out.append((tup, verdict.witness))
    return out


def test_integer_checks_match_the_fraction_loop():
    # verify_witness and verify_k_witness against _reference_verify, on the
    # result and on any WitnessError with its message, for realizing
    # witnesses and corrupted thresholds; the K witnesses hold each
    # witness's exact corner values, and realize_k's
    outcomes = {True: 0, False: 0, "tie": 0}
    for tup, w in _realized_tuples():
        values, scale = scaled_corner_table(w.structure, w.phi)
        assert derive_thresholds(tup, values, scale) == _reference_thresholds(
            tup, corner_table(w.structure, w.phi)
        )
        k_values = corner_table(w.structure, w.phi)
        for thresholds in _threshold_variants(w.thresholds, values, scale):
            cases = [
                (verify_witness, replace(w, thresholds=thresholds)),
                (verify_k_witness, KWitness(k_values, thresholds)),
            ]
            for check, candidate in cases:
                got = _outcome(check, tup, candidate)
                assert got == _outcome(_reference_verify, tup, candidate), (tup, candidate)
                outcomes["tie" if isinstance(got, tuple) else got] += 1
        kw = realize_k(tup)
        k_ints, k_scale = integer_form(kw.values)
        for thresholds in _threshold_variants(kw.thresholds, k_ints, k_scale):
            candidate = KWitness(kw.values, thresholds)
            got = _outcome(verify_k_witness, tup, candidate)
            assert got == _outcome(_reference_verify, tup, candidate), (tup, candidate)
            outcomes["tie" if isinstance(got, tuple) else got] += 1
    assert min(outcomes.values()) > 100, outcomes


# ---------------------------------------------------------------- realize_k

def test_realize_k_pair():
    tup = pair_tuple(PAIR_NEEDS_PRODUCT)
    kw = realize_k(tup)
    assert kw.thresholds == (Fraction(3, 2), Fraction(1, 2))
    assert set(kw.values) <= {0, 1, 2}
    assert verify_k_witness(tup, kw)


def test_realize_k_single_const():
    tup = OrderedTuple((MbfFunction.const(2, 1),))
    kw = realize_k(tup)
    assert kw.thresholds == (Fraction(1, 2),)
    assert all(v == 1 for v in kw.values)
    assert verify_k_witness(tup, kw)


def test_realize_k_triple():
    f, _ = PAIR_NEEDS_MIXED
    tup = OrderedTuple((MbfFunction.const(3, 0), f, MbfFunction.const(3, 1)))
    kw = realize_k(tup)
    assert kw.thresholds == (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    for v in range(8):
        assert kw.values[v] == 1 + (f.truth >> v & 1)
    assert verify_k_witness(tup, kw)


def test_realize_k_exhaustive_small():
    for n in (1, 2):
        for f, g in enumerate_ordered_pairs(n):
            assert verify_k_witness(OrderedTuple((f, g)), realize_k(OrderedTuple((f, g))))


def test_verify_k_witness_rejections():
    # each table separates its tuple, so only the named check can reject it
    zero, one = MbfFunction.const(2, 0), MbfFunction.const(2, 1)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    low, high = (Fraction(0),) * 4, (Fraction(1),) * 4
    assert verify_k_witness(OrderedTuple((zero,)), KWitness(low, (half,)))
    rejected = [
        ((zero,), KWitness(low[:3], (half,))),  # value count
        ((zero,), KWitness((Fraction(-1),) + low[1:], (half,))),  # negative value
        ((zero,), KWitness((quarter,) + low[1:], (half,))),  # not monotone
        ((one,), KWitness(high, (Fraction(0),))),  # threshold not positive
        ((zero, zero), KWitness(low, (half, half))),  # thresholds not descending
        ((zero,), KWitness(low, (half, quarter))),  # threshold count
    ]
    for functions, kw in rejected:
        assert verify_k_witness(OrderedTuple(functions), kw) is False, kw
    with pytest.raises(WitnessError):
        verify_k_witness(OrderedTuple((zero,)), KWitness(low[:3] + (half,), (half,)))


# ---------------------------------------------------------------- sums

def test_all_two_input_pairs_sum_realizable():
    for f, g in enumerate_ordered_pairs(2):
        verdict = check_sigma(OrderedTuple((f, g)))
        assert verdict.is_realizable
        assert verify_witness(OrderedTuple((f, g)), verdict.witness)


def test_product_pair_not_sum_realizable():
    verdict = check_sigma(pair_tuple(PAIR_NEEDS_PRODUCT))
    assert verdict.is_not_realizable
    cert = verdict.certificate
    assert isinstance(cert, FarkasCertificate)  # named rows of the full-sum system
    width, names, rows = realizability._monomial_system(
        pair_tuple(PAIR_NEEDS_PRODUCT), sum_structure({1, 2, 3}, 3)
    )
    assert width == 6  # l1, l2, l3, d1, d2, d3
    # six distinct separation rows, then one unit row per column
    assert len(names) == len(set(rows[:6])) == 6 and len(rows) == 12
    assert rows[6:] == [tuple(int(k == c) for k in range(6)) for c in range(6)]
    assert [row[1:] for row in cert.rows] == [((), 0, 3, 6), ((), 1, 4, 1)]
    assert all(row[2:] in names for row in cert.rows)
    assert json.dumps(certificate_to_data(cert)) == PAIR_NEEDS_PRODUCT_SUM_CERTIFICATE_JSON


def _integer_rows(rows):
    return all(type(c) is int for r in rows for c in r)


def test_farkas_certificate_bound_to_its_tuple_and_structure():
    tup = pair_tuple(PAIR_NEEDS_PRODUCT)
    cert = check_sigma(tup).certificate
    assert replay_certificate(tup, None, cert)
    assert replay_certificate(tup, "z1+z2+z3", cert)
    # a pair the sum class realizes: the same arithmetic proves nothing there
    trivial = OrderedTuple((MbfFunction.const(3, 0), MbfFunction.const(3, 1)))
    assert check_sigma(trivial).is_realizable
    assert not replay_certificate(trivial, None, cert)

    mixed = pair_tuple(PAIR_NEEDS_MIXED)
    monomial = monomial_certificate(mixed, parse_structure("(z1+z2)*z3"))
    assert replay_certificate(mixed, "(z1+z2)*z3", monomial)
    # read back from JSON, a certificate is its named rows, y as a Fraction
    for claim, text, built in ((tup, None, cert), (mixed, "(z1+z2)*z3", monomial)):
        data = certificate_to_data(built)
        assert set(data) == {"type", "rows"}
        restored = certificate_from_data(data)
        assert all(type(y) is Fraction for y, *_ in restored.rows)
        assert restored == built
        assert replay_certificate(claim, text, restored)
    assert not replay_certificate(mixed, "(z1+z3)*z2", monomial)
    # named rows are not tied to one system: in the full sum these two add
    # up to (d2 - d3) + (d3 - d2) = 0, so they refute the sum class too
    assert replay_certificate(mixed, None, monomial)
    assert not replay_certificate(tup, "(z1+z2)*z3", monomial)


def _sum_lp_feasible(tup, members):
    width, _, rows = realizability._monomial_system(tup, sum_structure(members, tup.n))
    return isinstance(linear.solve(width, rows), linear.Feasible)


def _threshold_sum_system(tup):
    """The sum LP with a column per threshold, as the sum decision once
    solved it: columns l1..ln, u1..un, th1..thk, with l_i > 0, u_i - l_i > 0,
    th_k > 0 and th_j - th_{j+1} > 0, and each function's minimal true
    corners above and maximal false corners below its threshold.  Scaled
    up, a solution meets every row with margin 1.  The reference for
    ``check_sigma``."""
    n = tup.n
    k = len(tup)
    width = 2 * n + k

    def row(terms):
        coeffs = [0] * width
        for pos, c in terms:
            coeffs[pos] += c
        return tuple(coeffs)

    def value(v):
        return [(i + n if v >> i & 1 else i, 1) for i in range(n)]

    rows = []
    for i in range(n):
        rows.append(row([(i, 1)]))
        rows.append(row([(i + n, 1), (i, -1)]))
    rows.append(row([(2 * n + k - 1, 1)]))
    for j in range(k - 1):
        rows.append(row([(2 * n + j, 1), (2 * n + j + 1, -1)]))
    for j, f in enumerate(tup):
        for v in minimal_true_corners(f):
            rows.append(row(value(v) + [(2 * n + j, -1)]))
        for v in maximal_false_corners(f):
            rows.append(row([(pos, -c) for pos, c in value(v)] + [(2 * n + j, 1)]))
    return width, rows


def _small_tuples():
    for n in (1, 2, 3):
        for f in enumerate_mbf_positive(n):
            yield OrderedTuple((f,))
        for f, g in enumerate_ordered_pairs(n):
            yield OrderedTuple((f, g))
    for n in (1, 2):
        yield from map(OrderedTuple, enumerate_chains(n, 3))


def test_sum_lp_of_f880_pair_is_realizable():
    # the n=4 pair whose sum LP blew up on rows rescaled to a leading 1:
    # 13 s there, under a second with gcd-reduced integer rows
    tup = OrderedTuple((MbfFunction(4, 0xF880), MbfFunction(4, 0xF880)))
    verdict = check_sigma(tup)
    assert verdict.status == "realizable"
    assert verify_witness(tup, verdict.witness)


def test_full_support_sum_lp_decides_every_support():
    # the full-support LP is infeasible only when every subset LP is, so
    # check_sigma loses nothing by solving that one LP alone
    infeasible = 0
    for tup in _small_tuples():
        n = tup.n
        if _sum_lp_feasible(tup, tuple(range(1, n + 1))):
            continue
        infeasible += 1
        for r in range(1, n):
            for members in itertools.combinations(range(1, n + 1), r):
                assert not _sum_lp_feasible(tup, members), (tup, members)
    assert infeasible == 18  # the 18 non-separable n=3 pairs


def test_sum_decision_matches_threshold_lp():
    # the full-sum monomial system has no threshold columns; the thresholds
    # derived from its point must decide exactly what the LP with them does
    tuples = list(_small_tuples()) + list(map(OrderedTuple, enumerate_chains(3, 3)))
    tuples += [
        OrderedTuple((MbfFunction(4, int(f, 16)), MbfFunction(4, int(g, 16))))
        for f, g in PRODUCTS_N4_PAIRS + (("f880", "f880"),)
    ]
    # check_sigma verifies its own witness; the sum decision's certificates
    # are replayed elsewhere
    realizable = 0
    for tup in tuples:
        width, rows = _threshold_sum_system(tup)
        expected = isinstance(linear.solve(width, rows), linear.Feasible)
        assert check_sigma(tup).is_realizable == expected, tup
        realizable += expected
    assert 0 < realizable < len(tuples)


def test_first_nonseparable_row_rejected():
    f, g, _ = nonseparable_pairs()[0]
    assert check_sigma(OrderedTuple((f, g))).is_not_realizable


# ---------------------------------------------------------------- directions

def test_direction_certificate_on_sum():
    # z1 is a standalone summand: with the floor corners p = 4, q = 2 and
    # e = 1, f's row V(5) - V(3) and g's row V(2) - V(4) are d3 - d2 and
    # d2 - d3, two degree-0 rows that add up to 0
    f, g = PAIR_NEEDS_PRODUCT
    assert direction_certificate(f, g, 1) == (4, 2)
    cert = necessary_condition(f, g, sum_structure({1, 2, 3}, 3))
    assert cert == FarkasCertificate(((1, (), 0, 3, 5), (1, (), 1, 4, 2)))
    assert replay_certificate(pair_tuple(PAIR_NEEDS_PRODUCT), None, cert)
    assert replay_certificate(pair_tuple(PAIR_NEEDS_PRODUCT), "z1+z2*z3", cert)


def test_direction_certificate_factor_structure():
    # z1 is a bare factor, V = z1 * R: l1 times f's row plus (l1 + d1)
    # times g's row is 0
    f, g = PAIR_NEEDS_MIXED
    tup = pair_tuple(PAIR_NEEDS_MIXED)
    l1, d1 = ((1, 0),), ((1, 1),)
    cert = necessary_condition(f, g, parse_structure("z1*(z2+z3)"))
    assert cert == FarkasCertificate(((1, l1, 0, 5, 3), (1, l1, 1, 2, 4), (1, d1, 1, 2, 4)))
    assert replay_certificate(tup, "z1*(z2+z3)", cert)
    assert replay_certificate(tup, "z1*z2*z3", cert)
    # where z1 is no bare factor the rows leave a positive coefficient
    for text in ("(z1+z2)*z3", "z1*z2+z3", "z1+z2+z3"):
        assert not replay_certificate(tup, text, cert), text
    assert not replay_certificate(tup, None, cert)


def _monomial_mutations(cert, n):
    """Copies of a certificate with one row's monomial changed: 1 raised to
    each l_i or d_i of z1..zn; a one-variable m dropped to 1, its variable
    moved to another of z1..zn, or l and d swapped; and copies with a row
    that has a d monomial dropped."""
    rows = cert.rows
    changed = []
    for k, (y, m, j, a, b) in enumerate(rows):
        if not m:
            others = [((i, kind),) for i in range(1, n + 1) for kind in (0, 1)]
        else:
            others = [(), tuple((i, 1 - kind) for i, kind in m)]
            others += [tuple((i, kind) for _, kind in m) for i in range(1, n + 1) if i != m[0][0]]
        changed += [rows[:k] + ((y, other, j, a, b),) + rows[k + 1:] for other in others]
        if any(kind for _, kind in m):
            changed.append(rows[:k] + rows[k + 1:])
    return [FarkasCertificate(r) for r in changed]


def test_direction_certificate_rejects_every_changed_field():
    # the summand rows of e0/ee under the full sum and the factor rows of
    # 88/f8 under z1*(z2+z3): every change of a row's corner, member,
    # multiplier or monomial, or a dropped row, leaves a positive coefficient
    product = pair_tuple(PAIR_NEEDS_PRODUCT)
    summand = necessary_condition(*PAIR_NEEDS_PRODUCT, sum_structure({1, 2, 3}, 3))
    mixed = pair_tuple(PAIR_NEEDS_MIXED)
    factor = necessary_condition(*PAIR_NEEDS_MIXED, parse_structure("z1*(z2+z3)"))
    for tup, text, cert in ((product, "z1+z2+z3", summand), (mixed, "z1*(z2+z3)", factor)):
        assert replay_certificate(tup, text, cert)
        changed = _farkas_mutations(tup, cert) + _monomial_mutations(cert, 3)
        assert changed
        for bad in changed:
            assert not replay_certificate(tup, text, bad), bad
    # the factor rows with m dropped to 1, z2 in place of z1, l and d
    # swapped, or the d1 row dropped
    l1, d1, l2 = ((1, 0),), ((1, 1),), ((2, 0),)
    assert all(FarkasCertificate(rows) in _monomial_mutations(factor, 3) for rows in (
        ((1, (), 0, 5, 3),) + factor.rows[1:],
        ((1, l2, 0, 5, 3),) + factor.rows[1:],
        ((1, d1, 0, 5, 3),) + factor.rows[1:],
        ((1, l1, 0, 5, 3), (1, l1, 1, 2, 4)),
    ))
    # a monomial of a variable outside z1..z3 names no symbol of the claim
    for outside in (((0, 0),), ((4, 1),)):
        bad = FarkasCertificate(tuple((y, outside, j, a, b) for y, _, j, a, b in summand.rows))
        assert not replay_certificate(product, None, bad)


def test_no_direction_certificate_when_comparable():
    f, g = PAIR_NEEDS_PRODUCT
    assert necessary_condition(f, g, parse_structure("(z1+z2)*z3")) is None


def test_comparability_holds_wherever_witnesses_exist():
    # contrapositive sanity: if a structure with a bare factor or standalone
    # summand in direction ell realizes a pair, the facet collapses in that
    # direction must be comparable
    from mbfreal.interaction import has_factor, has_simple_term

    cases = [
        (PAIR_NEEDS_PRODUCT, "(z1+z2)*z3"),
        (PAIR_NEEDS_MIXED, "z1*z2+z3"),
    ]
    for (f, g), text in cases:
        s = parse_structure(text)
        tup = OrderedTuple((f, g))
        w = search_witness(tup, s)
        assert w is not None
        for ell in range(1, 4):
            if has_factor(s, ell) or has_simple_term(s, ell):
                assert direction_certificate(f, g, ell) is None


def test_listed_directions_all_fire():
    for f, g, directions in nonseparable_pairs():
        for ell in directions:
            assert direction_certificate(f, g, ell) is not None


def test_errata_directions_do_not_fire():
    # the source table's printed directions for rows 16-18 contradict the
    # rows' own data; the goldens carry the corrected ones
    rows = nonseparable_pairs()
    for row, printed in PRINTED_DIRECTION_ERRATA.items():
        f, g, corrected = rows[row - 1]
        for ell in printed:
            assert direction_certificate(f, g, ell) is None
        assert set(printed) != set(corrected)


# ---------------------------------------------------------------- Farkas

def test_farkas_kills_product_for_mixed_pair():
    cert = monomial_certificate(pair_tuple(PAIR_NEEDS_MIXED), parse_structure("(z1+z2)*z3"))
    assert cert is not None
    assert replay_certificate(pair_tuple(PAIR_NEEDS_MIXED), "(z1+z2)*z3", cert)
    assert json.dumps(certificate_to_data(cert)) == PAIR_NEEDS_MIXED_MONOMIAL_CERTIFICATE_JSON


def _reference_monomial_system(tup, s):
    """The degree-0 system built by direct expansion: each corner value is
    the product of its blocks' sums, each block sum the polynomial
    sum(l_i) + sum(d_i over the block's set bits), multiplied out as dicts
    from monomial to coefficient.  Columns in order of first appearance over
    the corners, then one separation row V(b) - V(a) per (j, a, b) kept at
    its first copy, then one unit row per column: the reference for
    ``_monomial_system``."""
    values = []
    for v in range(1 << tup.n):
        total = {}
        for blocks in s.groups:
            product = {frozenset(): 1}
            for b in blocks:
                block = {frozenset({(i, 0)}): 1 for i in sorted(b)}
                block.update({frozenset({(i, 1)}): 1 for i in sorted(b) if v >> (i - 1) & 1})
                product = {
                    m | x: c * y for m, c in product.items() for x, y in block.items()
                }
            for m, c in product.items():
                total[m] = total.get(m, 0) + c
        values.append(total)
    columns = {}
    for total in values:
        for m in total:
            columns.setdefault(m, len(columns))
    width = len(columns)

    def vector(v):
        coeffs = [0] * width
        for m, c in values[v].items():
            coeffs[columns[m]] = c
        return coeffs

    names, rows = [], []
    for j, f in enumerate(tup):
        for a in maximal_false_corners(f):
            for b in minimal_true_corners(f):
                row = tuple(x - y for x, y in zip(vector(b), vector(a)))
                if row not in rows:
                    names.append((j, a, b))
                    rows.append(row)
    rows += [tuple(int(k == c) for k in range(width)) for c in range(width)]
    return width, names, rows


def _assert_system_matches_reference(tup, s):
    expected = _reference_monomial_system(tup, s)
    got = realizability._monomial_system(tup, s)
    assert got == expected, (tup, s.text())
    # rows equal as numbers could hide a Fraction; the rows stay int
    assert _integer_rows(got[2])


def test_monomial_system_matches_one_pass_reference():
    for tup in _small_tuples():
        n = tup.n
        for class_tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
            for s in enumerate_structures(n, class_tag):
                _assert_system_matches_reference(tup, s)
    n4 = [
        OrderedTuple((MbfFunction(4, int(f, 16)), MbfFunction(4, int(g, 16))))
        for f, g in PRODUCTS_N4_PAIRS
    ]
    structures = [sum_structure(range(1, 5), 4)] + [
        s for c in (PISIGMA, SIGMAPISIGMA) for s in enumerate_structures(4, c)
    ]
    for tup in n4:
        for s in structures:
            _assert_system_matches_reference(tup, s)
    # the structure rows are built once per structure and kept
    info = realizability._structure_system.cache_info()
    assert info.misses == info.currsize and info.hits > info.misses


def test_monomial_system_returns_fresh_lists():
    tup = pair_tuple(PAIR_NEEDS_MIXED)
    s = parse_structure("(z1+z2)*z3")
    expected = _reference_monomial_system(tup, s)
    width, names, rows = realizability._monomial_system(tup, s)
    rows.append((1,) * width)
    del rows[0]
    names.append((0, 0, 0))
    assert realizability._monomial_system(tup, s) == expected
    # another tuple on the same structure gets its own separation rows
    other = pair_tuple(PAIR_NEEDS_PRODUCT)
    assert realizability._monomial_system(other, s) == _reference_monomial_system(other, s)
    assert realizability._monomial_system(tup, s) == expected


# the (canonical n=3 pair orbit, structure) pairs that monomial_certificate
# refutes, per distinct n=3 sum, pisigma and sigmapisigma structure
DEGREE_0_REFUTED_N3 = {
    "z1": 52, "z2": 55, "z1+z2": 43, "z3": 55, "z1+z3": 52, "z2+z3": 55, "z1+z2+z3": 4,
    "(z1+z2)*z3": 3, "(z1+z3)*z2": 2, "z1*(z2+z3)": 0, "z1*z2*z3": 0,
    "z1*z2+z3": 2, "z1*z3+z2": 3, "z1+z2*z3": 4,
}


def test_degree_0_decision_power_at_three_inputs():
    pairs = map(OrderedTuple, enumerate_ordered_pairs(3))
    canonical = list(dict.fromkeys(canonical_form(tup)[0] for tup in pairs))
    structures = {
        s.text(): s for c in (SIGMA, PISIGMA, SIGMAPISIGMA) for s in enumerate_structures(3, c)
    }
    assert len(canonical) == 58 and len(structures) == 14
    refuted = dict.fromkeys(structures, 0)
    for text, s in structures.items():
        for tup in canonical:
            cert = monomial_certificate(tup, s)
            if cert is not None:
                assert replay_certificate(tup, text, cert)
                refuted[text] += 1
    assert refuted == DEGREE_0_REFUTED_N3
    assert sum(refuted.values()) == 330


def test_relabeling_builds_no_monomial_system(monkeypatch):
    calls = []
    build = realizability._monomial_system

    def counted(tup, s):
        calls.append((tup, s))
        return build(tup, s)

    monkeypatch.setattr(realizability, "_monomial_system", counted)
    # a sum certificate, an exhaustion with a Farkas entry, and a collapse
    # with a Farkas inside, each relabeled from the canonical member
    cases = [
        (OrderedTuple(PAIR_NEEDS_PRODUCT), SIGMA),
        (_hex_pair("mbf:3:a0", "mbf:3:ec"), PISIGMA),
        (OrderedTuple(PAIR_UNREACHABLE_4), SIGMAPISIGMA),
    ]
    for tup, class_tag in cases:
        canon, perm = canonical_form(tup)
        assert canon != tup
        decided = {}
        canonical = check_class(canon, class_tag, decided=decided)
        assert canonical.is_not_realizable
        calls.clear()
        cert = relabel_certificate(canonical.certificate, inverse_permutation(perm))
        verdict = check_class(tup, class_tag, decided=decided)
        assert verdict.certificate == cert and replay_certificate(tup, None, cert)
        assert calls == [], (tup, class_tag)


def test_lp_systems_have_integer_rows():
    for tup in _four_input_sample()[:2]:
        for s in _product_structures(4):
            assert _integer_rows(realizability._monomial_system(tup, s)[2])


def test_farkas_none_when_witness_exists():
    assert monomial_certificate(pair_tuple(PAIR_NEEDS_PRODUCT), parse_structure("(z1+z2)*z3")) is None
    assert monomial_certificate(pair_tuple(PAIR_NEEDS_MIXED), parse_structure("z1*z2+z3")) is None


# ---------------------------------------------------------------- search

def test_search_finds_product_witness():
    tup = pair_tuple(PAIR_NEEDS_PRODUCT)
    w = search_witness(tup, parse_structure("(z1+z2)*z3"))
    assert w is not None
    assert verify_witness(tup, w)


def test_search_row10_structure():
    f, g, _ = nonseparable_pairs()[9]
    tup = OrderedTuple((f, g))
    s = parse_structure("z2*(z1+z3)")
    w = search_witness(tup, s)
    assert w is not None and verify_witness(tup, w)


def test_search_const_pair():
    tup = OrderedTuple((MbfFunction.const(1, 0), MbfFunction.const(1, 1)))
    w = search_witness(tup, parse_structure("z1", 1))
    assert w is not None
    assert w.thresholds[0] > w.thresholds[1]


def _reference_search(tup, s, tables):
    """The loop over the module's search grid without the integer screen:
    Fraction corner values, thresholds and checks at every point.
    ``tables`` keeps each structure's corner tables for the next tuple,
    which saves time and changes nothing else."""
    low, highs = realizability._GRID_LOW, realizability._GRID_HIGHS
    if s not in tables:
        support = sorted(s.support)
        tables[s] = []
        for point in itertools.product(highs, repeat=len(support)):
            high = [max(highs)] * s.n
            for i, h in zip(support, point):
                high[i - 1] = h
            phi = PhiAssignment((low,) * s.n, tuple(high))
            tables[s].append((phi, corner_table(s, phi)))
    for phi, values in tables[s]:
        thresholds = _reference_thresholds(tup, values)
        if thresholds is not None and _reference_separates(tup, thresholds, values):
            return Witness(s, phi, thresholds)
    return None


def _relabeled(f, perm):
    return sum(
        1 << sum(1 << perm[i] for i in range(f.n) if v >> i & 1)
        for v in range(1 << f.n)
        if f.truth >> v & 1
    )


def _orbit_representatives(n):
    """The ordered pair with the smallest truth tables in each orbit of
    variable relabeling."""
    perms = list(itertools.permutations(range(n)))
    return [
        (f, g)
        for f, g in enumerate_ordered_pairs(n)
        if (f.truth, g.truth) == min((_relabeled(f, p), _relabeled(g, p)) for p in perms)
    ]


def _product_structures(n):
    return enumerate_structures(n, PISIGMA) + enumerate_structures(n, SIGMAPISIGMA)


def test_search_witness_matches_fraction_reference():
    # every structure against every pair at n <= 2 and one pair per orbit at
    # n = 3 (58 of 168): relabeling a pair is relabeling the structure, and
    # every structure is tried
    assert len(_orbit_representatives(3)) == 58
    for n in (1, 2, 3):
        tables = {}
        pairs = enumerate_ordered_pairs(n) if n < 3 else _orbit_representatives(n)
        for f, g in pairs:
            tup = OrderedTuple((f, g))
            for s in _product_structures(n):
                expected = _reference_search(tup, s, tables)
                assert search_witness(tup, s) == expected, (f, g, s.text())


def test_search_witness_with_one_variable_support():
    # one-variable support, where the screen's row prefix is empty and the
    # grid is one row
    pairs = [PAIR_NEEDS_PRODUCT, PAIR_NEEDS_MIXED] + _orbit_representatives(3)[::6]
    const_pair = (MbfFunction.const(1, 0), MbfFunction.const(1, 1))
    tables = {}
    found = 0
    for f, g in pairs + [const_pair]:
        tup = OrderedTuple((f, g))
        if f.n == 3:
            structures = [sum_structure({i}, 3) for i in (1, 2, 3)]
        else:
            structures = [parse_structure("z1", 1)]
        for s in structures:
            _assert_same_screen(tup, s)
            expected = _reference_search(tup, s, tables)
            assert search_witness(tup, s) == expected, (f, g, s.text())
            found += expected is not None
    assert found > 0


@functools.lru_cache(maxsize=8192)
def _grid_table(s, high):
    """The integer corner values at one point of the module's search grid;
    kept, because the screens below meet each three-input (structure,
    point) again for every tuple."""
    low = (realizability._GRID_LOW,) * s.n
    return scaled_corner_table(s, PhiAssignment(low, high))[0]


def _per_point_screen(tup, s):
    """The integer screen one point of the module's search grid at a time:
    the index tuples of the points at which each function's maximal false
    corners are all below its minimal true corners, the whole integer corner
    table (``scaled_corner_table``) read at every point."""
    n = tup.n
    support = sorted(s.support)
    highs = realizability._GRID_HIGHS
    sides = [(maximal_false_corners(f), minimal_true_corners(f)) for f in tup]
    gaps = [(below, above) for below, above in sides if below and above]
    high = [max(highs)] * n
    admitted = []
    for point in itertools.product(range(len(highs)), repeat=len(support)):
        for i, k in zip(support, point):
            high[i - 1] = highs[k]
        values = _grid_table(s, tuple(high))
        if all(
            max(values[v] for v in below) < min(values[v] for v in above)
            for below, above in gaps
        ):
            admitted.append(point)
    return admitted


def _assert_same_screen(tup, s):
    expected = _per_point_screen(tup, s)
    assert list(realizability._screened_points(tup, s)) == expected, (
        [f.to_hex() for f in tup], s.text(),
    )
    return expected


def test_row_screen_matches_per_point_screen():
    # every orbit representative at n <= 3 against every product structure
    admitted = 0
    for n in (1, 2, 3):
        for f, g in _orbit_representatives(n):
            for s in _product_structures(n):
                admitted += len(_assert_same_screen(OrderedTuple((f, g)), s))
    assert admitted > 0


def test_row_screen_matches_per_point_screen_at_four_inputs():
    rng = random.Random(11)
    pairs = enumerate_ordered_pairs(4)
    structures = _product_structures(4)
    admitted = 0
    for _ in range(30):
        f, g = rng.choice(pairs)
        admitted += len(_assert_same_screen(OrderedTuple((f, g)), rng.choice(structures)))
    assert admitted > 0


def test_four_input_search_witnesses_are_pinned():
    for (f, g, class_tag), text in FOUR_INPUT_SEARCH_WITNESSES.items():
        tup = OrderedTuple((MbfFunction.from_hex(f"mbf:4:{f}"), MbfFunction.from_hex(f"mbf:4:{g}")))
        w = check_class(tup, class_tag).witness
        assert witness_to_text(tup, w) == text
        assert search_witness(tup, w.structure) == w


def test_structures_put_each_variable_in_one_block():
    # a corner value is affine in any one variable's high, which the row
    # screen of search_witness relies on
    for n in (1, 2, 3, 4):
        for class_tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
            for s in enumerate_structures(n, class_tag):
                members = [i for blocks in s.groups for b in blocks for i in b]
                assert len(members) == len(set(members)), s.text()


def test_search_builds_fractions_only_for_screened_points(monkeypatch):
    calls = []

    def counted(s, phi):
        calls.append(phi)
        return scaled_corner_table(s, phi)

    monkeypatch.setattr(realizability, "scaled_corner_table", counted)
    tup = pair_tuple(PAIR_NEEDS_PRODUCT)
    w = search_witness(tup, parse_structure("(z1+z2)*z3"))
    assert w is not None
    # the winning point, once: the search verifies on the table it built
    assert calls == [w.phi]
    calls.clear()
    verdict = check_sigma(OrderedTuple((MbfFunction.const(3, 0), MbfFunction.const(3, 1))))
    assert verdict.is_realizable and calls == [verdict.witness.phi]


def test_derive_thresholds_shared_gap():
    f = PAIR_NEEDS_PRODUCT[0]
    tup = OrderedTuple((f, f))
    values = (1, 2, 2, 3, 1, 5, 5, 6)
    thresholds = derive_thresholds(tup, values, 1)
    assert thresholds is not None
    assert thresholds[0] > thresholds[1]
    # the same values over another scale give the same thresholds
    assert derive_thresholds(tup, tuple(7 * v for v in values), 7) == thresholds
    assert thresholds == _reference_thresholds(tup, tuple(Fraction(v) for v in values))


# ---------------------------------------------------------------- class check

def test_mixed_pair_not_prodsum_realizable():
    verdict = check_class(pair_tuple(PAIR_NEEDS_MIXED), PISIGMA)
    assert verdict.is_not_realizable
    entries = verdict.certificate.as_dict()
    assert len(entries) == 5
    f, g = PAIR_NEEDS_MIXED
    direction_kills = [
        k for k, c in entries.items() if c == necessary_condition(f, g, parse_structure(k))
    ]
    assert len(direction_kills) == 4
    assert [k for k in entries if k not in direction_kills] == ["(z1+z2)*z3"]
    assert isinstance(entries["(z1+z2)*z3"], FarkasCertificate)


def test_n3_direction_blocked_structures():
    # every (canonical n=3 pair, product structure) the facet-comparability
    # test blocks, with its direction and floor corners p, q
    structures = {
        s.text(): s for c in (PISIGMA, SIGMAPISIGMA) for s in enumerate_structures(3, c)
    }
    found = {}
    for pair in enumerate_ordered_pairs(3):
        tup = OrderedTuple(pair)
        if canonical_form(tup)[0] is not tup:
            continue
        for text, s in structures.items():
            cert = realizability._direction_blocked(tup, s)
            if cert is not None:
                found[(*(f.to_hex().rsplit(":", 1)[1] for f in tup), text)] = tup, s, cert
    assert found.keys() == DIRECTION_BLOCKED_N3.keys()
    factors = 0
    for key, (tup, s, cert) in found.items():
        ell, p, q = DIRECTION_BLOCKED_N3[key]
        e = 1 << (ell - 1)
        if realizability.has_factor(s, ell):
            factors += 1
            l, d = ((ell, 0),), ((ell, 1),)
            rows = ((1, l, 0, q | e, p | e), (1, l, 1, p, q), (1, d, 1, p, q))
        else:
            assert realizability.has_simple_term(s, ell)
            rows = ((1, (), 0, q | e, p | e), (1, (), 1, p, q))
        assert cert == FarkasCertificate(rows), key
        assert replay_certificate(tup, key[2], cert), key
    assert (len(found), factors) == (20, 10)


def test_exhaustion_certificate_bound_to_every_structure():
    tup = pair_tuple(PAIR_UNREACHABLE_4)
    cert = check_class(tup, SIGMAPISIGMA).certificate
    assert replay_certificate(tup, None, cert)
    assert replay_certificate(tup, None, certificate_from_data(certificate_to_data(cert)))
    entries = cert.entries
    (text0, sub0), (text1, sub1) = entries[:2]
    changed = [
        (),
        entries[1:],
        entries[:-1],
        ((text1, sub1), (text0, sub0)) + entries[2:],
        (("(z1+z3)*(z2+z4)", sub0),) + entries[1:],
        entries + entries[-1:],
    ]
    # a facet's refutation lifted onto its structure refutes that structure,
    # but not every other one: in their places the exhaustion fails
    _, lifted = _lifted_entry(tup, cert)
    others = [
        k for k, (text, _) in enumerate(entries) if not replay_certificate(tup, text, lifted)
    ]
    assert others
    changed += [entries[:k] + ((entries[k][0], lifted),) + entries[k + 1:] for k in others]
    for bad in changed:
        assert not replay_certificate(tup, None, ExhaustionCertificate(bad))
    # an empty exhaustion proves nothing
    trivial = OrderedTuple((MbfFunction.const(3, 0), MbfFunction.const(3, 1)))
    assert not replay_certificate(trivial, None, ExhaustionCertificate(()))


def test_exhaustion_replays_only_against_a_claim_without_structure():
    # a forged certificate for a pair that sums of products realize,
    # nesting the pisigma exhaustion of 88/f8 where a structure's
    # certificate belongs: as every entry of its sigmapisigma exhaustion
    mixed = _hex_pair("mbf:3:88", "mbf:3:f8")
    inner = check_class(mixed, PISIGMA).certificate
    assert replay_certificate(mixed, None, inner)
    cert = ExhaustionCertificate(
        tuple((s.text(), inner) for s in enumerate_structures(3, SIGMAPISIGMA))
    )
    assert check_class(mixed, SIGMAPISIGMA).is_realizable
    assert not replay_certificate(mixed, None, cert)
    restored = certificate_from_data(json.loads(json.dumps(certificate_to_data(cert))))
    assert restored == cert and not replay_certificate(mixed, None, restored)
    # nor does an exhaustion replay against one structure of its class
    assert not replay_certificate(mixed, "z1+z2+z3", inner)


def _hex_pair(f_hex, g_hex):
    return OrderedTuple((MbfFunction.from_hex(f_hex), MbfFunction.from_hex(g_hex)))


def _facet(rows, n):
    """The (direction, bit) of the first facet that holds every corner the
    rows name, or None."""
    corners = {v for *_, a, b in rows for v in (a, b)}
    return next(
        ((ell, bit) for ell in range(1, n + 1) for bit in (0, 1)
         if all(v >> (ell - 1) & 1 == bit for v in corners)),
        None,
    )


def _lifted_entry(tup, cert):
    """The first entry of an exhaustion of ``tup`` that the collapse layer
    decided: neither the tuple's direction rows nor the structure's own
    monomial certificate, but a facet's refutation lifted onto the
    structure, so every corner of its rows lies on that facet."""
    for text, sub in cert.entries:
        s = parse_structure(text, tup.n)
        if realizability._direction_blocked(tup, s) is None and sub != monomial_certificate(tup, s):
            assert _facet(sub.rows, tup.n) is not None, text
            return text, sub
    raise AssertionError("no entry was decided on a facet")


def _certificate_json():
    """JSON data of the mixed pair 88/f8's pisigma exhaustion (degree-0
    direction rows first, a Farkas certificate second, then monomial
    direction rows) and of a8/fc's sigma Farkas certificate."""
    exhaustion = check_class(_hex_pair("mbf:3:88", "mbf:3:f8"), PISIGMA).certificate
    farkas = check_class(_hex_pair("mbf:3:a8", "mbf:3:fc"), SIGMA).certificate
    return json.loads(json.dumps(certificate_to_data(exhaustion))), certificate_to_data(farkas)


def _set(key, value):
    def change(exhaustion, farkas):
        farkas[key] = value
        return farkas
    return change


def _set_row(k, value):
    """The first Farkas row with its field k (0 for y, then j, a, b) set."""
    def change(exhaustion, farkas):
        farkas["rows"][0][k] = value
        return farkas
    return change


def _entry(**fields):
    """The first exhaustion entry with its fields updated."""
    def change(exhaustion, farkas):
        exhaustion["entries"][0].update(fields)
        return exhaustion
    return change


def _drop(key):
    def change(exhaustion, farkas):
        del exhaustion["entries"][0][key]
        return exhaustion
    return change


def _retired_collapse(exhaustion, farkas):
    """The facet-collapse certificate of older files: that kind is gone, and
    the collapse layer writes rows."""
    return {"type": "collapse", "direction": 1, "side": FLOOR, "structure": "z1+z2",
            "inner": farkas}


@pytest.mark.parametrize("change, field", [
    (_set("rows", "1" * 13), "rows"),
    (_set_row(0, True), "rows"),
    (_set_row(0, False), "rows"),
    (_set_row(0, 1.0), "rows"),
    (_set_row(0, "1/0"), "rows"),
    (_set("rows", [["1", 0, 3]]), "rows"),
    (_set("rows", [["1", 0, 3, 6, 0]]), "rows"),
    (_set("rows", ["1"]), "rows"),
    (_set_row(1, True), "rows"),
    (_set_row(1, 0.0), "rows"),
    (_set_row(2, False), "rows"),
    (_set_row(2, 3.0), "rows"),
    (_set_row(3, True), "rows"),
    (_set_row(3, 6.0), "rows"),
    (_set("type", 1), "type"),
    (_set("type", None), "type"),
    (_entry(structure=["z1", "z2"]), "structure"),
    (_entry(certificate="farkas"), "is not a dict"),
    (_entry(certificate=[]), "is not a dict"),
    (_retired_collapse, "type"),
    (lambda exhaustion, farkas: {**exhaustion, "entries": "abc"}, "entries"),
    (lambda exhaustion, farkas: {**exhaustion, "entries": {}}, "entries"),
    (lambda exhaustion, farkas: {**exhaustion, "entries": ["abc"]}, "entry"),
    (lambda exhaustion, farkas: {**exhaustion, "entries": [{"structure": 1, "certificate": farkas}]},
     "structure"),
    (lambda exhaustion, farkas: {"rows": farkas["rows"]}, "type"),
    (lambda exhaustion, farkas: {"type": "farkas"}, "rows"),
    (lambda exhaustion, farkas: {"type": "exhaustion"}, "entries"),
    (_drop("certificate"), "certificate"),
    (_drop("structure"), "structure"),
    (lambda exhaustion, farkas: [farkas], "not an object"),
    # a row carries a monomial only as a fifth element of l{i}/d{i} symbols
    (_set("rows", [["1", 0, 3, 6, "l1", 0]]), "rows"),
    (_set("rows", [["1", 0, 3, 6, "x2"]]), "rows"),
    (_set("rows", [["1", 0, 3, 6, "l0"]]), "rows"),
    (_set("rows", [["1", 0, 3, 6, "l2*"]]), "rows"),
    (_set("rows", [["1", 0, 3, 6, "l2**d3"]]), "rows"),
    (_set("rows", [["1", 0, 3, 6, ""]]), "rows"),
    (_set("rows", [["1", 0, 3, 6, ["l1"]]]), "rows"),
])
def test_certificate_from_data_rejects_malformed_data(change, field):
    exhaustion, farkas = _certificate_json()
    with pytest.raises(ValueError, match=field):
        certificate_from_data(change(exhaustion, farkas))


def test_every_n3_certificate_round_trips_through_json():
    decided = {}
    certificates = [
        check_class(OrderedTuple(pair), class_tag, decided=decided).certificate
        for class_tag in (SIGMA, PISIGMA, SIGMAPISIGMA)
        for pair in enumerate_ordered_pairs(3)
    ]
    certificates = [c for c in certificates if c is not None]
    assert len(certificates) == 18 + 3
    for cert in certificates:
        data = json.loads(json.dumps(certificate_to_data(cert)))
        assert certificate_from_data(data) == cert
        assert certificate_to_data(certificate_from_data(data)) == data


def _farkas_mutations(tup, cert):
    """Copies of a Farkas certificate of ``tup``, each with its rows changed
    in one place: a row's b moved onto a false corner of f_j or its a onto a
    true one; its j set to another member that differs at a or b, or out of
    range; its y doubled, set to 0 or negated; a row dropped; no rows; every
    y set to 0 or negated."""
    size = 1 << tup.n
    rows = cert.rows
    changed = [(), tuple((Fraction(0), *name) for _, *name in rows)]
    changed.append(tuple((-y, *name) for y, *name in rows))
    for k, (y, m, j, a, b) in enumerate(rows):
        truth = tup[j].truth
        others = [(y, m, j, a, c) for c in range(size) if not truth >> c & 1]
        others += [(y, m, j, c, b) for c in range(size) if truth >> c & 1]
        others += [
            (y, m, i, a, b) for i in range(len(tup))
            if (tup[i].truth >> a & 1, tup[i].truth >> b & 1) != (0, 1)
        ]
        others += [(y, m, len(tup), a, b), (y, m, -1, a, b)]
        others += [(2 * y, m, j, a, b), (Fraction(0), m, j, a, b), (-y, m, j, a, b)]
        changed += [rows[:k] + (row,) + rows[k + 1:] for row in others]
        changed.append(rows[:k] + rows[k + 1:])
    return [FarkasCertificate(r) for r in changed]


def test_monomial_and_collapse_certificates_reject_every_mutation():
    # the monomial certificate of an impossible n=3 pisigma pair of the census
    mixed = pair_tuple(PAIR_NEEDS_MIXED)
    text, monomial = next(
        (t, c) for t, c in check_class(mixed, PISIGMA).certificate.entries
        if isinstance(c, FarkasCertificate)
    )
    assert replay_certificate(mixed, text, monomial)
    for bad in _farkas_mutations(mixed, monomial):
        assert not replay_certificate(mixed, text, bad), bad
    # e0/ee's sum certificate is (d3 - d1) + (d1 - d3): with every y set to
    # 0 or negated it still adds up to 0, so only the y > 0 check rejects it
    product = pair_tuple(PAIR_NEEDS_PRODUCT)
    for bad in _farkas_mutations(product, check_sigma(product).certificate):
        assert not replay_certificate(product, None, bad), bad
    # the sum certificate of the same pair adds up to -d2*d3 under this
    # structure, so it refutes it too, but it leaves a positive coefficient
    # under the structures these rows cannot refute
    sum_certificate = check_sigma(mixed).certificate
    assert replay_certificate(mixed, None, sum_certificate)
    assert replay_certificate(mixed, text, sum_certificate)
    for other_text in ("(z1+z3)*z2", "z1*(z2+z3)", "z1*z2*z3", "z1*z2+z3"):
        assert not replay_certificate(mixed, other_text, sum_certificate)
        assert not replay_certificate(mixed, other_text, monomial)
    # against another tuple (80/f8) its rows name corners of other values
    other = _hex_pair("mbf:3:80", "mbf:3:f8")
    assert not replay_certificate(other, text, monomial)
    assert not replay_certificate(other, None, sum_certificate)
    # collapse pruning runs at four inputs only: a facet's refutation of the
    # n=4 pair, lifted onto its structure, is rows like any other
    unreachable = pair_tuple(PAIR_UNREACHABLE_4)
    parent, lifted = _lifted_entry(unreachable, check_class(unreachable, SIGMAPISIGMA).certificate)
    assert replay_certificate(unreachable, parent, lifted)
    for bad in _farkas_mutations(unreachable, lifted):
        assert not replay_certificate(unreachable, parent, bad), bad


def test_replay_rejects_structure_text_that_does_not_parse():
    bad_texts = ("z1+(", "z1+z2)", "x1", "")
    tup = pair_tuple(PAIR_NEEDS_PRODUCT)
    farkas = check_sigma(tup).certificate
    f, g = PAIR_NEEDS_PRODUCT
    direction = necessary_condition(f, g, sum_structure({1, 2, 3}, 3))
    assert replay_certificate(tup, "z1+z2+z3", farkas)
    assert replay_certificate(tup, "z1+z2+z3", direction)
    for text in bad_texts:
        assert not replay_certificate(tup, text, farkas)
        assert not replay_certificate(tup, text, direction)
    unreachable = pair_tuple(PAIR_UNREACHABLE_4)
    parent, lifted = _lifted_entry(unreachable, check_class(unreachable, SIGMAPISIGMA).certificate)
    assert replay_certificate(unreachable, parent, lifted)
    for text in bad_texts:
        assert not replay_certificate(unreachable, text, lifted)


def test_replay_rejects_structure_text_with_repeated_variable():
    # each certificate replays against its canonical text, and the repeated
    # variable text used to parse to that same structure
    tup = pair_tuple(PAIR_NEEDS_PRODUCT)
    farkas = monomial_certificate(tup, parse_structure("z1+z2", 3))
    assert replay_certificate(tup, "z1+z2", farkas)
    assert not replay_certificate(tup, "z1+z1+z2", farkas)
    mixed = pair_tuple(PAIR_NEEDS_MIXED)
    entries = dict(check_class(mixed, PISIGMA).certificate.entries)
    direction = entries["z1*z2*z3"]
    assert replay_certificate(mixed, "z1*z2*z3", direction)
    assert not replay_certificate(mixed, "(z2+z2)*z1*z3", direction)


def test_mixed_pair_mixed_realizable():
    verdict = check_class(pair_tuple(PAIR_NEEDS_MIXED), SIGMAPISIGMA)
    assert verdict.is_realizable
    assert verdict.witness.structure.text() == "z1*z2+z3"
    assert verify_witness(pair_tuple(PAIR_NEEDS_MIXED), verdict.witness)


def test_product_pair_prodsum_realizable():
    verdict = check_class(pair_tuple(PAIR_NEEDS_PRODUCT), PISIGMA)
    assert verdict.is_realizable
    assert verify_witness(pair_tuple(PAIR_NEEDS_PRODUCT), verdict.witness)


def test_sum_realizable_pair_promotes():
    pairs = enumerate_ordered_pairs(2)
    f, g = pairs[3]
    for tag in (PISIGMA, SIGMAPISIGMA):
        verdict = check_class(OrderedTuple((f, g)), tag)
        assert verdict.is_realizable
        assert verify_witness(OrderedTuple((f, g)), verdict.witness)


def test_check_class_k():
    tup = pair_tuple(PAIR_UNREACHABLE_4)
    verdict = check_class(tup, "k")
    assert verdict.is_realizable
    assert verify_k_witness(tup, verdict.witness)


# ---------------------------------------------------------------- transformations

def test_lift_sum_witnesses_exhaustive_n2():
    for f, g in enumerate_ordered_pairs(2):
        tup = OrderedTuple((f, g))
        verdict = check_sigma(tup)
        assert verdict.is_realizable
        lifted = lift_eta((f, g), verdict.witness, SIGMA)
        assert verify_witness(OrderedTuple((eta(f, g),)), lifted)


def test_lift_product_witness_ratio():
    text, highs, thresholds = PAIR_NEEDS_PRODUCT_WITNESS
    w = witness_from_parts(text, highs, thresholds)
    lifted = lift_eta(PAIR_NEEDS_PRODUCT, w, PISIGMA)
    assert lifted.phi.high[3] == Fraction(2)  # ratio of the two thresholds
    assert lifted.phi.low[3] == 1
    f, g = PAIR_NEEDS_PRODUCT
    assert verify_witness(OrderedTuple((eta(f, g),)), lifted)


@pytest.mark.parametrize(
    "witness, pair, class_tag",
    [
        (PAIR_NEEDS_PRODUCT_WITNESS, PAIR_NEEDS_PRODUCT, SIGMA),
        (PAIR_NEEDS_MIXED_WITNESS, PAIR_NEEDS_MIXED, PISIGMA),
    ],
    ids=["product-as-sigma", "two-groups-as-pisigma"],
)
def test_lift_rejects_a_class_the_witness_does_not_fit(witness, pair, class_tag):
    text, highs, thresholds = witness
    w = witness_from_parts(text, highs, thresholds)
    assert verify_witness(OrderedTuple(pair), w)
    with pytest.raises(ValueError, match=re.escape(text)) as info:
        lift_eta(pair, w, class_tag)
    assert type(info.value) is ValueError


def test_lift_trivial_pair():
    z, o = MbfFunction.const(2, 0), MbfFunction.const(2, 1)
    verdict = check_sigma(OrderedTuple((z, o)))
    lifted = lift_eta((z, o), verdict.witness, SIGMA)
    assert verify_witness(OrderedTuple((eta(z, o),)), lifted)


@pytest.mark.parametrize("class_tag", [SIGMA, PISIGMA, SIGMAPISIGMA])
def test_lift_extends_a_sum_that_leaves_out_a_variable(class_tag):
    # z1+z3 separates z1 and z3 from z1 or z3 and leaves z2 out; the lift
    # first extends the sum to all three variables, so the lifted structure
    # is in the class's enumeration at four inputs
    f, g = MbfFunction.from_hex("mbf:3:a0"), MbfFunction.from_hex("mbf:3:fa")
    phi = PhiAssignment((1, 1, 1), (2, 2, 2))
    w = Witness(sum_structure({1, 3}, 3), phi, (Fraction(7, 2), Fraction(5, 2)))
    assert verify_witness(OrderedTuple((f, g)), w)
    lifted = lift_eta((f, g), w, class_tag)
    assert verify_witness(OrderedTuple((eta(f, g),)), lifted)
    assert lifted.structure in enumerate_structures(4, class_tag)
    assert lifted.structure.support == frozenset({1, 2, 3, 4})
    assert lower_eta(eta(f, g), lifted, 4)[0] == (f, g)


def test_lower_recovers_pair_n2():
    for f, g in enumerate_ordered_pairs(2):
        tup = OrderedTuple((f, g))
        w = check_sigma(tup).witness
        lifted = lift_eta((f, g), w, SIGMA)
        (f2, g2), back = lower_eta(eta(f, g), lifted, 3)
        assert (f2, g2) == (f, g)
        assert verify_witness(tup, back)


def test_lower_projection():
    # the function equal to its last input, realized by the full sum
    h = eta(MbfFunction.const(2, 0), MbfFunction.const(2, 1))
    verdict = check_sigma(OrderedTuple((h,)))
    (f, g), w = lower_eta(h, verdict.witness, 3)
    assert f == MbfFunction.const(2, 0)
    assert g == MbfFunction.const(2, 1)
    assert verify_witness(OrderedTuple((f, g)), w)


def test_lower_requires_qualifying_direction():
    f, g = PAIR_NEEDS_MIXED
    h = eta(f, g)
    # z1 sits inside the block of a mixed structure on 4 variables
    s = parse_structure("(z1+z2)*z3+z4", 4)
    phi = PhiAssignment((1, 1, 1, 1), (2, 2, 2, 2))
    w = Witness(s, phi, (Fraction(1, 2),))
    with pytest.raises((ValueError, WitnessError)):
        lower_eta(h, w, 1)


def test_collapse_witness_mixed():
    text, highs, thresholds = PAIR_NEEDS_MIXED_WITNESS
    w = witness_from_parts(text, highs, thresholds)
    tup = pair_tuple(PAIR_NEEDS_MIXED)
    collapsed, w2 = collapse_witness(tup, w, 3, FLOOR)
    assert w2.structure.text() == "z1*z2"
    assert verify_witness(collapsed, w2)


def test_collapse_witness_product_ceiling():
    text, highs, thresholds = PAIR_NEEDS_PRODUCT_WITNESS
    w = witness_from_parts(text, highs, thresholds)
    tup = pair_tuple(PAIR_NEEDS_PRODUCT)
    collapsed, w2 = collapse_witness(tup, w, 3, CEILING)
    assert w2.structure.text() == "z1+z2"
    # the sibling block absorbed the factor value 2
    assert w2.phi.low == (2, 2)
    assert verify_witness(collapsed, w2)


def test_collapse_witness_outside_support():
    f = MbfFunction(2, 0b1010)  # equal to y1
    tup = OrderedTuple((f,))
    w = Witness(
        parse_structure("z1", 2),
        PhiAssignment((1, 1), (2, 2)),
        (Fraction(3, 2),),
    )
    assert verify_witness(tup, w)
    collapsed, w2 = collapse_witness(tup, w, 2, FLOOR)
    assert verify_witness(collapsed, w2)
    assert w2.thresholds == w.thresholds


def test_collapse_all_directions_of_reference_witnesses():
    for (f, g, _), (text, highs, theta_g, theta_f) in zip(
        nonseparable_pairs(), REFERENCE_WITNESSES
    ):
        tup = OrderedTuple((f, g))
        w = witness_from_parts(text, highs, (theta_f, theta_g))
        for ell in (1, 2, 3):
            for side in (FLOOR, CEILING):
                collapsed, w2 = collapse_witness(tup, w, ell, side)
                assert verify_witness(collapsed, w2)


@pytest.mark.parametrize("direction", [-1, 0, 4])
def test_collapse_rejects_a_direction_out_of_range(direction):
    text, highs, thresholds = PAIR_NEEDS_MIXED_WITNESS
    w = witness_from_parts(text, highs, thresholds)
    tup = pair_tuple(PAIR_NEEDS_MIXED)
    h = eta(MbfFunction.const(2, 0), MbfFunction.const(2, 1))
    projection = check_sigma(OrderedTuple((h,))).witness
    calls = [
        lambda: collapse_role(w.structure, direction),
        lambda: collapse_shape(w.structure, direction),
        lambda: collapse_structure(w.structure, direction, FLOOR, w.phi),
        lambda: collapse_witness(tup, w, direction, CEILING),
        lambda: lower_eta(h, projection, direction),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"direction {direction} out of range 1..3"):
            call()


def _polynomial(s, v):
    """The value of ``s`` at corner v as {(l, d) monomial: coefficient}."""
    return Counter(tuple(sorted(m)) for m in corner_monomials(s, v))


def _times(p, q):
    out = Counter()
    for m, x in p.items():
        for k, y in q.items():
            out[tuple(sorted(m + k))] += x * y
    return out


def _minus(p, q):
    out = Counter(p)
    out.subtract(q)
    return Counter({m: x for m, x in out.items() if x})


def _substituted(p, s, ell, side):
    """sigma of a polynomial in the symbols of the collapse shape of ``s``
    in direction ell: the variables from z_ell on move up one, a bare
    factor's sibling block has l_i and d_i times c, and a shared block's
    survivor has l_s + c, with c = l_ell on the floor and l_ell + d_ell on
    the ceiling."""
    role, target = collapse_role(s, ell)
    c = Counter({((ell, 0),): 1})
    if side == CEILING:
        c[((ell, 1),)] = 1
    out = Counter()
    for m, k in p.items():
        term = Counter({(): k})
        for i, kind in m:
            i += i >= ell
            symbol = Counter({((i, kind),): 1})
            if role == FACTOR and i in target:
                symbol = _times(symbol, c)
            elif role == SHARED and (i, kind) == (target, 0):
                symbol += c
            term = _times(term, symbol)
        out.update(term)
    return out


def test_facet_corner_vectors_are_the_shape_under_one_substitution():
    # every n <= 4 product of sums, sum of products of sums and full sum, in
    # every direction, on both facets: sigma of the shape's corner vector
    # differs from the full one by one polynomial, c for a standalone
    # summand and 0 otherwise; and rows lifted by ``_lifted`` add up to
    # sigma of the shape's rows, m = l_i and m = d_i for each variable,
    # which takes each role's substitution (the bare factor's of degree 2,
    # which no n=4 census certificate uses) through the lift
    corners = 0
    roles = Counter()
    degrees = set()
    for n in (2, 3, 4):
        structures = [sum_structure(range(1, n + 1), n)]
        structures += enumerate_structures(n, PISIGMA) + enumerate_structures(n, SIGMAPISIGMA)
        top = (1 << (n - 1)) - 1
        for s in structures:
            for ell in range(1, n + 1):
                shape = collapse_shape(s, ell)
                role, _ = collapse_role(s, ell)
                roles[role] += 1
                for side, bit in ((FLOOR, 0), (CEILING, 1)):
                    c = Counter({((ell, kind),): 1 for kind in range(bit + 1)})
                    expected = c if role == SUMMAND else Counter()
                    for v in range(top + 1):
                        full = _polynomial(s, corner_insert_bit(v, ell, bit))
                        image = _substituted(_polynomial(shape, v), s, ell, side)
                        assert _minus(full, image) == expected, (s.text(), ell, side, v)
                        corners += 1
                    gap = _minus(_polynomial(shape, top), _polynomial(shape, 0))
                    a, b = corner_insert_bit(0, ell, bit), corner_insert_bit(top, ell, bit)
                    full_gap = _minus(_polynomial(s, b), _polynomial(s, a))
                    for symbol in itertools.product(range(1, n), (0, 1)):
                        rows = realizability._lifted(s, ell, side, ((1, (symbol,), 0, 0, top),))
                        assert {row[2:] for row in rows} == {(0, a, b)}
                        total = Counter()
                        for y, m, *_ in rows:
                            total.update(_times({m: y}, full_gap))
                            degrees.add(len(m))
                        assert total == _substituted(_times({(symbol,): 1}, gap), s, ell, side)
    assert corners == 3960
    assert set(roles) == {SUMMAND, FACTOR, SHARED}
    assert degrees == {1, 2}


# ---------------------------------------------------------------- separating form

def test_and_gate_separating_roundtrip():
    w = separating_to_witness((1, 1), Fraction(3, 2))
    assert w.phi.low == (1, 1)
    assert w.phi.high == (2, 2)
    assert w.thresholds == (Fraction(7, 2),)
    assert induced_function(w).truth == 0b1000


def test_const_one_separating():
    w = separating_to_witness((0, 0, 0), Fraction(-5, 2))
    assert w.thresholds == (Fraction(1, 2),)
    assert induced_function(w) == MbfFunction.const(3, 1)


def test_separating_roundtrip_all_threshold_functions_n3():
    for f in enumerate_mbf_positive(3):
        verdict = check_sigma(OrderedTuple((f,)))
        assert verdict.is_realizable  # every 3-input monotone function separates
        a, theta_prime = witness_to_separating(verdict.witness)
        back = separating_to_witness(a, theta_prime)
        assert induced_function(back) == f


def test_separating_rejects_bad_inputs():
    with pytest.raises(ValueError):
        separating_to_witness((-1, 0), Fraction(0))
    with pytest.raises(ValueError):
        separating_to_witness((1, 1), Fraction(-3))


# ---------------------------------------------------------------- sum re-tag

def test_sum_witness_retagged_for_product_classes():
    f = MbfFunction(2, 0b1010)  # equal to y1
    tup = OrderedTuple((f,))
    sigma = check_sigma(tup)
    assert sigma.is_realizable
    assert sigma.witness.structure.text() == "z1+z2"
    for tag in (PISIGMA, SIGMAPISIGMA):
        # the sum's witness serves every class unchanged
        w = check_class(tup, tag).witness
        assert w == sigma.witness
        assert w.structure in enumerate_structures(2, tag)
        assert verify_witness(tup, w)


# ---------------------------------------------------------------- witness files

def test_witness_file_roundtrip():
    text, highs, thresholds = PAIR_NEEDS_MIXED_WITNESS
    tup = pair_tuple(PAIR_NEEDS_MIXED)
    w = witness_from_parts(text, highs, thresholds)
    doc = witness_to_text(tup, w)
    tup2, w2 = witness_from_text(doc)
    assert tup2 == tup
    assert w2 == w
    assert verify_witness(tup2, w2)


def test_k_witness_file_roundtrip():
    tup = pair_tuple(PAIR_NEEDS_MIXED)
    kw = realize_k(tup)
    doc = witness_to_text(tup, kw)
    tup2, kw2 = witness_from_text(doc)
    assert kw2 == kw
    assert verify_k_witness(tup2, kw2)


def test_corrupted_witness_fails():
    text, highs, _ = PAIR_NEEDS_MIXED_WITNESS
    w = witness_from_parts(text, highs, (Fraction(9, 2), Fraction(9, 2)))
    assert not verify_witness(pair_tuple(PAIR_NEEDS_MIXED), w)


# ---------------------------------------------------------------- randomized

def random_chain(rng, n, k):
    size = (1 << (1 << n)) - 1
    truth = monotone_closure(rng.randrange(size + 1), n)
    chain = [MbfFunction(n, truth)]
    for _ in range(k - 1):
        truth = monotone_closure(truth | rng.randrange(size + 1), n)
        chain.append(MbfFunction(n, truth))
    return OrderedTuple(chain)


def test_realize_k_random_chains():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        tup = random_chain(rng, n, k)
        assert verify_k_witness(tup, realize_k(tup))


# ---------------------------------------------------------------- orbit cache

def _assert_matches_uncached(tup, class_tag):
    """check_class against the uncached decision of the member itself."""
    verdict = check_class(tup, class_tag)
    direct = realizability._decide(tup, class_tag, {})
    assert verdict.status == direct.status, (tup, class_tag)
    if verdict.is_realizable:
        assert verify_witness(tup, verdict.witness)
    elif verdict.is_not_realizable:
        assert replay_certificate(tup, None, verdict.certificate)
    canon, perm = canonical_form(tup)
    if canon is tup:
        assert verdict == direct
    elif verdict.is_not_realizable:
        # the canonical member's certificate, relabeled onto this member
        canonical = realizability._decide(canon, class_tag, {})
        back = inverse_permutation(perm)
        assert verdict.certificate == relabel_certificate(canonical.certificate, back)
    elif not verdict.is_realizable:
        # the same open structures, in the class's enumeration order
        assert verdict.diagnostics == direct.diagnostics
    return verdict


def test_check_class_matches_uncached_decision_on_every_pair():
    for n in (1, 2, 3):
        for pair in enumerate_ordered_pairs(n):
            for class_tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
                _assert_matches_uncached(OrderedTuple(pair), class_tag)


def test_check_class_matches_uncached_decision_on_chains_of_three():
    chains = [OrderedTuple(chain) for chain in enumerate_chains(3, 3)]
    assert len(chains) == 887
    relabeled = 0
    for tup in chains:
        verdict = _assert_matches_uncached(tup, PISIGMA)
        relabeled += verdict.is_realizable and canonical_form(tup)[0] is not tup
    assert relabeled > 0


@pytest.mark.parametrize("class_tag", [SIGMA, PISIGMA, SIGMAPISIGMA])
def test_a_repeated_function_never_changes_the_verdict(class_tag):
    # a repeated function's second threshold fits inside the same gap, so
    # each n=3 chain of three is decided as its strict chain is
    chains = enumerate_chains(3, 3)
    repeated = [chain for chain in chains if len(set(chain)) < len(chain)]
    assert (len(chains), len(repeated)) == (887, 316)
    decided = {}
    for chain in repeated:
        strict = tuple(dict.fromkeys(chain))
        verdict = check_class(OrderedTuple(chain), class_tag, decided=decided)
        expected = check_class(OrderedTuple(strict), class_tag, decided=decided)
        assert verdict.status == expected.status, (chain, class_tag)


def test_orbit_members_share_one_decision(monkeypatch):
    tup = OrderedTuple(PAIR_NEEDS_PRODUCT)
    canon, _ = canonical_form(tup)
    decisions = []
    decide = realizability._decide

    def counted(tup, class_tag, decided):
        decisions.append((tup, class_tag))
        return decide(tup, class_tag, decided)

    monkeypatch.setattr(realizability, "_decide", counted)
    decided = {}
    cached = check_class(canon, PISIGMA, decided=decided)
    assert check_class(canon, PISIGMA, decided=decided) is cached
    for perm in permutations(3):
        member = relabel_tuple(canon, perm)
        verdict = check_class(member, PISIGMA, decided=decided)
        assert verdict.witness == relabel_witness(cached.witness, perm)
        assert verify_witness(member, verdict.witness)
    # the product decision reads the sum verdict, decided once on the way
    assert decisions == [(canon, PISIGMA), (canon, SIGMA)]
    assert list(decided) == [(canon, SIGMA), (canon, PISIGMA)]
    assert decided[canon, PISIGMA] is cached
    assert check_class(canon, SIGMA, decided=decided).is_not_realizable
    assert len(decisions) == 2
    # without a shared dict every call decides on its own
    check_class(canon, PISIGMA)
    check_class(canon, PISIGMA)
    assert len(decisions) == 6


def test_orbit_cache_at_four_inputs():
    unreachable = OrderedTuple(PAIR_UNREACHABLE_4)
    relabeled = relabel_tuple(unreachable, (2, 3, 4, 1))
    assert canonical_form(relabeled)[0] == canonical_form(unreachable)[0]
    for tup in (unreachable, relabeled):
        for class_tag in (PISIGMA, SIGMAPISIGMA):
            assert _assert_matches_uncached(tup, class_tag).is_not_realizable
    # a member whose canonical form is a 3-cycle away gets a relabeled witness
    tup = OrderedTuple((MbfFunction(4, 0x0000), MbfFunction(4, 0xFCA8)))
    canon, perm = canonical_form(tup)
    assert canon != tup and perm == (1, 3, 4, 2)
    verdict = _assert_matches_uncached(tup, PISIGMA)
    assert verdict.is_realizable and verdict.witness.structure.text() == "(z1+z4)*(z2+z3)"


def _unrelabel_a_row(cert, canonical):
    """The first row with the canonical certificate's corners, as if they had
    not been relabeled."""
    return replace(cert, rows=canonical[None].rows[:1] + cert.rows[1:])


def _unrelabel_a_lifted_row(text):
    """A breaker: the entry for structure ``text``, a facet's refutation
    lifted onto it, takes the first row of the canonical member's entry for
    the same structure, as if that row had not been relabeled."""

    def broken(cert, canonical):
        entries = dict(cert.entries)
        assert _facet(canonical[text].rows, 4) is not None
        entries[text] = _unrelabel_a_row(entries[text], {None: canonical[text]})
        return ExhaustionCertificate(tuple(entries.items()))

    return broken


def _unrelabel_monomials(text):
    """A breaker: the rows of the entry for structure ``text`` keep their
    corners but take the monomials of the canonical member's entry for the
    same structure, as if those had not been relabeled."""

    def broken(cert, canonical):
        entries = dict(cert.entries)
        pairs = zip(entries[text].rows, canonical[text].rows)
        entries[text] = FarkasCertificate(
            tuple((y, m, j, a, b) for (y, _, j, a, b), (_, m, *_) in pairs)
        )
        return ExhaustionCertificate(tuple(entries.items()))

    return broken


@pytest.mark.parametrize(
    "pair, class_tag, canonical_pair, break_",
    [
        (PAIR_NEEDS_PRODUCT, SIGMA, "a8 fc", _unrelabel_a_row),
        (
            (MbfFunction(3, 0xA0), MbfFunction(3, 0xEC)),
            PISIGMA,
            "88 f8",
            _unrelabel_monomials("(z1+z2)*z3"),
        ),
        (
            PAIR_UNREACHABLE_4,
            SIGMAPISIGMA,
            "a888 fcf8",
            _unrelabel_a_lifted_row("(z1+z3)*(z2+z4)"),
        ),
    ],
    ids=["farkas-e0/ee", "direction-a0/ec", "lifted-c888/faf8"],
)
def test_broken_relabeled_certificates_do_not_replay(pair, class_tag, canonical_pair, break_):
    tup = OrderedTuple(pair)
    canon, perm = canonical_form(tup)
    assert " ".join(f.to_hex().rsplit(":", 1)[1] for f in canon) == canonical_pair
    back = inverse_permutation(perm)
    canonical = check_class(canon, class_tag).certificate
    cert = check_class(tup, class_tag).certificate
    assert cert == relabel_certificate(canonical, back)
    assert replay_certificate(tup, None, cert)
    # each canonical entry, keyed by the text of its structure on this
    # member, and the whole canonical certificate under None
    entries = getattr(canonical, "entries", ())
    by_member_text = {
        relabel_structure(parse_structure(text, tup.n), back).text(): sub for text, sub in entries
    }
    by_member_text[None] = canonical
    broken = break_(cert, by_member_text)
    assert broken != cert
    assert not replay_certificate(tup, None, broken)


@pytest.mark.parametrize("h", sorted(PISIGMA_OPEN_STRUCTURES))
def test_unknown_members_list_their_own_open_structures(h):
    tup = OrderedTuple((MbfFunction.from_hex(f"mbf:4:{h}"),))
    canon, _ = canonical_form(tup)
    assert canon is not tup and canon[0].to_hex() == "mbf:4:eac0"
    verdict = check_class(tup, PISIGMA)
    assert verdict.status == realizability.UNKNOWN
    assert verdict.diagnostics == PISIGMA_OPEN_STRUCTURES[h]


def test_guards_fire_before_canonicalization():
    tup = OrderedTuple((MbfFunction.const(5, 0), MbfFunction.const(5, 1)))
    with pytest.raises(ValueError, match="product classes guarded at arity 4"):
        check_class(tup, PISIGMA)
    with pytest.raises(ValueError, match="unknown class tag 'bogus'"):
        check_class(tup, "bogus")
    wide = OrderedTuple((MbfFunction.const(6, 0),))
    with pytest.raises(ValueError, match="sum decision guarded at arity 5"):
        check_class(wide, SIGMA)
    assert check_class(wide, "k").is_realizable
    # ``decided`` is keyword-only, so a stray positional argument cannot
    # land in it
    with pytest.raises(TypeError):
        check_class(OrderedTuple(PAIR_NEEDS_PRODUCT), PISIGMA, {})


# ---------------------------------------------------------------- collapse facts

def _reference_blocked(tup, s):
    """The per-structure loop ``_structure_blocked`` ran before collapse
    facts were kept: every collapsed tuple and every collapse test is
    rebuilt for each structure, with collapse pruning at four inputs.
    Returns the certificate and, when a facet's refutation was lifted, the
    facet's (direction, side)."""
    for f, g in itertools.combinations(tup, 2):
        cert = necessary_condition(f, g, s)
        if cert is not None:
            return cert, None
    if tup.n == 4:
        for ell in range(1, tup.n + 1):
            shape = collapse_shape(s, ell)
            for side in (FLOOR, CEILING):
                collapsed = OrderedTuple(
                    tuple(restrict_and_collapse(f, ell, side) for f in tup)
                )
                inner, _ = _reference_blocked(collapsed, shape)
                if inner is not None:
                    lifted = realizability._lifted(s, ell, side, inner.rows)
                    return FarkasCertificate(lifted), (ell, side)
    return monomial_certificate(tup, s), None


def _four_input_sample():
    unreachable = OrderedTuple(PAIR_UNREACHABLE_4)
    sample = random.Random(4).sample(enumerate_ordered_pairs(4), 16)
    return [unreachable, relabel_tuple(unreachable, (2, 3, 4, 1))] + [
        OrderedTuple(pair) for pair in sample
    ]


def test_collapse_table_matches_per_structure_reference():
    blocked = 0
    for tup in _four_input_sample():
        for class_tag in (PISIGMA, SIGMAPISIGMA):
            for s in enumerate_structures(4, class_tag):
                expected, facet = _reference_blocked(tup, s)
                assert realizability._structure_blocked(tup, s) == expected, (tup, s.text())
                if facet is not None:
                    ell, side = facet
                    bit = int(side == CEILING)
                    corners = [v for *_, a, b in expected.rows for v in (a, b)]
                    assert all(v >> (ell - 1) & 1 == bit for v in corners)
                    assert replay_certificate(tup, s.text(), expected)
                    blocked += 1
    assert blocked > 0


def _counted_monomial_calls(monkeypatch):
    calls = []
    inner = realizability.monomial_certificate

    def counted(tup, s):
        calls.append((tup, s.text()))
        return inner(tup, s)

    monkeypatch.setattr(realizability, "monomial_certificate", counted)
    return calls


def test_decision_tests_each_collapsed_tuple_and_shape_once(monkeypatch):
    calls = _counted_monomial_calls(monkeypatch)
    for tup in _four_input_sample()[:4]:
        # each tuple starts without collapse facts; its two product-class
        # decisions then test each (collapsed tuple, shape) once between them
        realizability._collapsed_blocked.cache_clear()
        collapsed = []
        for class_tag in (PISIGMA, SIGMAPISIGMA):
            calls.clear()
            realizability._decide(tup, class_tag, {})
            own = [call for call in calls if call[0].n == 4]
            assert len(own) == len(set(own)), (tup, class_tag)
            collapsed += [call for call in calls if call[0].n == 3]
        assert collapsed and len(collapsed) == len(set(collapsed)), tup


def test_lone_calls_share_collapse_facts_but_no_verdict(monkeypatch):
    calls = _counted_monomial_calls(monkeypatch)
    # a canonical member, so that a lone call makes one decision
    tup, _ = canonical_form(OrderedTuple(PAIR_UNREACHABLE_4))
    first = check_class(tup, SIGMAPISIGMA)
    once = list(calls)
    assert any(t.n == 3 for t, _ in once)
    calls.clear()
    assert check_class(tup, SIGMAPISIGMA) == first
    # the second call is decided again, structure by structure, but makes
    # no three-input test: those facts were kept
    assert calls == [call for call in once if call[0].n == 4]


# ---------------------------------------------------------------- class chain

def test_class_chain_decides_each_canonical_tuple_once(monkeypatch):
    sums = []
    inner = realizability.check_sigma

    def counted(tup):
        sums.append(tup)
        return inner(tup)

    monkeypatch.setattr(realizability, "check_sigma", counted)
    monomials = _counted_monomial_calls(monkeypatch)
    sample = _four_input_sample()
    decided = {}
    for tup in sample:
        for class_tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
            check_class(tup, class_tag, decided=decided)
    # every member gets its canonical member's verdict, so no other
    # four-input tuple reaches the sum decision or a monomial test
    assert all(canonical_form(tup)[0] == tup for tup in sums)
    assert sorted(sums, key=repr) == sorted({canonical_form(tup)[0] for tup in sample}, key=repr)
    own = [(tup, text) for tup, text in monomials if tup.n == 4]
    assert all(canonical_form(tup)[0] == tup for tup, _ in own)
    assert own and len(own) == len(set(own))
    # the shared dict keeps canonical tuples only
    assert all(canonical_form(tup)[0] == tup for tup, _ in decided)


@pytest.mark.parametrize("f, g", [(0x8880, 0xEAC8), (0x8888, 0xEAC8)])
def test_sums_of_products_start_from_the_product_of_sums(monkeypatch, f, g):
    # the orbits whose (z1+z2)*z3*z4 monomial system, first in the sums of
    # products' own order, takes minutes and gigabytes to solve; the product
    # of sums realizes them earlier in its order
    calls = _counted_monomial_calls(monkeypatch)
    tup = OrderedTuple((MbfFunction(4, f), MbfFunction(4, g)))
    assert canonical_form(tup)[0] == tup
    product = check_class(tup, PISIGMA)
    product_calls = [call for call in calls if call[0].n == 4]
    calls.clear()
    verdict = check_class(tup, SIGMAPISIGMA)
    calls = [call for call in calls if call[0].n == 4]
    assert verdict.is_realizable and verify_witness(tup, verdict.witness)
    assert verdict.witness == product.witness
    assert verdict.witness.structure in enumerate_structures(4, SIGMAPISIGMA)
    # no four-input monomial test beyond the product of sums' own
    assert calls == product_calls
    assert all(text != "(z1+z2)*z3*z4" for _, text in calls)
