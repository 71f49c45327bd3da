"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (visible with ``pytest -v -s tests/test_acceptance.py``).

All numeric comparisons are exact rational arithmetic.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from mbfreal.boolean_core import (
    CEILING,
    FLOOR,
    MbfFunction,
    OrderedTuple,
    enumerate_mbf_positive,
    enumerate_ordered_pairs,
    eta,
    eta_inverse,
    implies,
    monotone_closure,
    restrict_and_collapse,
)
from mbfreal.interaction import (
    PISIGMA,
    SIGMA,
    SIGMAPISIGMA,
    PhiAssignment,
    enumerate_structures,
    parse_structure,
    scaled_corner_table,
)
from mbfreal.ksystem import build_stg, phi_k
from mbfreal.paramgraph import build_factor, build_parameter_graph
from mbfreal.realizability import (
    Witness,
    check_class,
    check_sigma,
    collapse_witness,
    derive_thresholds,
    direction_certificate,
    lift_eta,
    lower_eta,
    monomial_certificate,
    necessary_condition,
    realize_k,
    replay_certificate,
    verify_k_witness,
    verify_witness,
)

from goldens import (
    PAIR_NEEDS_MIXED,
    PAIR_NEEDS_MIXED_WITNESS,
    PAIR_NEEDS_PRODUCT,
    PAIR_NEEDS_PRODUCT_WITNESS,
    PAIR_UNREACHABLE_4,
    PRINTED_DIRECTION_ERRATA,
    REFERENCE_WITNESSES,
    nonseparable_pairs,
)
from test_ksystem import example_k, example_network

F = Fraction


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        raise AssertionError(
            f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"
        )
    print(f"criterion {number:2d} PASS {elapsed:7.2f}s  {description}")


def make_witness(text, highs, thresholds, n=3):
    return Witness(
        parse_structure(text, n),
        PhiAssignment(tuple(F(1) for _ in range(n)), tuple(F(h) for h in highs)),
        tuple(F(t) for t in thresholds),
    )


def brute_force_counts(n):
    count = 0
    masks = []
    for truth in range(1 << (1 << n)):
        ok = True
        for v in range(1 << n):
            if not ok:
                break
            for i in range(n):
                if not v >> i & 1 and truth >> v & 1 and not truth >> (v | 1 << i) & 1:
                    ok = False
                    break
        if ok:
            count += 1
            masks.append(truth)
    return count, masks


# ---------------------------------------------------------------------------

def test_criterion_01_enumeration():
    with criterion(1, "function counts 3, 6, 20, 168, 7581 for 1..5 inputs", budget=10):
        expected = {1: 3, 2: 6, 3: 20, 4: 168}
        for n, want in expected.items():
            count, masks = brute_force_counts(n)
            assert count == want
            assert [f.truth for f in enumerate_mbf_positive(n)] == sorted(masks)
        # 5 inputs: the independent check counts ordered pairs over the
        # brute-forced 4-input set, which the pairing maps one-to-one
        _, masks4 = brute_force_counts(4)
        want5 = sum(1 for a in masks4 for b in masks4 if a & ~b == 0)
        assert want5 == 7581
        assert len(enumerate_mbf_positive(5)) == 7581


def test_criterion_02_sum_census():
    with criterion(2, "sum census on 3 inputs: 150 realizable, 18 not", budget=60):
        realizable = 0
        rejected = []
        for f, g in enumerate_ordered_pairs(3):
            verdict = check_sigma(OrderedTuple((f, g)))
            if verdict.is_realizable:
                realizable += 1
                assert verify_witness(OrderedTuple((f, g)), verdict.witness)
            else:
                rejected.append((f, g))
        assert realizable == 150
        assert len(rejected) == 18
        rows = nonseparable_pairs()
        assert {(f.truth, g.truth) for f, g in rejected} == {
            (f.truth, g.truth) for f, g, _ in rows
        }
        # the facet-comparability test fires in the frozen directions; for
        # the three rows whose printed direction contradicts their own data
        # (see goldens), the corrected direction fires and the printed one
        # does not
        for idx, (f, g, directions) in enumerate(rows, start=1):
            for ell in directions:
                assert direction_certificate(f, g, ell) is not None
            for ell in PRINTED_DIRECTION_ERRATA.get(idx, ()):
                assert direction_certificate(f, g, ell) is None


def test_criterion_03_reference_witness_replay():
    with criterion(3, "all 18 reference witnesses replay exactly", budget=1):
        for (f, g, _), (text, highs, theta_g, theta_f) in zip(
            nonseparable_pairs(), REFERENCE_WITNESSES
        ):
            w = make_witness(text, highs, (theta_f, theta_g))
            assert verify_witness(OrderedTuple((f, g)), w)


def test_criterion_04_product_only_pair():
    with criterion(4, "product-of-sums pair: sums fail, products succeed", budget=5):
        tup = OrderedTuple(PAIR_NEEDS_PRODUCT)
        text, highs, thresholds = PAIR_NEEDS_PRODUCT_WITNESS
        assert verify_witness(tup, make_witness(text, highs, thresholds))
        assert verify_witness(
            tup, make_witness(text, (4, F(41, 10), 2), thresholds)
        )
        assert check_sigma(tup).is_not_realizable
        verdict = check_class(tup, PISIGMA)
        assert verdict.is_realizable
        assert verify_witness(tup, verdict.witness)
        # the witness came from the default grid search
        assert all(lo == 1 for lo in verdict.witness.phi.low)


def test_criterion_05_mixed_only_pair():
    with criterion(
        5, "mixed pair: products all certified impossible, mixed succeeds", budget=30
    ):
        tup = OrderedTuple(PAIR_NEEDS_MIXED)
        verdict = check_class(tup, PISIGMA)
        assert verdict.is_not_realizable
        entries = verdict.certificate.as_dict()
        assert len(entries) == 5
        # four structures expose a direction whose collapses are
        # incomparable; the fifth falls to the monomial Farkas test
        f, g = PAIR_NEEDS_MIXED
        s = parse_structure("(z1+z2)*z3")
        assert entries.pop(s.text()) == monomial_certificate(tup, s)
        assert len(entries) == 4
        for text, c in entries.items():
            assert c == necessary_condition(f, g, parse_structure(text)), text
        assert replay_certificate(tup, None, verdict.certificate)

        verdict2 = check_class(tup, SIGMAPISIGMA)
        assert verdict2.is_realizable
        assert verify_witness(tup, verdict2.witness)
        text, highs, thresholds = PAIR_NEEDS_MIXED_WITNESS
        assert verify_witness(tup, make_witness(text, highs, thresholds))


def test_criterion_06_four_input_pair():
    with criterion(
        6, "4-input pair: no mixed expression at all, free class succeeds", budget=120
    ):
        tup = OrderedTuple(PAIR_UNREACHABLE_4)
        verdict = check_class(tup, SIGMAPISIGMA)
        assert verdict.is_not_realizable
        entries = verdict.certificate.as_dict()
        assert len(entries) == len(enumerate_structures(4, SIGMAPISIGMA)) == 40
        # some structures fall to a facet's refutation lifted onto them:
        # rows whose corners all lie on one facet z_ell = 0 or z_ell = 1
        on_a_facet = [
            text for text, c in entries.items()
            if any(
                len({v >> i & 1 for *_, a, b in c.rows for v in (a, b)}) == 1
                for i in range(4)
            )
        ]
        assert on_a_facet
        assert all(replay_certificate(tup, text, entries[text]) for text in on_a_facet)
        assert replay_certificate(tup, None, verdict.certificate)
        kw = realize_k(tup)
        assert verify_k_witness(tup, kw)


def test_criterion_07_stg_golden():
    with criterion(7, "running example: image of (2,2) and the 7-edge graph"):
        phi = phi_k(example_network(), example_k())
        assert phi[(2, 2)] == (1, 1)
        stg = build_stg(phi)
        assert set(stg.edges) == {
            ((1, 1), (1, 1)),
            ((2, 1), (1, 1)),
            ((3, 1), (3, 1)),
            ((1, 2), (1, 1)),
            ((2, 2), (1, 2)),
            ((2, 2), (2, 1)),
            ((3, 2), (3, 1)),
        }


def test_criterion_08_parameter_graph():
    with criterion(8, "parameter graph: factors 20 and 3, product 60"):
        assert len(build_factor(1, 1).vertices) == 3
        assert len(build_factor(2, 2).vertices) == 20
        pg = build_parameter_graph(example_network())
        assert [len(f.vertices) for f in pg.factors] == [20, 3]
        assert len(pg.vertices) == 60


# ---------------------------------------------------------------------------
# criterion 9: structural property suites

def random_pair(rng, n):
    size = (1 << (1 << n)) - 1
    f_truth = monotone_closure(rng.randint(0, size), n)
    g_truth = monotone_closure(f_truth | rng.randint(0, size), n)
    return MbfFunction(n, f_truth), MbfFunction(n, g_truth)


def grid_search(tup, s, highs):
    """The first witness on the grid of these highs over the structure's
    support, in grid order: every low 1, the largest high off the support,
    thresholds derived from the value gaps."""
    support = sorted(s.support)
    for point in itertools.product(highs, repeat=len(support)):
        high = [max(highs)] * s.n
        for i, h in zip(support, point):
            high[i - 1] = h
        phi = PhiAssignment((F(1),) * s.n, tuple(high))
        thresholds = derive_thresholds(tup, *scaled_corner_table(s, phi))
        if thresholds is not None and verify_witness(tup, Witness(s, phi, thresholds)):
            return Witness(s, phi, thresholds)
    return None


def witness_pool(rng, minimum=1000):
    """Verified pair witnesses: every sum-realizable pair of 1..3 inputs, the
    18 reference mixed witnesses, and random grid searches until the pool is
    large enough."""
    pool = []
    for n in (1, 2, 3):
        for f, g in enumerate_ordered_pairs(n):
            v = check_sigma(OrderedTuple((f, g)))
            if v.is_realizable:
                pool.append(((f, g), v.witness))
    for (f, g, _), (text, highs, theta_g, theta_f) in zip(
        nonseparable_pairs(), REFERENCE_WITNESSES
    ):
        pool.append(((f, g), make_witness(text, highs, (theta_f, theta_g))))
    high_choices = [
        F(3, 2), F(2), F(5, 2), F(3), F(31, 10), F(7, 2), F(4), F(9, 2), F(5), F(6),
    ]
    structures = {n: enumerate_structures(n, SIGMAPISIGMA) for n in (2, 3)}
    attempts = 0
    while len(pool) < minimum and attempts < 20000:
        attempts += 1
        n = rng.choice((2, 3))
        f, g = random_pair(rng, n)
        s = rng.choice(structures[n])
        w = grid_search(OrderedTuple((f, g)), s, rng.sample(high_choices, 3))
        if w is not None:
            pool.append(((f, g), w))
    assert len(pool) >= minimum
    return pool


def lift_classes(w):
    """The classes whose enumeration holds the witness's structure."""
    s = w.structure
    return [tag for tag in (SIGMAPISIGMA, SIGMA, PISIGMA) if s in enumerate_structures(s.n, tag)]


def test_criterion_09_structural_properties():
    with criterion(9, "structural property suites (1000+ cases each)"):
        rng = random.Random(90125)

        # summation realizer always verifies
        for _ in range(1000):
            n = rng.randint(1, 4)
            k = rng.randint(1, 4)
            size = (1 << (1 << n)) - 1
            truth = monotone_closure(rng.randint(0, size), n)
            chain = [MbfFunction(n, truth)]
            for _ in range(k - 1):
                truth = monotone_closure(truth | rng.randint(0, size), n)
                chain.append(MbfFunction(n, truth))
            tup = OrderedTuple(chain)
            assert verify_k_witness(tup, realize_k(tup))

        pool = witness_pool(rng, minimum=1000)

        # lifting a pair witness always verifies the paired function
        lifted = []
        lift_cases = 0
        for (f, g), w in pool:
            for tag in lift_classes(w):
                out = lift_eta((f, g), w, tag)
                assert verify_witness(OrderedTuple((eta(f, g),)), out)
                lifted.append((f, g, out))
                lift_cases += 1
        assert lift_cases >= 1000

        # lowering always verifies the floor/ceiling pair; every lifted
        # witness qualifies in the added direction, and sum witnesses of
        # single functions qualify in every direction
        lower_cases = 0
        for f, g, out in lifted:
            pair, back = lower_eta(eta(f, g), out, f.n + 1)
            assert pair == (f, g)
            assert verify_witness(OrderedTuple(pair), back)
            lower_cases += 1
        for n in (2, 3):
            for h in enumerate_mbf_positive(n):
                v = check_sigma(OrderedTuple((h,)))
                assert v.is_realizable
                for direction in range(1, n + 1):
                    pair, back = lower_eta(h, v.witness, direction)
                    assert verify_witness(OrderedTuple(pair), back)
                    lower_cases += 1
        assert lower_cases >= 1000

        # facet-collapsing a witness always verifies the collapsed tuple
        collapse_cases = 0
        eligible = [(pw, w) for pw, w in pool if pw[0].n >= 2]
        while collapse_cases < 1000:
            (f, g), w = eligible[rng.randrange(len(eligible))]
            ell = rng.randint(1, f.n)
            side = rng.choice((FLOOR, CEILING))
            collapsed, out = collapse_witness(OrderedTuple((f, g)), w, ell, side)
            assert verify_witness(collapsed, out)
            collapse_cases += 1

        # the floor/ceiling pairing and its inverse are exact roundtrips
        for n in (1, 2, 3):
            for f, g in enumerate_ordered_pairs(n):
                assert eta_inverse(eta(f, g)) == (f, g)
        for n in (2, 3, 4):
            for h in enumerate_mbf_positive(n):
                f, g = eta_inverse(h)
                assert eta(f, g) == h

        # facet containments for every ordered pair of up to 3 inputs
        for n in (2, 3):
            for f, g in enumerate_ordered_pairs(n):
                for ell in range(1, n + 1):
                    f_floor = restrict_and_collapse(f, ell, FLOOR)
                    f_ceil = restrict_and_collapse(f, ell, CEILING)
                    g_floor = restrict_and_collapse(g, ell, FLOOR)
                    g_ceil = restrict_and_collapse(g, ell, CEILING)
                    assert implies(f_floor, f_ceil)
                    assert implies(g_floor, g_ceil)
                    assert implies(f_floor, g_floor)
                    assert implies(f_ceil, g_ceil)
                    assert implies(f_floor, g_ceil)

        # sum-separability of a pair matches that of its paired function
        for n in (2, 3):
            for f, g in enumerate_ordered_pairs(n):
                pair_verdict = check_sigma(OrderedTuple((f, g)))
                single_verdict = check_sigma(OrderedTuple((eta(f, g),)))
                assert pair_verdict.is_realizable == single_verdict.is_realizable


def test_transforms_take_their_thresholds_from_the_gaps():
    # lifting, lowering and collapsing every witness of the pool gives the
    # thresholds derived from the output's own corner table
    def derived(tup, w):
        return derive_thresholds(tup, *scaled_corner_table(w.structure, w.phi))

    cases = 0
    for (f, g), w in witness_pool(random.Random(31), minimum=1000):
        tup = OrderedTuple((f, g))
        for tag in lift_classes(w):
            out = lift_eta((f, g), w, tag)
            assert out.thresholds == derived(OrderedTuple((eta(f, g),)), out)
            pair, back = lower_eta(eta(f, g), out, f.n + 1)
            assert back.thresholds == derived(OrderedTuple(pair), back)
            cases += 2
        if f.n < 2:
            continue
        for ell in range(1, f.n + 1):
            for side in (FLOOR, CEILING):
                collapsed, out = collapse_witness(tup, w, ell, side)
                assert out.thresholds == derived(collapsed, out)
                cases += 1
    assert cases >= 3000


def test_criterion_10_census_audit():
    with criterion(10, "full census audit across all classes"):
        pairs = enumerate_ordered_pairs(3)
        results = {}
        counts = {}
        for tag in (SIGMA, PISIGMA, SIGMAPISIGMA):
            statuses = []
            tally = {"realizable": 0, "not_realizable": 0, "unknown": 0}
            for f, g in pairs:
                tup = OrderedTuple((f, g))
                verdict = check_class(tup, tag)
                tally[verdict.status] += 1
                statuses.append(verdict.status)
                # soundness: witnesses verify, certificates replay
                if verdict.is_realizable:
                    assert verify_witness(tup, verdict.witness)
                elif verdict.is_not_realizable:
                    assert replay_certificate(tup, None, verdict.certificate)
            results[tag] = statuses
            counts[tag] = tally
        assert counts[SIGMA] == {"realizable": 150, "not_realizable": 18, "unknown": 0}
        # the engine decides the product class completely at 3 inputs: the
        # impossible pairs are the mixed example and its two permutations
        assert counts[PISIGMA] == {"realizable": 165, "not_realizable": 3, "unknown": 0}
        assert counts[SIGMAPISIGMA] == {
            "realizable": 168,
            "not_realizable": 0,
            "unknown": 0,
        }
        for f, g in pairs:
            tup = OrderedTuple((f, g))
            assert verify_k_witness(tup, realize_k(tup))

        # monotonicity audit: never realizable below and impossible above
        chain = (SIGMA, PISIGMA, SIGMAPISIGMA)
        for i in range(len(pairs)):
            for lo, hi in zip(chain, chain[1:]):
                assert not (
                    results[lo][i] == "realizable"
                    and results[hi][i] == "not_realizable"
                )

        # every ordered pair of one or two inputs is sum-realizable
        for n, want in ((1, 6), (2, 20)):
            good = sum(
                check_sigma(OrderedTuple(p)).is_realizable
                for p in enumerate_ordered_pairs(n)
            )
            assert good == want


# the n=3 pisigma pairs decided not_realizable whose n=4 images η(f, g) the
# engine leaves unknown; a pair may leave this list once its image is
# decided, but no other pair may join it
ETA_PISIGMA_OPEN = {("mbf:3:88", "mbf:3:f8"), ("mbf:3:a0", "mbf:3:ec"), ("mbf:3:c0", "mbf:3:ea")}


def test_criterion_11_eta_cross_check():
    with criterion(11, "pair verdicts never contradict the verdicts of their η images"):
        mismatches = {PISIGMA: set(), SIGMAPISIGMA: set()}
        for tag, found in mismatches.items():
            for f, g in enumerate_ordered_pairs(3):
                pair = check_class(OrderedTuple((f, g)), tag).status
                single = check_class(OrderedTuple((eta(f, g),)), tag).status
                if pair != single:
                    assert "unknown" in (pair, single), (f, g, tag, pair, single)
                    found.add((f.to_hex(), g.to_hex()))
        assert mismatches[PISIGMA] <= ETA_PISIGMA_OPEN
        assert mismatches[SIGMAPISIGMA] == set()
