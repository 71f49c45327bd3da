import functools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from mbfreal import linear, realizability
from mbfreal.boolean_core import OrderedTuple, enumerate_ordered_pairs
from mbfreal.interaction import PISIGMA, SIGMA, sum_structure
from mbfreal.linear import Feasible, Infeasible, solve


def refutes(rows, multipliers) -> bool:
    """Gordan's check, exact: one non-negative rational multiplier per row,
    not all zero, whose combination of the rows is the zero row (0 > 0).
    The reference that every infeasible result of ``solve`` is held to."""
    if len(multipliers) != len(rows) or any(m < 0 for m in multipliers) or not any(multipliers):
        return False
    scale = lcm(*(m.denominator for m in multipliers))
    combined = [0] * len(rows[0])
    for m, r in zip(multipliers, rows):
        w = m.numerator * (scale // m.denominator)
        combined = [c + w * a for c, a in zip(combined, r)]
    return not any(combined)


def check(num_vars, rows):
    """Solve and verify the outcome against the rows themselves."""
    out = solve(num_vars, rows)
    if isinstance(out, Feasible):
        for r in rows:
            assert sum(c * x for c, x in zip(r, out.point)) > 0
    else:
        assert all(m >= 0 for m in out.multipliers)
        assert refutes(rows, out.multipliers)
    return out


def gt(*coeffs):
    """The row ``coeffs . x > 0``, a tuple of ``int``s as ``solve`` takes it."""
    return tuple(coeffs)


def test_homogeneous_strict_cycle():
    # a > b, b > c, c > a is impossible
    out = check(3, [gt(1, -1, 0), gt(0, 1, -1), gt(-1, 0, 1)])
    assert isinstance(out, Infeasible)
    assert out.multipliers == (1, 1, 1)


def test_homogeneous_strict_feasible():
    out = check(3, [gt(1, -1, 0), gt(0, 1, -1), gt(0, 0, 1)])
    assert isinstance(out, Feasible)
    a, b, c = out.point
    assert a > b > c > 0


def test_zero_row_is_infeasible():
    out = check(2, [gt(1, 0), gt(0, 0)])
    assert out == Infeasible((0, 1))


@pytest.mark.parametrize("bad", [
    (1, -1, 0),
    (1,),
    (),
    (Fraction(1, 2), -1),
    (Fraction(1), -1),
    (1.0, -1),
    (True, -1),
    (1, False),
    ("1", -1),
])
def test_solve_takes_only_strict_homogeneous_int_rows(bad):
    with pytest.raises(ValueError):
        solve(2, [gt(1, 0), bad])


def test_refutes_needs_zero_coefficients():
    # a non-zero combination: 1*(1, -1) + 1*(0, 2) = (1, 1)
    rows = [gt(1, -1), gt(0, 2)]
    assert not refutes(rows, (1, 1))
    assert refutes(rows + [gt(-1, -1)], (1, 1, 1))


def test_refutes_rejects_negative_or_miscounted_multipliers():
    cycle = [gt(1, -1, 0), gt(0, 1, -1), gt(-1, 0, 1)]
    assert refutes(cycle, (1, 1, 1))
    assert refutes(cycle, (Fraction(1, 2),) * 3)
    # too few or too many multipliers
    assert not refutes(cycle, (1, 1))
    assert not refutes(cycle, (1, 1, 1, 1))
    # x > 0 minus x > 0 is the zero row, but a negative weight turns > into <
    assert not refutes([gt(1), gt(1)], (1, -1))
    # all zeros combine any rows into the zero row but prove nothing
    assert not refutes(cycle, (0, 0, 0))
    assert not refutes([], ())
    # a zero row alone is 0 > 0
    assert refutes([gt(0, 0)], (1,))


def test_refutes_with_fractional_multipliers():
    # 2a > b, 3b > c, c > 6a: weights 1/2, 1/6, 1/6 cancel every column
    rows = [gt(2, -1, 0), gt(0, 3, -1), gt(-6, 0, 1)]
    assert refutes(rows, (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6)))
    # one multiplier off by 1/2: the combination is not the zero row
    assert not refutes(rows, (Fraction(1), Fraction(1, 6), Fraction(1, 6)))
    # a negative fraction is refused, even where the sum would cancel
    assert refutes([gt(1, -1), gt(-1, 1)], (Fraction(1, 3), Fraction(1, 3)))
    assert not refutes([gt(1, -1), gt(1, -1)], (Fraction(1, 3), Fraction(-1, 3)))


def test_refutes_checks_a_sum_certificate():
    # the first n=3 pair the sum class cannot realize, against the rows of
    # its full-sum system
    tup, cert = next(
        (tup, verdict.certificate)
        for tup in map(OrderedTuple, enumerate_ordered_pairs(3))
        for verdict in [realizability.check_sigma(tup)]
        if verdict.is_not_realizable
    )
    width, names, rows = realizability._monomial_system(tup, sum_structure(range(1, 4), 3))
    out = solve(width, rows)
    assert refutes(rows, out.multipliers)
    # the certificate names the separation rows with non-zero multipliers,
    # each with the monomial 1
    assert cert.rows == tuple((y, (), *name) for y, name in zip(out.multipliers, names) if y)
    doubled = list(out.multipliers)
    k = next(i for i, m in enumerate(doubled) if m)
    doubled[k] *= 2
    assert not refutes(rows, doubled)


@settings(max_examples=200)
@given(st.data())
def test_random_systems_verified(data):
    num_vars = data.draw(st.integers(1, 4))
    num_rows = data.draw(st.integers(1, 8))
    rows = [gt(*(data.draw(st.integers(-3, 3)) for _ in range(num_vars)))
            for _ in range(num_rows)]
    check(num_vars, rows)


# ------------------------------------------------- reference: Fraction rows

def _reference_solve(num_vars, rows):
    """Fourier-Motzkin on general rows as Fractions, each scaled to a leading
    coefficient of magnitude 1: the elimination that the integer kernel
    replaced."""

    def scaled(coeffs, const, strict, mult):
        lead = next((c for c in coeffs if c), None)
        scale = 1 / abs(lead) if lead is not None else (1 / abs(const) if const else 1)
        return ([c * scale for c in coeffs], const * scale, strict,
                {k: v * scale for k, v in mult.items()})

    def zero(w):
        return not any(w[0])

    def false(w):
        return zero(w) and (w[1] > 0 or (w[1] >= 0 and w[2]))

    def multipliers(w):
        return Infeasible(tuple(w[3].get(i, Fraction(0)) for i in range(len(rows))))

    work = [scaled(list(map(Fraction, r)), Fraction(0), True, {i: Fraction(1)})
            for i, r in enumerate(rows)]
    levels = []
    remaining = list(range(num_vars))
    while remaining:
        for w in work:
            if false(w):
                return multipliers(w)
        best = {}
        for w in work:
            if zero(w):
                continue  # a zero row that is not false is true
            old = best.get(tuple(w[0]))
            if old is None or (w[1], w[2]) > (old[1], old[2]):
                best[tuple(w[0])] = w
        work = list(best.values())

        def cost(j):
            pos = sum(1 for w in work if w[0][j] > 0)
            neg = sum(1 for w in work if w[0][j] < 0)
            return pos * neg - pos - neg

        var = min(remaining, key=cost)
        remaining.remove(var)
        levels.append((var, work))
        new = [w for w in work if w[0][var] == 0]
        for p in (w for w in work if w[0][var] > 0):
            for q in (w for w in work if w[0][var] < 0):
                a, b = -q[0][var], p[0][var]
                mult = {k: a * v for k, v in p[3].items()}
                for k, v in q[3].items():
                    mult[k] = mult.get(k, Fraction(0)) + b * v
                new.append(scaled([a * x + b * y for x, y in zip(p[0], q[0])],
                                  a * p[1] + b * q[1], p[2] or q[2], mult))
        work = new
    for w in work:
        if false(w):
            return multipliers(w)

    point = [Fraction(0)] * num_vars
    for var, level_rows in reversed(levels):
        lower = upper = None
        for coeffs, const, _, _ in level_rows:
            c = coeffs[var]
            if c == 0:
                continue
            bound = (const - sum(coeffs[j] * point[j] for j in range(num_vars)
                                 if j != var and coeffs[j])) / c
            if c > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is not None and upper is not None:
            point[var] = lower if lower == upper else (lower + upper) / 2
        elif lower is not None:
            point[var] = lower + 1
        elif upper is not None:
            point[var] = upper - 1
        else:
            point[var] = Fraction(1)
    return Feasible(tuple(point))


def check_against_reference(num_vars, rows):
    """Same point as the reference, or multipliers that are a positive
    multiple of its own."""
    out = check(num_vars, rows)
    ref = _reference_solve(num_vars, rows)
    assert type(out) is type(ref)
    if isinstance(ref, Feasible):
        assert out.point == ref.point
        return out
    ratio = next(m / r for m, r in zip(out.multipliers, ref.multipliers) if r)
    assert ratio > 0
    assert out.multipliers == tuple(ratio * r for r in ref.multipliers)
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rational_systems_match_reference(data):
    num_vars = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(
        st.builds(gt, *[st.integers(-6, 6)] * num_vars), min_size=1, max_size=9,
    ))
    for _ in range(data.draw(st.integers(0, 2))):
        rows.insert(data.draw(st.integers(0, len(rows))), gt(*[0] * num_vars))
    check_against_reference(num_vars, rows)


@functools.cache
def _census_systems():
    """Every system that deciding each n=3 pair in sigma and pisigma solves.

    The pairs go through the decision of each tuple itself: ``check_class``
    decides a realizable tuple on its orbit's canonical member, so it would
    show only the canonical members' systems."""
    systems = []
    solve_once = linear.solve

    def recording(num_vars, rows):
        systems.append((num_vars, list(rows)))
        return solve_once(num_vars, rows)

    linear.solve = recording
    try:
        for pair in enumerate_ordered_pairs(3):
            for class_tag in (SIGMA, PISIGMA):
                realizability._decide(OrderedTuple(pair), class_tag, {})
    finally:
        linear.solve = solve_once
    return systems


def test_census_systems_match_reference():
    systems = _census_systems()
    assert len(systems) >= 168
    outcomes = [check_against_reference(num_vars, rows) for num_vars, rows in systems]
    assert any(isinstance(out, Infeasible) for out in outcomes)
    assert any(isinstance(out, Feasible) for out in outcomes)
