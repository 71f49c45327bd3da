"""Exact decision of strict homogeneous integer systems ``A x > 0``.

``solve`` takes rows as tuples of ``int``, each row ``a`` meaning
``sum_j a[j] * x_j > 0``; this is the only kind of system mbfreal builds,
and any other row is rejected.  By Gordan's alternative either some x
satisfies every row, or a non-negative combination of the rows, not all
zero, is the zero row, which reads 0 > 0.  Fourier-Motzkin elimination
decides which: two rows are combined with coprime positive weights, and each
derived row is divided by the gcd of its coefficients and multipliers
(fraction-free elimination, Bareiss 1968).  Every working row is thus the
exact integer combination of input rows recorded in its provenance, so an
infeasible system yields a multiplier vector and a feasible one a sample
point by back-substitution, both as ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul


@dataclass(frozen=True)
class Feasible:
    point: "tuple[Fraction, ...]"


@dataclass(frozen=True)
class Infeasible:
    multipliers: "tuple[Fraction, ...]"


class _Work:
    """An integer row ``coeffs . x > 0``, its provenance (the integer multiple
    of each input row it sums) and its direction ``key`` = coeffs / ``unit``
    (0 for a zero row)."""

    __slots__ = ("coeffs", "mult", "unit", "key")

    def __init__(self, coeffs, mult):
        self.coeffs, self.mult = coeffs, mult
        self.unit = g = gcd(*coeffs)
        self.key = tuple([c // g for c in coeffs]) if g > 1 else tuple(coeffs)


def _dedupe(rows: "list[_Work]") -> "list[_Work]":
    """The first row of each direction; the others are positive multiples."""
    first: "dict[tuple, _Work]" = {}
    for w in rows:
        first.setdefault(w.key, w)
    return list(first.values())


def _combine(p: _Work, q: _Work, var: int) -> _Work:
    """The combination of ``p`` (positive at ``var``) and ``q`` (negative
    there) that cancels ``var``, divided by the gcd of all its integers."""
    g = gcd(p.coeffs[var], q.coeffs[var])
    a, b = -q.coeffs[var] // g, p.coeffs[var] // g
    coeffs = [a * cp + b * cq for cp, cq in zip(p.coeffs, q.coeffs)]
    mult = {k: a * v for k, v in p.mult.items()}
    for k, v in q.mult.items():
        mult[k] = mult.get(k, 0) + b * v
    g = gcd(*coeffs, *mult.values())
    if g > 1:
        coeffs = [c // g for c in coeffs]
        mult = {k: v // g for k, v in mult.items()}
    return _Work(coeffs, mult)


def solve(num_vars: int, rows: "list[tuple[int, ...]]") -> "Feasible | Infeasible":
    """Decide ``A x > 0`` exactly; raises ``ValueError`` on a row of another
    width or an entry whose type is not ``int`` (``bool`` included)."""
    work = []
    for idx, r in enumerate(rows):
        if len(r) != num_vars:
            raise ValueError("row width mismatch")
        if any(type(c) is not int for c in r):
            raise ValueError(f"row {idx} is not a row of int: {r}")
        work.append(_Work(r, {idx: 1}))

    levels: "list[tuple[int, list[_Work]]]" = []
    remaining = list(range(num_vars))
    while True:
        for w in work:
            if not w.unit:  # a zero row: 0 > 0
                return Infeasible(tuple(Fraction(w.mult.get(i, 0)) for i in range(len(rows))))
        if not remaining:
            break
        work = _dedupe(work)

        # eliminate the variable with the fewest pairings first
        def cost(j: int) -> int:
            pos = sum(1 for w in work if w.coeffs[j] > 0)
            neg = sum(1 for w in work if w.coeffs[j] < 0)
            return pos * neg - pos - neg

        var = min(remaining, key=cost)
        remaining.remove(var)
        levels.append((var, work))
        pos = [w for w in work if w.coeffs[var] > 0]
        neg = [w for w in work if w.coeffs[var] < 0]
        work = [w for w in work if w.coeffs[var] == 0]
        work.extend(_combine(p, q, var) for p in pos for q in neg)

    # back-substitution with the point as integers over one denominator; each
    # lower row combined with each upper row is, up to a positive multiple, a
    # row of the next level, which the point so far satisfies strictly, so
    # every lower bound lies below every upper bound
    nums, den = [0] * num_vars, 1
    for var, level_rows in reversed(levels):
        lower = upper = None  # (rest, c): the bound is rest / (c * den)
        for w in level_rows:
            c = w.coeffs[var]
            if c:
                rest = -sum(map(mul, w.coeffs, nums))
                if c > 0 and (lower is None or rest * lower[1] > lower[0] * c):
                    lower = (rest, c)
                elif c < 0 and (upper is None or rest * upper[1] < upper[0] * c):
                    upper = (rest, c)
        lo, hi = (Fraction(b[0], b[1] * den) if b else None for b in (lower, upper))
        if lower and upper:
            value = (lo + hi) / 2
        else:
            value = lo + 1 if lower else hi - 1 if upper else Fraction(1)
        step = lcm(den, value.denominator) // den
        if step > 1:
            nums, den = [x * step for x in nums], den * step
        nums[var] = value.numerator * (den // value.denominator)
    return Feasible(tuple(Fraction(x, den) for x in nums))

