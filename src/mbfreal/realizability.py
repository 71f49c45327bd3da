"""Joint realizability of implication-ordered tuples of monotone functions.

An ordered tuple f_1, ..., f_k is realizable in a class when one expression
value per corner separates every function at its own threshold: f_j is 1
exactly where the value exceeds threshold_j.  The unrestricted class always
works (sum the functions); the algebraic classes are decided or searched:

* sums: exact decision by Fourier-Motzkin elimination over the rationals
  on the monomial system of the full sum z1+...+zn, which for a sum is the
  exact separation LP, with a Farkas certificate on the infeasible side;
* products of sums and sums of products of sums: three-valued verdicts from
  (i) the facet-comparability test for directions appearing as a bare
  factor or standalone summand, (ii) at four inputs, a facet's refutation
  lifted onto the structure, (iii) degree-0 Farkas certificates, and
  (iv) a rational grid search for witnesses.  Unknown is an honest output;
  no completeness is claimed.  Each product class starts from the next
  smaller class's verdict and tests only the structures that class lacks,
  so sum < product of sums < sum of products of sums holds by construction.

Witnesses are checked in exact integers: corner values come from
``scaled_corner_table`` as integers over one scale, and a value is compared
with a threshold p/q as ``value * q`` against ``p * scale``.  Thresholds stay
``Fraction``s, derived from the integer gaps.

Refutations share one kernel.  Each high is written u_i = l_i + d_i with
d_i > 0, so in (l, d) coordinates every corner value V(v) is a polynomial
with non-negative coefficients and every (l, d) monomial m is positive at a
realizing point.  If f_j(a) = 0 and f_j(b) = 1, m * (V(b) - V(a)) is
positive there too, so positive multiples of such separation rows whose sum
has no positive coefficient refute the structure.  A certificate names those
rows as (y, m, j, a, b); replay and relabeling read only the names.  The
Farkas tests use m = 1, the facet-comparability test m = 1, l_ell or d_ell,
and a facet's refutation lifted onto the structure (``_lifted``) the
monomials its rows' m become under the facet's substitution.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linear
from .boolean_core import (
    CEILING,
    FLOOR,
    MbfFunction,
    OrderedTuple,
    canonical_form,
    collapse_tuple,
    corner_images,
    corner_insert_bit,
    eta,
    implies,
    inverse_permutation,
    maximal_false_corners,
    minimal_true_corners,
    restrict_and_collapse,
)
from .interaction import (
    FACTOR,
    KCLASS,
    PISIGMA,
    SHARED,
    SIGMA,
    SIGMAPISIGMA,
    InteractionStructure,
    PhiAssignment,
    StructureError,
    collapse_role,
    collapse_shape,
    collapse_structure,
    corner_monomials,
    corner_table,  # unused here; the benchmark's tracer asserts this binding
    enumerate_structures,
    has_factor,
    has_simple_term,
    integer_form,
    parse_structure,
    relabel_assignment,
    relabel_structure,
    scaled_corner_lines,
    scaled_corner_table,
    structure,
    sum_structure,
)

REALIZABLE = "realizable"
NOT_REALIZABLE = "not_realizable"
UNKNOWN = "unknown"


class WitnessError(ValueError):
    """A witness whose expression value ties a threshold exactly."""


# ---------------------------------------------------------------- data types

@dataclass(frozen=True)
class Witness:
    """Structure, low/high assignment, and strictly decreasing thresholds.

    thresholds[j] separates tuple member j; the smallest function gets the
    largest threshold.  Construction does not validate (corrupt witnesses
    must be representable so verification can reject them).
    """

    structure: InteractionStructure
    phi: PhiAssignment
    thresholds: "tuple[Fraction, ...]"


@dataclass(frozen=True)
class KWitness:
    """A realizing value per corner plus thresholds, for the free class."""

    values: "tuple[Fraction, ...]"
    thresholds: "tuple[Fraction, ...]"


@dataclass(frozen=True)
class FarkasCertificate:
    """A refutation (see the module docstring): named separation rows
    ``(y, m, j, a, b)``, each y > 0 times the (l, d) monomial m times
    V(b) - V(a) for a false corner a and a true corner b of tuple member j,
    whose sum has no positive coefficient.  m is sorted ``(i, kind)``
    symbols, kind 0 for l_i and 1 for d_i (a power repeats its symbol), and
    ``()`` for 1.  ``replay_certificate`` checks the sum against the claim's
    structure."""

    rows: "tuple[tuple[Fraction, tuple, int, int, int], ...]"


@dataclass(frozen=True)
class ExhaustionCertificate:
    """One impossibility certificate per structure of the class."""

    entries: "tuple[tuple[str, object], ...]"

    def as_dict(self) -> dict:
        return dict(self.entries)


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: "Witness | KWitness | None" = None
    certificate: object = None
    diagnostics: "tuple[str, ...]" = ()

    @classmethod
    def realizable(cls, witness) -> "Verdict":
        return cls(REALIZABLE, witness=witness)

    @classmethod
    def not_realizable(cls, certificate) -> "Verdict":
        return cls(NOT_REALIZABLE, certificate=certificate)

    @classmethod
    def unknown(cls, diagnostics) -> "Verdict":
        return cls(UNKNOWN, diagnostics=tuple(diagnostics))

    @property
    def is_realizable(self) -> bool:
        return self.status == REALIZABLE

    @property
    def is_not_realizable(self) -> bool:
        return self.status == NOT_REALIZABLE


# ---------------------------------------------------------------- verification

def verify_witness(tup: OrderedTuple, w: Witness) -> bool:
    """Exact replay: every function separated at its threshold.

    Returns False on broken ordering or separation; raises WitnessError when
    an expression value equals a threshold (neither holds nor fails).
    """
    if w.structure.n != tup.n or w.phi.n != tup.n:
        raise ValueError("witness arity does not match the tuple")
    return _separates(tup, w.thresholds, *scaled_corner_table(w.structure, w.phi))


def _separates(tup: OrderedTuple, thresholds, values, scale: int) -> bool:
    """The threshold and separation checks of ``verify_witness`` and
    ``verify_k_witness``, on corner values the caller already holds as
    integers over ``scale`` (``values[v] / scale`` is the value at corner v).

    A value is compared with a threshold p/q in integers, ``value * q``
    against ``p * scale``; the thresholds are compared as they are.
    """
    if len(thresholds) != len(tup):
        return False
    if any(t <= 0 for t in thresholds):
        return False
    if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
        return False
    for f, theta in zip(tup, thresholds):
        q, bound = theta.denominator, theta.numerator * scale
        for v, value in enumerate(values):
            x = value * q
            if x == bound:
                raise WitnessError(f"value at corner {v} equals threshold {theta}")
            if (x > bound) != bool(f.truth >> v & 1):
                return False
    return True


def verify_k_witness(tup: OrderedTuple, kw: KWitness) -> bool:
    """One non-negative value per corner, never falling along an edge of the
    cube, that separates every function like ``verify_witness``."""
    if len(kw.values) != 1 << tup.n:
        return False
    values, scale = integer_form(kw.values)
    if any(val < 0 for val in values):
        return False
    for v, val in enumerate(values):
        for i in range(tup.n):
            if not v >> i & 1 and val > values[v | 1 << i]:
                return False
    return _separates(tup, kw.thresholds, values, scale)


def realize_k(tup: OrderedTuple) -> KWitness:
    """Sum the tuple members; threshold j sits half a step below b - j + 1.

    A ``KWitness`` has its own threshold rule: the values are counts, so
    these half steps separate them and no gap needs deriving."""
    b = len(tup)
    values = tuple(
        Fraction(sum(f.truth >> v & 1 for f in tup)) for v in range(1 << tup.n)
    )
    thresholds = tuple(Fraction(2 * (b - j) - 1, 2) for j in range(b))
    return KWitness(values, thresholds)


# ---------------------------------------------------------------- sums (exact)

def check_sigma(tup: OrderedTuple) -> Verdict:
    """Exact decision for the sum class by one LP; never Unknown.

    The LP is the monomial system of the full sum z1+...+zn
    (``_monomial_system``).  For a sum every (l, d) monomial is a single
    symbol, so the system is not a relaxation: its columns are l1..ln,
    d1..dn (each high is l_i + d_i) and its strict homogeneous rows say
    that every maximal false corner of each function lies below each of its
    minimal true corners and that every l_i and d_i is positive.  Any point
    gives every function a gap between its false and its true values.  Where
    two functions of the implication chain differ, a corner false for the
    first and true for the second puts the first gap wholly above the
    second, so ``derive_thresholds`` always finds strictly decreasing
    thresholds.

    Fixing the support loses nothing: a sum over a subset of the variables
    separates the tuple exactly when the full sum does, because each of the
    k missing variables can be added with low 1 and a spread below the
    smallest separation margin over k, every threshold raised by k
    (``_full_sum``).  The verdict carries the derived witness, or the LP's
    Farkas certificate.
    """
    n = tup.n
    if n > 5:
        raise ValueError("sum decision guarded at arity 5")
    s = sum_structure(range(1, n + 1), n)
    out = _separation_lp(tup, s)
    if isinstance(out, FarkasCertificate):
        return Verdict.not_realizable(out)
    # columns are l1..ln (corner 0), then d1..dn (the unit corners in order)
    low = out[:n]
    phi = PhiAssignment(low, tuple(x + d for x, d in zip(low, out[n:])))
    return Verdict.realizable(_gap_witness(tup, s, phi))


def _gap_witness(tup: OrderedTuple, s: InteractionStructure, phi: PhiAssignment) -> Witness:
    """The witness at an assignment where every function has a gap:
    thresholds derived from the corner table and checked on it.  This is
    the one threshold rule of every ``Witness`` built here but
    ``separating_to_witness``'s: for a feasible point of the sum system, a
    point ``_screened_points`` admits, and the assignments ``lift_eta``
    (``_full_sum`` included), ``lower_eta`` and ``collapse_witness`` build
    from a witness.  There,
    ``derive_thresholds`` cannot fail: two distinct functions of an
    implication chain have disjoint gaps, the smaller one's higher.  Raises
    ``AssertionError`` if it does anyway."""
    values, scale = scaled_corner_table(s, phi)
    thresholds = derive_thresholds(tup, values, scale)
    if thresholds is None or not _separates(tup, thresholds, values, scale):
        raise AssertionError("an assignment with every gap produced a bad witness")
    return Witness(s, phi, thresholds)


# ---------------------------------------------------------------- direction test

def direction_certificate(f: MbfFunction, g: MbfFunction, ell: int):
    """Incomparability of the f-ceiling and g-floor collapses in direction
    ell, as two floor corners (p, q) with g(p) = 0 < g(q) and
    f(p + e_ell) = 1 > f(q + e_ell); None when the collapses are comparable.

    Such incomparability rules out every realizing expression in which z_ell
    is a bare factor or a standalone summand (``necessary_condition``).
    """
    a = restrict_and_collapse(f, ell, CEILING).truth
    b = restrict_and_collapse(g, ell, FLOOR).truth
    extra_a = a & ~b
    extra_b = b & ~a
    if not extra_a or not extra_b:
        return None
    wa = (extra_a & -extra_a).bit_length() - 1
    wb = (extra_b & -extra_b).bit_length() - 1
    return corner_insert_bit(wa, ell, 0), corner_insert_bit(wb, ell, 0)


def necessary_condition(f: MbfFunction, g: MbfFunction, s: InteractionStructure):
    """Kernel rows over the pair (j = 0 for f, 1 for g) for the first
    direction z_ell that the structure exposes as a standalone summand or a
    bare factor and whose collapses are incomparable; None when there is
    none.  With e = e_ell and the floor corners (p, q), f's row
    V(p+e) - V(q+e) plus g's row V(q) - V(p) is 0 for a summand, and l_ell
    times f's row plus (l_ell + d_ell) times g's row is 0 for a factor.
    """
    if not implies(f, g):
        raise ValueError("f must imply g")
    for ell in range(1, f.n + 1):
        factor = has_factor(s, ell)
        if factor or has_simple_term(s, ell):
            corners = direction_certificate(f, g, ell)
            if corners is not None:
                p, q = corners
                e = 1 << (ell - 1)
                if factor:
                    l, d = ((ell, 0),), ((ell, 1),)
                    rows = ((1, l, 0, q | e, p | e), (1, l, 1, p, q), (1, d, 1, p, q))
                else:
                    rows = ((1, (), 0, q | e, p | e), (1, (), 1, p, q))
                return FarkasCertificate(rows)
    return None


# ---------------------------------------------------------------- Farkas test

@lru_cache(maxsize=None)
def _structure_system(s: InteractionStructure):
    """The part of ``_monomial_system`` that depends on the structure alone,
    built once per process (structures are finitely many): the column of
    each (l, d) monomial (a dict in column order that callers only read; its
    length is the width) and one 0/1 vector per corner, its value in those
    columns (``corner_monomials``), as a tuple of ``int``.
    """
    universe: "dict[frozenset, int]" = {}
    expansions = []
    for v in range(1 << s.n):
        monos = corner_monomials(s, v)
        for m in monos:
            universe.setdefault(m, len(universe))
        expansions.append(monos)
    corners = []
    for monos in expansions:
        coeffs = [0] * len(universe)
        for m in monos:
            coeffs[universe[m]] = 1
        corners.append(tuple(coeffs))
    return universe, tuple(corners)


def _monomial_system(tup: OrderedTuple, s: InteractionStructure):
    """Width, names and rows of the degree-0 corner-separation system.

    In (l, d) coordinates every (l, d) monomial of the expression is an
    independent positive variable, so the system ``A x > 0`` has one unit
    row per monomial and one separation row V(b) - V(a) per function j, a
    maximal false corner a of f_j and a minimal true corner b.  The
    separation rows come first, each distinct row once at its first
    (j, a, b), and ``names[k]`` is that (j, a, b) of ``rows[k]``; the unit
    rows follow in column order.  Rows are tuples of ``int``, and the lists
    returned are fresh, so a caller may change them.
    """
    universe, corners = _structure_system(s)
    width = len(universe)
    named: "dict[tuple, tuple[int, int, int]]" = {}
    for j, f in enumerate(tup):
        above = minimal_true_corners(f)
        for a in maximal_false_corners(f):
            for b in above:
                row = tuple([x - y for x, y in zip(corners[b], corners[a])])
                named.setdefault(row, (j, a, b))
    units = [(0,) * k + (1,) + (0,) * (width - k - 1) for k in range(width)]
    return width, list(named.values()), list(named) + units


def _separation_lp(tup: OrderedTuple, s: InteractionStructure):
    """``linear.solve`` on ``_monomial_system``: the feasible point, or the
    Farkas certificate of its named rows with positive multipliers.  The
    unit rows alone are feasible, so a refutation names at least one row."""
    width, names, rows = _monomial_system(tup, s)
    out = linear.solve(width, rows)
    if isinstance(out, linear.Feasible):
        return out.point
    return FarkasCertificate(tuple((y, (), *name) for y, name in zip(out.multipliers, names) if y))


def monomial_certificate(tup: OrderedTuple, s: InteractionStructure):
    """Degree-0 Farkas refutation of the corner-separation system.

    Infeasibility of this relaxation is sound: the true polynomial system is
    a further restriction.  Returns None when the relaxation is feasible,
    which proves nothing either way.
    """
    out = _separation_lp(tup, s)
    return out if isinstance(out, FarkasCertificate) else None


# ---------------------------------------------------------------- grid search

# The grid ``search_witness`` searches: every variable has low 1 and one of
# these highs, tried in this order.  Times the LCM of the denominators (10)
# every value is an integer, which the screen evaluates instead.
_GRID_LOW = Fraction(1)
_GRID_HIGHS = (
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
    Fraction(31, 10),
    Fraction(4),
    Fraction(41, 10),
    Fraction(5),
    Fraction(6),
)
_GRID_SCALE = math.lcm(_GRID_LOW.denominator, *(h.denominator for h in _GRID_HIGHS))
_INT_LOW = int(_GRID_LOW * _GRID_SCALE)
_INT_HIGHS = tuple(int(h * _GRID_SCALE) for h in _GRID_HIGHS)


def derive_thresholds(tup: OrderedTuple, values, scale: int):
    """Midpoints of each function's separating gap; shared gaps are split
    into descending fractions.  None when some function has no gap.

    ``values`` are the corner values as integers over ``scale``
    (``scaled_corner_table``); gaps are found on the integers and each
    threshold is built as one exact ``Fraction``.
    """
    size = 1 << tup.n
    gaps = []
    for f in tup:
        false_vals = [values[v] for v in range(size) if not f.truth >> v & 1]
        true_vals = [values[v] for v in range(size) if f.truth >> v & 1]
        lo = max(false_vals) if false_vals else 0
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
                # lo + m - t
                thresholds.append(Fraction(lo + (m - t) * scale, scale))
            else:
                # lo + (hi - lo) * (m - t) / (m + 1)
                thresholds.append(Fraction(lo * (m + 1) + (hi - lo) * (m - t), scale * (m + 1)))
        j = j2
    if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
        return None
    return tuple(thresholds)


def _screened_points(tup: OrderedTuple, s: InteractionStructure):
    """Index tuples into ``_GRID_HIGHS`` over the sorted support, in grid
    order, of the points at which every function has a separating gap.

    Corner values are integers times a positive power of ``_GRID_SCALE`` on
    the integer grid.  Values grow with the corner bits, so a function has a
    gap exactly when each maximal false corner is below each minimal true
    corner.  Each variable sits in one block of one group, so with all highs
    but the last fixed (one row) a scaled corner value is ``A + B*h`` in the
    last scaled high h: one pass of ``scaled_corner_lines`` gives A and B,
    each (false, true) corner pair bounds h by a strict integer inequality,
    and the row admits the grid highs inside every bound.
    """
    *prefix, last = sorted(s.support)
    int_low = [_INT_LOW] * tup.n
    sides = [(maximal_false_corners(f), minimal_true_corners(f)) for f in tup]
    corners = sorted({v for below, above in sides for v in below + above})
    slot = {v: k for k, v in enumerate(corners)}
    pairs = {(slot[x], slot[y]) for below, above in sides for x in below for y in above}
    int_high = [max(_INT_HIGHS)] * tup.n
    scaled_lines = scaled_corner_lines(s, _GRID_SCALE, corners, last)
    for row in itertools.product(range(len(_INT_HIGHS)), repeat=len(prefix)):
        for i, k in zip(prefix, row):
            int_high[i - 1] = _INT_HIGHS[k]
        a, b = scaled_lines(int_low, int_high)
        lo, hi = min(_INT_HIGHS), max(_INT_HIGHS)
        for x, y in pairs:
            # a[x] + b[x]*h < a[y] + b[y]*h, that is c*h < d
            c, d = b[x] - b[y], a[y] - a[x]
            if c > 0:
                hi = min(hi, (d - 1) // c)
            elif c < 0:
                lo = max(lo, d // c + 1)
            elif d <= 0:
                hi = lo - 1
            if lo > hi:
                break
        else:
            yield from (row + (k,) for k, h in enumerate(_INT_HIGHS) if lo <= h <= hi)


def search_witness(tup: OrderedTuple, s: InteractionStructure):
    """Enumerate the fixed rational grid of high values (``_GRID_HIGHS``,
    every low ``_GRID_LOW``) over the structure support; a variable outside
    the support gets the largest high.  Thresholds are derived from the
    achieved value gaps, never searched.

    The witness is built at the first point, in grid order, that
    ``_screened_points`` admits (``_gap_witness``): every function has a gap
    there, so it always separates.  None when the screen admits no point.
    """
    point = next(_screened_points(tup, s), None)
    if point is None:
        return None
    high = [max(_GRID_HIGHS)] * tup.n
    for i, k in zip(sorted(s.support), point):
        high[i - 1] = _GRID_HIGHS[k]
    return _gap_witness(tup, s, PhiAssignment((_GRID_LOW,) * tup.n, tuple(high)))


# ---------------------------------------------------------------- class check

def _direction_blocked(tup: OrderedTuple, s: InteractionStructure):
    """``necessary_condition`` of the tuple's first pair that has one, its
    rows' j mapped onto the tuple, or None."""
    for pair in itertools.combinations(range(len(tup)), 2):
        cert = necessary_condition(tup[pair[0]], tup[pair[1]], s)
        if cert is not None:
            return FarkasCertificate(tuple((y, m, pair[j], a, b) for y, m, j, a, b in cert.rows))
    return None


@lru_cache(maxsize=None)
def _collapsed_blocked(collapsed: OrderedTuple, shape: InteractionStructure):
    """What ``_structure_blocked`` finds for a collapsed three-input tuple
    under a collapse shape (direction, then monomial), or None.

    Many structures, facets, tuples and classes meet the same pair, so each
    is tested once per process; both keys are three-input objects, so the
    memo stays bounded however many tuples are decided.
    """
    return _structure_blocked(collapsed, shape)


def _structure_blocked(tup: OrderedTuple, s: InteractionStructure):
    """First impossibility certificate for this structure, or None; always
    a ``FarkasCertificate``.

    The direction test on the tuple's pairs comes first.  At four inputs,
    each direction's collapse shape is then tested on the floor and the
    ceiling facet, in that order, through ``_collapsed_blocked``, and the
    first refutation found is lifted onto the structure (``_lifted``).  The
    structure's own monomial Farkas test comes last.
    """
    cert = _direction_blocked(tup, s)
    if cert is not None:
        return cert
    if tup.n == 4:
        for ell in range(1, tup.n + 1):
            shape = collapse_shape(s, ell)
            for side in (FLOOR, CEILING):
                inner = _collapsed_blocked(collapse_tuple(tup, ell, side), shape)
                if inner is not None:
                    return FarkasCertificate(_lifted(s, ell, side, inner.rows))
    return monomial_certificate(tup, s)


def _lifted(s: InteractionStructure, ell: int, side: str, rows):
    """Rows refuting the collapse shape of ``s`` on the facet z_ell = c
    (c = l_ell on the floor, l_ell + d_ell on the ceiling), lifted onto ``s``.

    There each corner vector of ``s`` is the shape's under one substitution
    sigma that keeps coefficients non-negative (``collapse_role``): the
    shape's z_i is z_(i+1) from i = ell on, a bare factor's sibling block
    has l_i and d_i times c, a shared block's survivor has l_s + c, and a
    summand's c cancels in V(b) - V(a).  So a row (y, m, j, a, b) becomes
    one row (y * k, m', j, a, b) per monomial k * m' of sigma(m), with bit
    ell of a and b set to the side, and the sum stays non-positive.
    """
    role, target = collapse_role(s, ell)
    bit = int(side == CEILING)
    c = ((ell, 0), (ell, 1))[:bit + 1]

    def image(i, kind):
        i += i >= ell
        if role == FACTOR and i in target:
            return [((i, kind), e) for e in c]
        if role == SHARED and (i, kind) == (target, 0):
            return [((i, 0),)] + [(e,) for e in c]
        return [((i, kind),)]

    lifted = []
    for y, m, j, a, b in rows:
        terms: "dict[tuple, int]" = {}
        for choice in itertools.product(*(image(*symbol) for symbol in m)):
            mono = tuple(sorted(itertools.chain(*choice)))
            terms[mono] = terms.get(mono, 0) + 1
        a, b = corner_insert_bit(a, ell, bit), corner_insert_bit(b, ell, bit)
        lifted += [(y * k, mono, j, a, b) for mono, k in terms.items()]
    return tuple(lifted)


def check_class(
    tup: OrderedTuple, class_tag: str, *, decided: "dict | None" = None
) -> Verdict:
    """Three-valued verdict for one algebraic class.

    Realizability does not depend on how the variables are numbered, so the
    verdict is decided once per relabeling orbit, on its canonical member
    (``canonical_form``), by ``_decide``.  The canonical member gets that
    verdict itself.  Every other member gets it relabeled back onto its own
    variables: the witness (``relabel_witness``), verified against the
    member's own tuple; the certificate (``relabel_certificate``), replayed
    against the member's own tuple; or the open structures of an
    ``unknown``, relabeled and listed in the class's enumeration order.  A
    relabeled witness that does not verify, or certificate that does not
    replay, raises ``AssertionError``.  Every verdict therefore derives from
    the canonical member's decision, whatever order the tuples and classes
    arrive in, and a census writes the same files however its work is dealt
    to worker processes.

    ``decided`` shares canonical decisions between calls: a dict from
    (canonical tuple, class) to verdict that this call reads and adds to,
    the smaller classes' verdicts included (see ``_decide``).  A caller
    deciding many tuples (a one-process census, a census worker's orbit, a
    parameter-graph factor) passes one dict, so each orbit is decided once
    per class; without it a call keeps no verdict.  Any call keeps only
    bounded facts: structure columns and corner vectors
    (``_structure_system``), three-input collapse facts
    (``_collapsed_blocked``), and in ``interaction`` each
    structure's corner plan and each relabeled structure.

    The free class ``k`` is realized directly.  The tag and the arity guards
    are checked before the tuple is canonicalized.
    """
    if class_tag == KCLASS:
        return Verdict.realizable(realize_k(tup))
    if class_tag == SIGMA:
        limit, what = 5, "sum decision"
    elif class_tag in (PISIGMA, SIGMAPISIGMA):
        limit, what = 4, "product classes"
    else:
        raise ValueError(f"unknown class tag {class_tag!r}")
    if tup.n > limit:
        raise ValueError(f"{what} guarded at arity {limit}")
    if decided is None:
        decided = {}
    canon, perm = canonical_form(tup)
    verdict = _decided(canon, class_tag, decided)
    if canon is tup:
        return verdict
    back = inverse_permutation(perm)
    if verdict.is_realizable:
        w = relabel_witness(verdict.witness, back)
        if not verify_witness(tup, w):
            raise AssertionError("relabeled witness does not verify the tuple")
        return Verdict.realizable(w)
    if verdict.is_not_realizable:
        cert = relabel_certificate(verdict.certificate, back)
        if not replay_certificate(tup, None, cert):
            raise AssertionError("relabeled certificate does not replay against the tuple")
        return Verdict.not_realizable(cert)
    named = _by_text(tup.n, class_tag)
    open_texts = {relabel_structure(named[text], back).text() for text in verdict.diagnostics}
    return Verdict.unknown(text for text in named if text in open_texts)


def _decided(tup: OrderedTuple, class_tag: str, decided: dict) -> Verdict:
    """The verdict ``decided`` holds for (tuple, class), decided and added
    there first if it is missing."""
    key = (tup, class_tag)
    verdict = decided.get(key)
    if verdict is None:
        verdict = decided[key] = _decide(tup, class_tag, decided)
    return verdict


def _decide(tup: OrderedTuple, class_tag: str, decided: dict) -> Verdict:
    """The verdict for this tuple itself, one step up the class chain.

    The sum class is decided exactly (``check_sigma``).  A product class
    starts from the next smaller class's verdict (sum < product of sums <
    sum of products of sums), read from ``decided`` or decided and added
    there.  A realizable one is this class's verdict as it is: its
    witness's structure is in this class's enumeration too, because a
    structure is its polynomial and the classes are nested sets of them.
    Otherwise only the structures the smaller class lacks are tried, in
    this class's order: the direction test, then (at four inputs) each
    facet's refutation lifted onto the structure, then the monomial Farkas
    test, then ``search_witness``.  The full-sum structure is not searched:
    its direction rows or the sum certificate rule it out.  A
    ``not_realizable`` smaller class lends its per-structure certificates to
    the exhaustion certificate; an ``unknown`` one lends its open structures
    and leaves this class realizable or ``unknown``.
    """
    if class_tag == SIGMA:
        return check_sigma(tup)
    n = tup.n
    smaller = _decided(tup, SIGMA if class_tag == PISIGMA else PISIGMA, decided)
    if smaller.is_realizable:
        return smaller
    if class_tag == PISIGMA:
        s = sum_structure(range(1, n + 1), n)
        cert = _direction_blocked(tup, s)
        prior = {s.text(): smaller.certificate if cert is None else cert}
    elif smaller.is_not_realizable:
        prior = smaller.certificate.as_dict()
    else:
        # the open structures (None) keep this verdict realizable or
        # unknown, so no certificate is built: the dead ones hold the
        # smaller verdict in place of theirs
        prior = {s.text(): smaller for s in enumerate_structures(n, PISIGMA)}
        prior.update(dict.fromkeys(smaller.diagnostics))

    dead = []
    alive = []
    for s in enumerate_structures(n, class_tag):
        text = s.text()
        if text in prior:
            cert = prior[text]
        else:
            cert = _structure_blocked(tup, s)
            if cert is None:
                w = search_witness(tup, s)
                if w is not None:
                    return Verdict.realizable(w)
        if cert is None:
            alive.append(text)
        else:
            dead.append((text, cert))
    if not alive:
        return Verdict.not_realizable(ExhaustionCertificate(tuple(dead)))
    return Verdict.unknown(alive)


# ---------------------------------------------------------------- transformations

def relabel_witness(w: Witness, perm: "tuple[int, ...]") -> Witness:
    """The witness for the tuple relabeled by ``perm``: the structure's
    variables are renamed and the low/high values move with them; the
    thresholds stay, because every corner value does."""
    return Witness(
        relabel_structure(w.structure, perm), relabel_assignment(w.phi, perm), w.thresholds
    )


def relabel_certificate(cert, perm: "tuple[int, ...]"):
    """The certificate for the claim relabeled by ``perm``: the tuple
    (``relabel_tuple``) and the structure (``relabel_structure``).  A
    certificate names everything relabeling moves, so it is all that is
    read; the arity is ``len(perm)``.

    Relabeling maps everything a certificate names one to one, so the result
    replays against the relabeled claim whenever ``cert`` replays against
    its own.  One certificate kind per branch, as in ``_replays``:

    * Farkas: each row's two corners (``corner_images``) and the variables
      of its monomial; the multipliers and function indices stay, and no
      system is built, a facet's refutation lifted onto its structure
      included;
    * exhaustion: every entry, put back in the class's enumeration order.
    """
    if isinstance(cert, FarkasCertificate):
        image = corner_images(perm)
        return FarkasCertificate(tuple(
            (y, tuple(sorted((perm[i - 1], kind) for i, kind in m)), j, image[a], image[b])
            for y, m, j, a, b in cert.rows
        ))
    if isinstance(cert, ExhaustionCertificate):
        named = _exhausted(len(perm), cert.entries)
        if named is None:
            raise ValueError("the exhaustion does not name a class's structures in order")
        entries = {
            relabel_structure(named[text], perm).text(): relabel_certificate(sub, perm)
            for text, sub in cert.entries
        }
        return ExhaustionCertificate(tuple((text, entries[text]) for text in named))
    raise TypeError(f"not a certificate: {cert!r}")


def lift_eta(
    pair: "tuple[MbfFunction, MbfFunction]", w: Witness, class_tag: str
) -> Witness:
    """Turn a witness for (f, g) into one for the paired (n+1)-input function.

    A sum that leaves out variables is first extended to all n
    (``_full_sum``).  The new variable z_(n+1) has low 1.  In a product of
    sums it is a new factor, times the sum's one block or the product's
    blocks, with high theta_f / theta_g, which scales g's values onto f's
    threshold; in the sum classes it is a new standalone summand with high
    1 + theta_f - theta_g, which shifts them there.  Either way the image
    has a gap, and ``_gap_witness`` derives its threshold, so the lifted
    structure is in the class's enumeration at n + 1.  A ``sigma`` lift of
    a witness that is not a sum, or a ``pisigma`` lift of one with more
    than one product, raises ``ValueError`` naming the structure.
    """
    f, g = pair
    tup = OrderedTuple((f, g))
    if not verify_witness(tup, w):
        raise WitnessError("witness does not verify the pair")
    n = f.n
    w = _full_sum(tup, w)
    s = w.structure
    theta_f, theta_g = w.thresholds
    new = frozenset({n + 1})
    if class_tag == PISIGMA:
        if len(s.groups) > 1 and s.degree() > 1:
            raise ValueError(f"a pisigma lift needs one product, not {s.text()}")
        blocks = s.groups[0] if s.degree() > 1 else (s.support,)
        groups, high = [blocks + (new,)], theta_f / theta_g
    elif class_tag == SIGMA and s.degree() > 1:
        raise ValueError(f"a sigma lift needs a sum, not {s.text()}")
    elif class_tag in (SIGMA, SIGMAPISIGMA):
        groups, high = s.groups + ((new,),), 1 + theta_f - theta_g
    else:
        raise ValueError(f"unsupported class tag {class_tag!r}")
    phi = PhiAssignment(w.phi.low + (Fraction(1),), w.phi.high + (high,))
    return _gap_witness(OrderedTuple((eta(f, g),)), structure(groups, n + 1), phi)


def _full_sum(tup: OrderedTuple, w: Witness) -> Witness:
    """A sum witness over all n variables from one over some of them; any
    other witness, whose support is already full, as it is.

    Each missing variable gets low 1 and a spread below the smallest
    separation margin over the number of missing variables, the argument of
    ``check_sigma``: no function depends on a variable the sum leaves out,
    every corner value rises by that many lows plus less than the margin,
    and so every gap survives.  ``_gap_witness`` re-derives the thresholds.
    """
    n = w.phi.n
    missing = [i for i in range(1, n + 1) if i not in w.structure.support]
    if not missing:
        return w
    values, scale = scaled_corner_table(w.structure, w.phi)
    margin = min(
        (values[b] - values[a] for f in tup
         for a in maximal_false_corners(f) for b in minimal_true_corners(f)),
        default=scale,
    )
    spread = Fraction(margin, scale * (len(missing) + 1))
    low, high = list(w.phi.low), list(w.phi.high)
    for i in missing:
        low[i - 1], high[i - 1] = Fraction(1), 1 + spread
    phi = PhiAssignment(tuple(low), tuple(high))
    return _gap_witness(tup, sum_structure(range(1, n + 1), n), phi)


def lower_eta(h: MbfFunction, w: Witness, direction: int):
    """Split a witness for h into one for its floor/ceiling pair, when the
    direction is a bare factor or standalone summand of the structure.

    On each facet z_direction's value multiplies, or adds to, the value of
    the rest, so ``collapse_shape`` with z_direction's low and high removed
    gives both functions of the pair a gap, and ``_gap_witness`` derives
    their thresholds.
    """
    if not verify_witness(OrderedTuple((h,)), w):
        raise WitnessError("witness does not verify the function")
    s = w.structure
    new_s = collapse_shape(s, direction)
    if not has_factor(s, direction) and not has_simple_term(s, direction):
        raise ValueError("direction is neither a factor nor a standalone summand")
    phi = PhiAssignment(
        w.phi.low[: direction - 1] + w.phi.low[direction:],
        w.phi.high[: direction - 1] + w.phi.high[direction:],
    )
    pair = (
        restrict_and_collapse(h, direction, FLOOR),
        restrict_and_collapse(h, direction, CEILING),
    )
    return pair, _gap_witness(OrderedTuple(pair), new_s, phi)


def collapse_witness(tup: OrderedTuple, w: Witness, ell: int, side: str):
    """Witness for the facet-collapsed tuple: ``collapse_structure``'s
    structure and assignment, under which every collapsed function keeps a
    gap, with thresholds from ``_gap_witness``."""
    if not verify_witness(tup, w):
        raise WitnessError("witness does not verify the tuple")
    new_s, phi = collapse_structure(w.structure, ell, side, w.phi)
    collapsed = collapse_tuple(tup, ell, side)
    return collapsed, _gap_witness(collapsed, new_s, phi)


# ---------------------------------------------------------------- sums vs planes

def witness_to_separating(w: Witness):
    """Weights and offset of the separating hyperplane behind a sum witness
    (any structure of degree 1) for a single function: a_i = high_i - low_i,
    offset against the sum of lows.  When the function is constantly 1 the
    clamped offset would change it, so -1/2 is used instead."""
    if w.structure.degree() != 1:
        raise ValueError("separating form needs a sum witness")
    if len(w.thresholds) != 1:
        raise ValueError("separating form is for single functions")
    members = w.structure.support
    n = w.phi.n
    a = tuple(
        w.phi.high[i - 1] - w.phi.low[i - 1] if i in members else Fraction(0)
        for i in range(1, n + 1)
    )
    raw = w.thresholds[0] - sum(w.phi.low[i - 1] for i in members)
    theta_prime = raw if raw >= 0 else Fraction(-1, 2)
    return a, theta_prime


def separating_to_witness(a, theta_prime) -> Witness:
    """Sum witness from a non-negative separating structure.

    Zero weights get a small positive perturbation and the offset is nudged
    off any corner it ties, so the induced function is unchanged and the
    strict separation required of witnesses holds.  The threshold keeps its
    own rule, that offset plus the sum of the lows, where ``_gap_witness``
    would move it to the midpoint of the gap.
    """
    a = tuple(Fraction(x) for x in a)
    n = len(a)
    theta_prime = Fraction(theta_prime)
    if any(x < 0 for x in a):
        raise ValueError("weights must be non-negative")
    if not theta_prime > -n:
        raise ValueError("offset must exceed -n")
    sums = [sum(x for x, bit in zip(a, _bits(v, n)) if bit) for v in range(1 << n)]
    true_vals = [s for s in sums if s > theta_prime]
    false_vals = [s for s in sums if s <= theta_prime]
    theta2 = theta_prime
    if theta_prime in sums:
        room = min(true_vals) - theta_prime if true_vals else Fraction(1)
        theta2 = theta_prime + room / 2
    if false_vals:
        eps = (theta2 - max(false_vals)) / (2 * n)
    else:
        eps = Fraction(1, 2)
    adjusted = tuple(x if x > 0 else eps for x in a)
    phi = PhiAssignment(
        tuple(Fraction(1) for _ in range(n)),
        tuple(1 + x for x in adjusted),
    )
    return Witness(sum_structure(range(1, n + 1), n), phi, (theta2 + n,))


def _bits(v: int, n: int):
    return tuple(v >> i & 1 for i in range(n))


def induced_function(w: Witness) -> MbfFunction:
    """The Boolean function a single-threshold witness separates."""
    values, scale = scaled_corner_table(w.structure, w.phi)
    theta = w.thresholds[0]
    q, bound = theta.denominator, theta.numerator * scale
    truth = 0
    for v, value in enumerate(values):
        x = value * q
        if x == bound:
            raise WitnessError(f"value at corner {v} equals the threshold")
        if x > bound:
            truth |= 1 << v
    return MbfFunction(w.structure.n, truth)


# ---------------------------------------------------------------- certificates io

def certificate_to_data(cert) -> dict:
    """JSON-ready dict, rationals as strings.  A Farkas certificate is its
    named rows, each ``[y, j, a, b]`` with y a rational's string, and
    ``[y, j, a, b, m]`` when its monomial is not 1, m the symbols ``l{i}``
    and ``d{i}`` joined by ``*``."""
    if isinstance(cert, FarkasCertificate):
        rows = [
            [str(y), j, a, b] + (["*".join(f"{'ld'[kind]}{i}" for i, kind in m)] if m else [])
            for y, m, j, a, b in cert.rows
        ]
        return {"type": "farkas", "rows": rows}
    if isinstance(cert, ExhaustionCertificate):
        return {
            "type": "exhaustion",
            "entries": [
                {"structure": text, "certificate": certificate_to_data(c)}
                for text, c in cert.entries
            ],
        }
    raise TypeError(f"not a certificate: {cert!r}")


def certificate_from_data(data: dict):
    """The certificate ``certificate_to_data`` wrote as ``data``.

    Data that does not have that shape raises ``ValueError`` naming the
    field: a missing key, a type or structure that is not a string, rows or
    entries that are not a list, a row that is not a list of four or five,
    a multiplier that is not an integer or a rational's string, a function
    index or corner in a row that is not an integer, a monomial that is not
    ``l{i}``/``d{i}`` symbols (i >= 1) joined by ``*``, an entry or its
    certificate that is not an object, or a type other than ``"farkas"``
    and ``"exhaustion"`` (the retired ``"collapse"`` included).
    """
    if not isinstance(data, dict):
        raise ValueError(f"certificate {data!r} is not an object")
    kind = _field(data, "type", str)
    if kind == "farkas":
        return FarkasCertificate(tuple(_row(r) for r in _field(data, "rows", list)))
    if kind == "exhaustion":
        entries = []
        for e in _field(data, "entries", list):
            if not isinstance(e, dict):
                raise ValueError(f"certificate entry {e!r} is not an object")
            entries.append(
                (_field(e, "structure", str), certificate_from_data(_field(e, "certificate", dict)))
            )
        return ExhaustionCertificate(tuple(entries))
    raise ValueError(f"unknown certificate type {kind!r}")


def _field(data: dict, key: str, kind: type):
    """``data[key]``, which must be a ``kind``; anything else raises
    ``ValueError`` naming the field."""
    if key not in data:
        raise ValueError(f"certificate has no field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(f"certificate field {key!r} is not a {kind.__name__}: {value!r}")
    return value


_MONOMIAL = re.compile(r"[ld][1-9][0-9]*(\*[ld][1-9][0-9]*)*")


def _row(value) -> "tuple[Fraction, tuple, int, int, int]":
    """A named Farkas row as written: ``[y, j, a, b]`` or ``[y, j, a, b, m]``,
    y an ``int`` or a rational's string, j, a, b integers (no bool) and m
    the monomial's symbols ``l{i}``/``d{i}`` (i >= 1) joined by ``*``."""
    if isinstance(value, list) and len(value) in (4, 5):
        y, j, a, b, *text = value
        if (
            all(type(x) is int for x in (j, a, b))
            and (isinstance(y, str) or type(y) is int)
            and all(isinstance(word, str) and _MONOMIAL.fullmatch(word) for word in text)
        ):
            symbols = [s for word in text for s in word.split("*")]
            m = tuple(sorted((int(s[1:]), "ld".index(s[0])) for s in symbols))
            try:
                return (Fraction(y), m, j, a, b)
            except (ValueError, ZeroDivisionError):
                pass
    raise ValueError(f"certificate field 'rows' has a bad row {value!r}")


def replay_certificate(tup: OrderedTuple, structure_text: "str | None", cert) -> bool:
    """Re-derive the contradiction against the claim it makes.

    Nothing stored is trusted that can be rebuilt from the tuple and the
    structure.  A Farkas certificate needs at least one row, and in every
    row ``(y, m, j, a, b)`` y > 0, f_j(a) = 0, f_j(b) = 1 and m's variables
    are among z1..zn; the sum of y * m * (V(b) - V(a)) over the (l, d)
    corner vectors of the structure, or of the full sum z1+...+zn when there
    is no structure (the sum decision's claim), must have no positive
    coefficient.  No system is built, and whether the structure exposes a
    direction is this arithmetic too.  An exhaustion is a claim about a
    whole class, so it replays only against a claim with no structure, and
    must name every ``pisigma`` or ``sigmapisigma`` structure in enumeration
    order.  A facet's refutation is replayed as the rows it was lifted to,
    like any other.  Structure text that does not parse names no claim, so
    nothing replays against it.
    """
    try:
        s = None if structure_text is None else parse_structure(structure_text, tup.n)
        return _replays(tup, s, cert)
    except StructureError:
        return False


def _replays(tup: OrderedTuple, s: "InteractionStructure | None", cert) -> bool:
    """``replay_certificate`` with the claim's structure ``s`` (None for the
    sum decision); exhaustion entries reuse the structures already built."""
    n = tup.n
    if isinstance(cert, FarkasCertificate):
        return _refutes(tup, sum_structure(range(1, n + 1), n) if s is None else s, cert.rows)
    if isinstance(cert, ExhaustionCertificate):
        named = _exhausted(n, cert.entries)
        return s is None and named is not None and all(
            _replays(tup, named[text], sub) for text, sub in cert.entries
        )
    return False


def _refutes(tup: OrderedTuple, s: InteractionStructure, rows) -> bool:
    """The Farkas branch of ``_replays``: the named rows, each checked
    against the tuple, add up to no positive (l, d) coefficient.  Rows with
    the same monomial m are summed in ``s``'s columns, then each column's
    monomial is multiplied by m.  The multipliers are scaled once by the LCM
    of their denominators, so the corner vectors are combined in ``int``s."""
    if not rows:
        return False
    universe, corners = _structure_system(s)
    scale = math.lcm(*(y.denominator for y, *_ in rows))
    by_monomial: "dict[tuple, list[int]]" = {}
    for y, m, j, a, b in rows:
        if not (y > 0 and 0 <= j < len(tup) and 0 <= a < len(corners) and 0 <= b < len(corners)):
            return False
        if tup[j].truth >> a & 1 or not tup[j].truth >> b & 1:
            return False
        w = y.numerator * (scale // y.denominator)
        total = by_monomial.get(m) or [0] * len(universe)
        by_monomial[m] = [t + w * (x - z) for t, x, z in zip(total, corners[b], corners[a])]
    if not all(1 <= i <= tup.n and kind in (0, 1) for m in by_monomial for i, kind in m):
        return False
    product: "dict[tuple, int]" = {}
    for m, total in by_monomial.items():
        for column, t in zip(universe, total):
            if t:
                key = tuple(sorted((*m, *column)))
                product[key] = product.get(key, 0) + t
    return all(t <= 0 for t in product.values())


@lru_cache(maxsize=None)
def _by_text(n: int, class_tag: str) -> "dict[str, InteractionStructure]":
    """The class's enumerated structures by text, in enumeration order, built
    once per (n, class) like the lists themselves.  Callers only read it."""
    return {s.text(): s for s in enumerate_structures(n, class_tag)}


def _exhausted(n: int, entries) -> "dict[str, InteractionStructure] | None":
    """``_by_text`` of the product class whose every structure the entries
    name, once each and in enumeration order; None when no class fits."""
    texts = [text for text, _ in entries]
    for class_tag in (PISIGMA, SIGMAPISIGMA):
        named = _by_text(n, class_tag)
        if texts == list(named):
            return named
    return None


# ---------------------------------------------------------------- witness files

def witness_to_text(tup: OrderedTuple, w: "Witness | KWitness") -> str:
    lines = ["tuple: " + " ".join(f.to_hex() for f in tup)]
    if isinstance(w, Witness):
        lines.append(f"structure: {w.structure.text()}")
        lines.append("low: " + " ".join(str(x) for x in w.phi.low))
        lines.append("high: " + " ".join(str(x) for x in w.phi.high))
    else:
        lines.append("rvalues: " + " ".join(str(x) for x in w.values))
    lines.append("thresholds: " + " ".join(str(x) for x in w.thresholds))
    return "\n".join(lines) + "\n"


def witness_from_text(text: str):
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        if key in fields:
            raise ValueError(f"duplicate witness field {key!r}")
        fields[key] = rest.strip()
    if "tuple" not in fields or "thresholds" not in fields:
        raise ValueError("witness file needs 'tuple' and 'thresholds'")
    functions = tuple(MbfFunction.from_hex(tok) for tok in fields["tuple"].split())
    tup = OrderedTuple(functions)
    thresholds = _rationals(fields, "thresholds")
    if "rvalues" in fields:
        return tup, KWitness(_rationals(fields, "rvalues"), thresholds)
    if "structure" not in fields or "low" not in fields or "high" not in fields:
        raise ValueError("witness file needs structure, low, and high")
    s = parse_structure(fields["structure"], tup.n)
    low = _rationals(fields, "low")
    high = _rationals(fields, "high")
    if len(low) != tup.n:
        raise ValueError(f"witness has {len(low)} low values for arity {tup.n}")
    return tup, Witness(s, PhiAssignment(low, high), thresholds)


def _rationals(fields: dict, key: str) -> "tuple[Fraction, ...]":
    """The witness field's values; a token that is not a rational (a zero
    denominator included) raises ``ValueError`` naming the field."""
    values = []
    for tok in fields[key].split():
        try:
            values.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"witness field {key!r} has a bad value {tok!r}") from None
    return tuple(values)
