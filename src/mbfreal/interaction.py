"""Interaction expressions built from sums and products of variables.

Three nested algebraic classes are supported: plain sums over a subset of the
variables, products of sums whose blocks partition all variables, and sums of
products of sums.  A structure stores the nested set partition only; numeric
evaluation plugs in per-variable low/high values.

Text format: ``"(z1+z2)*z3"``, ``"z1*z2+z3"``, ``"z1+z3"``.  Every structure
is stored in one canonical form, so the parser and printer round-trip and
equal polynomials are equal structures: a sum is the same object in every
class whose enumeration lists it.

Corner values are computed in exact integers.  Each structure is compiled
once per process into one plan (``_corner_plan``): per corner, which sums of
lows and highs multiply in each group.  ``scaled_corner_table`` puts an
assignment's lows and highs over their least common denominator and reads
the plan on the numerators, giving every corner value as an integer over one
scale; a caller compares a value ``x / scale`` with a threshold ``p / q`` as
``x * q`` against ``p * scale``.  ``corner_table`` is the ``Fraction`` view of
that table.  ``corner_monomials`` expands a corner value in (l, d)
coordinates, the columns of the separation rows that the refutations and the
grid screen of ``realizability`` read.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .boolean_core import CEILING, FLOOR

SIGMA = "sigma"
PISIGMA = "pisigma"
SIGMAPISIGMA = "sigmapisigma"
KCLASS = "k"

CLASS_TAGS = (SIGMA, PISIGMA, SIGMAPISIGMA)

Groups = "tuple[tuple[frozenset[int], ...], ...]"


class StructureError(ValueError):
    """A nested partition that no supported class admits."""


def _canonical(groups) -> Groups:
    """The groups in their one stored form: a group of one block split into
    one singleton group per variable (the polynomial is unchanged), blocks
    sorted by minimum element and groups by the minimum over their blocks.
    Raises ``StructureError`` for no group or an empty group or block."""
    out = []
    for group in groups:
        blocks = [frozenset(b) for b in group]
        if not blocks or not all(blocks):
            raise StructureError("empty group or block")
        blocks = tuple(sorted(blocks, key=min))
        if len(blocks) == 1 and len(blocks[0]) > 1:
            out.extend((frozenset({i}),) for i in sorted(blocks[0]))
        else:
            out.append(blocks)
    if not out:
        raise StructureError("empty group or block")
    out.sort(key=lambda blocks: min(min(b) for b in blocks))
    return tuple(out)


@dataclass(frozen=True)
class InteractionStructure:
    """A nested set partition encoding one sum/product expression.

    ``groups`` is a tuple of summands; each summand is a tuple of blocks whose
    sums are multiplied.  Every structure is stored in one canonical form
    (``_canonical``, built by ``structure``), so two structures are equal
    exactly when their polynomials are: a block that is a whole summand is
    split into one singleton group per variable, so a sum is one group per
    variable, never one block.  The classes are sets of structures
    (``enumerate_structures``); a structure carries none of its own.
    """

    n: int
    groups: Groups

    @property
    def support(self) -> frozenset:
        return frozenset().union(*(b for blocks in self.groups for b in blocks))

    def degree(self) -> int:
        return max(len(blocks) for blocks in self.groups)

    def text(self) -> str:
        parts = []
        for blocks in self.groups:
            factors = []
            for b in blocks:
                inner = "+".join(f"z{i}" for i in sorted(b))
                factors.append(f"({inner})" if len(b) > 1 else inner)
            parts.append("*".join(factors))
        return "+".join(parts)

    def __str__(self) -> str:
        return self.text()


def structure(groups, n: int) -> InteractionStructure:
    """Build a structure from nested iterables in its canonical form.

    The blocks must be non-empty, pairwise disjoint and within 1..n, and an
    expression of degree above 1 must use all n variables; a sum may use
    any of them.
    """
    if n < 1:
        raise StructureError("need at least one variable")
    canon = _canonical(groups)
    seen: set = set()
    for blocks in canon:
        for b in blocks:
            if not b <= set(range(1, n + 1)):
                raise StructureError(f"variable out of range in block {sorted(b)}")
            if b & seen:
                raise StructureError("blocks are not pairwise disjoint")
            seen |= b
    if len(seen) < n and max(len(blocks) for blocks in canon) > 1:
        raise StructureError(
            f"structure uses {sorted(seen)} but products and mixed forms "
            f"must use all {n} variables"
        )
    return InteractionStructure(n, canon)


def sum_structure(variables, n: int) -> InteractionStructure:
    return structure([[frozenset(variables)]], n)


_TOKEN = re.compile(r"z(\d+)|[+*()]|\s+")


def parse_structure(text: str, n: "int | None" = None) -> InteractionStructure:
    """Parse the text format; ``n`` defaults to the largest variable index."""
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise StructureError(f"bad structure text {text!r}")
        pos = m.end()
        if not m.group().isspace():
            tokens.append(int(m.group(1)) if m.group(1) else m.group())
    if pos != len(text):
        raise StructureError(f"bad structure text {text!r}")
    tokens.reverse()

    def pop():
        if not tokens:
            raise StructureError(f"truncated structure text {text!r}")
        return tokens.pop()

    def parse_paren_block() -> frozenset:
        members = set()
        while True:
            tok = pop()
            if not isinstance(tok, int):
                raise StructureError(f"expected variable, got {tok!r}")
            if tok in members:
                raise StructureError(f"variable z{tok} repeated in a block of {text!r}")
            members.add(tok)
            tok = pop()
            if tok == ")":
                return frozenset(members)
            if tok != "+":
                raise StructureError(f"expected '+' or ')', got {tok!r}")

    def parse_atom() -> frozenset:
        if tokens and tokens[-1] == "(":
            tokens.pop()
            return parse_paren_block()
        tok = pop()
        if not isinstance(tok, int):
            raise StructureError(f"expected variable or '(', got {tok!r}")
        return frozenset({tok})

    groups = []
    current: "list[frozenset]" = [parse_atom()]
    while tokens:
        tok = tokens.pop()
        if tok == "*":
            current.append(parse_atom())
        elif tok == "+":
            groups.append(current)
            current = [parse_atom()]
        else:
            raise StructureError(f"unexpected token {tok!r} in {text!r}")
    groups.append(current)

    if n is None:
        n = max(max(b) for g in groups for b in g)
    return structure(groups, n)


def enumerate_structures(n: int, class_tag: str) -> "list[InteractionStructure]":
    """All canonical structures of one class, deterministically ordered."""
    return list(_structures(n, class_tag))


@lru_cache(maxsize=None)
def _structures(n: int, class_tag: str) -> "tuple[InteractionStructure, ...]":
    """``enumerate_structures``, built once per (n, class): the lists are
    finitely many and their structures immutable."""
    if not 1 <= n <= 5:
        raise StructureError(f"arity {n} outside enumeration range 1..5")
    items = tuple(range(1, n + 1))
    out: "list[InteractionStructure]" = []
    if class_tag == SIGMA:
        for mask in range(1, 1 << n):
            v = frozenset(i for i in items if mask >> (i - 1) & 1)
            out.append(sum_structure(v, n))
        return tuple(out)
    if class_tag == PISIGMA:
        for part in set_partitions(items):
            out.append(structure([part], n))
        out.sort(key=lambda s: (s.degree(), s.text()))
        return tuple(out)
    if class_tag == SIGMAPISIGMA:
        for outer in set_partitions(items):
            choices = []
            for group in outer:
                if len(group) == 1:
                    choices.append([(frozenset(group),)])
                else:
                    choices.append(
                        [
                            tuple(frozenset(b) for b in p)
                            for p in set_partitions(tuple(sorted(group)))
                            if len(p) >= 2
                        ]
                    )
            for combo in itertools.product(*choices):
                out.append(structure(list(combo), n))
        out.sort(key=lambda s: (len(s.groups), s.text()))
        return tuple(out)
    raise StructureError(f"unknown class tag {class_tag!r}")


def set_partitions(items):
    """All set partitions, each a list of frozensets, in a fixed order."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [frozenset({first})] + part
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1 :]


# ---------------------------------------------------------------- evaluation

@dataclass(frozen=True)
class PhiAssignment:
    """Per-variable positive low/high values encoding Boolean inputs."""

    low: "tuple[Fraction, ...]"
    high: "tuple[Fraction, ...]"

    def __post_init__(self) -> None:
        if len(self.low) != len(self.high):
            raise ValueError("low/high length mismatch")
        for lo, hi in zip(self.low, self.high):
            if not 0 < lo < hi:
                raise ValueError(f"need 0 < low < high, got {lo}, {hi}")

    @property
    def n(self) -> int:
        return len(self.low)

    def value(self, i: int, bit: int) -> Fraction:
        return self.high[i - 1] if bit else self.low[i - 1]

    def corner(self, v: int) -> "tuple[Fraction, ...]":
        return tuple(
            self.high[i] if v >> i & 1 else self.low[i] for i in range(self.n)
        )


def evaluate(s: InteractionStructure, z) -> Fraction:
    """Exact value of the expression at a positive rational point."""
    if len(z) != s.n:
        raise ValueError(f"expected {s.n} values, got {len(z)}")
    z = [Fraction(v) for v in z]
    if any(v <= 0 for v in z):
        raise ValueError("interaction functions are defined for positive values only")
    total = Fraction(0)
    for blocks in s.groups:
        prod = Fraction(1)
        for b in blocks:
            prod *= sum(z[i - 1] for i in b)
        total += prod
    return total


@lru_cache(maxsize=None)
def _corner_plan(s: InteractionStructure):
    """The expression compiled once per structure (structures are finitely
    many): ``(degree, blocks, corners)``.

    Values are read from one list ``low + high`` of a variable's low at
    position ``i - 1`` and its high at ``n + i - 1``.  ``blocks`` holds every
    distinct block of the expression at some corner, as a tuple of positions
    to sum; ``corners[v]`` holds, per group, the number of its blocks and the
    indices of those blocks in ``blocks``, whose sums multiply.
    """
    n = s.n
    ids: "dict[tuple[int, ...], int]" = {}
    corners = []
    for v in range(1 << n):
        terms = []
        for blocks in s.groups:
            members = tuple(
                ids.setdefault(tuple(i - 1 + n * (v >> (i - 1) & 1) for i in sorted(b)), len(ids))
                for b in blocks
            )
            terms.append((len(blocks), members))
        corners.append(tuple(terms))
    return s.degree(), tuple(ids), tuple(corners)


def integer_form(values) -> "tuple[list[int], int]":
    """Integer numerators of rationals over their least common denominator,
    and that denominator: ``nums[k] / scale == values[k]`` exactly."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def scaled_corner_table(s: InteractionStructure, phi: PhiAssignment) -> "tuple[list[int], int]":
    """Values at all 2**n corners as integers over one scale:
    ``values[v] / scale`` is the exact value at corner bitmask v.

    The lows and highs are put over their least common denominator d and
    the structure's compiled plan is evaluated on the numerators, so the
    scale is ``d ** degree``: a group of m blocks, a product of m sums of
    numerators, is ``d ** m`` times its value, so it is weighted by
    ``d ** (degree - m)``.  ``PhiAssignment`` has already checked that its
    values are positive, so nothing is checked or converted per corner.
    """
    if phi.n != s.n:
        raise ValueError(f"expected {s.n} values, got {phi.n}")
    degree, blocks, terms_at = _corner_plan(s)
    nums, d = integer_form(phi.low + phi.high)
    get = nums.__getitem__
    sums = [sum(map(get, b)) for b in blocks]
    weights = [d ** (degree - m) for m in range(degree + 1)]
    values = []
    for terms in terms_at:
        total = 0
        for m, members in terms:
            prod = weights[m]
            for k in members:
                prod *= sums[k]
            total += prod
        values.append(total)
    return values, d ** degree


def corner_table(s: InteractionStructure, phi: PhiAssignment) -> "tuple[Fraction, ...]":
    """Values at all 2**n corners, indexed by corner bitmask: the ``Fraction``
    view of ``scaled_corner_table``."""
    values, scale = scaled_corner_table(s, phi)
    return tuple(Fraction(x, scale) for x in values)


def corner_monomials(s: InteractionStructure, v: int):
    """Multilinear expansion of the corner value in (l, d) coordinates.

    Write each high as u_i = l_i + d_i with d_i > 0.  At corner v a block
    sum is the sum of its variables' l_i plus the d_i of those whose bit is
    set, so the value expands into monomials with coefficient 1 each.  A
    monomial is a frozenset of (variable, kind) symbols, kind 0 for l_i and
    1 for d_i; the corner value is the sum over monomials of the product of
    their symbols.
    """
    out = []
    for blocks in s.groups:
        pools = [
            [(i, 0) for i in sorted(b)] + [(i, 1) for i in sorted(b) if v >> (i - 1) & 1]
            for b in blocks
        ]
        for combo in itertools.product(*pools):
            out.append(frozenset(combo))
    return out


# ---------------------------------------------------------------- relabeling

@lru_cache(maxsize=None)
def relabel_structure(s: InteractionStructure, perm: "tuple[int, ...]") -> InteractionStructure:
    """The same expression with z_i renamed z_perm[i-1].

    Kept per (structure, permutation), both finitely many: ``check_class``
    relabels a canonical verdict (its witness, every structure its
    certificate names, or its open structures) onto every other member of
    its orbit.
    """
    if sorted(perm) != list(range(1, s.n + 1)):
        raise StructureError(f"{perm} is not a permutation of 1..{s.n}")
    groups = [[frozenset(perm[i - 1] for i in b) for b in blocks] for blocks in s.groups]
    return structure(groups, s.n)


def relabel_assignment(phi: PhiAssignment, perm: "tuple[int, ...]") -> PhiAssignment:
    """Values moved with their variables: z_perm[i-1] gets z_i's low and high,
    so a relabeled expression has the original value at the relabeled corner."""
    if sorted(perm) != list(range(1, phi.n + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{phi.n}")
    low = [None] * phi.n
    high = [None] * phi.n
    for i, j in enumerate(perm):
        low[j - 1] = phi.low[i]
        high[j - 1] = phi.high[i]
    return PhiAssignment(tuple(low), tuple(high))


# ---------------------------------------------------------------- factors and terms

def has_factor(s: InteractionStructure, ell: int) -> bool:
    """Whether the whole expression is a product with the bare factor z_ell."""
    if len(s.groups) != 1 or len(s.groups[0]) < 2:
        return False
    return frozenset({ell}) in s.groups[0]


def has_simple_term(s: InteractionStructure, ell: int) -> bool:
    """Whether z_ell appears as a standalone additive summand."""
    return (frozenset({ell}),) in s.groups


# ---------------------------------------------------------------- collapse

SUMMAND, FACTOR, SHARED = "summand", "factor", "shared"


def _check_direction(n: int, ell: int) -> None:
    if not 1 <= ell <= n:
        raise ValueError(f"direction {ell} out of range 1..{n}")


def collapse_role(s: InteractionStructure, ell: int):
    """What takes z_ell's value c when z_ell is removed on a facet:
    ``(SUMMAND, None)`` when z_ell is a summand of its own, as every
    variable of a sum is (c is added to every corner value), ``(FACTOR,
    sibling)`` when it is a bare factor (the other block with the smallest
    minimum is scaled by c), ``(SHARED, survivor)`` when it shares a block
    of a product (the smallest other variable there is shifted by c), and
    ``(None, None)`` outside the support.  A direction outside 1..n raises
    ``ValueError``."""
    _check_direction(s.n, ell)
    for blocks in s.groups:
        home = next((b for b in blocks if ell in b), None)
        if home is None:
            continue
        if home != {ell}:
            return SHARED, min(home - {ell})
        if len(blocks) == 1:
            return SUMMAND, None
        return FACTOR, min((b for b in blocks if b != home), key=min)
    return None, None


def collapse_shape(s: InteractionStructure, ell: int) -> InteractionStructure:
    """The structure after removing z_ell, the later variables renumbered
    down one; independent of the facet side.  A direction outside 1..n
    raises ``ValueError``."""
    _check_direction(s.n, ell)
    groups = [
        [frozenset(i - (i > ell) for i in b - {ell}) for b in blocks if b != {ell}]
        for blocks in s.groups
    ]
    groups = [blocks for blocks in groups if blocks]
    if not groups:
        raise StructureError("collapse would leave an empty expression")
    return structure(groups, s.n - 1)


def collapse_structure(
    s: InteractionStructure,
    ell: int,
    side: str,
    phi: PhiAssignment,
) -> "tuple[InteractionStructure, PhiAssignment]":
    """Remove z_ell on one facet, rewriting the value assignment to compensate.

    ``collapse_role`` says what takes z_ell's value c: the sibling block's
    lows and highs are multiplied by it, or the survivor's low and high are
    shifted by it.  On every corner of the chosen facet the original value
    is the collapsed value, plus c when z_ell is a summand of its own, so
    every function the original separates keeps a gap on the facet.
    """
    if s.n <= 1:
        raise StructureError("cannot collapse a single-variable expression")
    if side not in (FLOOR, CEILING):
        raise ValueError(f"side must be {FLOOR!r} or {CEILING!r}")
    if phi.n != s.n:
        raise ValueError("assignment arity mismatch")
    role, target = collapse_role(s, ell)
    out = collapse_shape(s, ell)
    c = phi.value(ell, 1 if side == CEILING else 0)
    low = list(phi.low)
    high = list(phi.high)
    if role == FACTOR:
        for i in target:
            low[i - 1] *= c
            high[i - 1] *= c
    elif role == SHARED:
        low[target - 1] += c
        high[target - 1] += c
    del low[ell - 1], high[ell - 1]
    return out, PhiAssignment(tuple(low), tuple(high))
