"""Positive monotone Boolean functions on hypercube corners.

A function on n inputs is stored as a truth bitmask over the 2**n corners of
the n-cube.  Corner index encoding: bit i-1 of the index holds coordinate y_i,
so a corner string "y1y2...yn" reads left-to-right from the least significant
bit ("110" is index 3 and "001" is index 4 when n = 3).

The module also provides the enumeration of implication chains
f_1 => ... => f_k, the pairing between ordered pairs (f, g) with f implying
g on the n-cube and single positive monotone functions on the (n+1)-cube
(the new coordinate's floor carries f and its ceiling carries g), and the
relabeling of variables with the canonical member of each relabeling orbit
of a tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

MAX_ARITY = 8
MAX_ENUM_ARITY = 5

FLOOR = "floor"
CEILING = "ceiling"

ACTIVATING = "+"
REPRESSING = "-"


class ArityError(ValueError):
    """Operands with mismatched or out-of-range arity."""


def _check_arity(n: int) -> None:
    if not 0 <= n <= MAX_ARITY:
        raise ArityError(f"arity {n} outside supported range 0..{MAX_ARITY}")


@lru_cache(maxsize=None)
def _floor_positions(n: int, direction: int) -> int:
    """Bitmask over corner indices selecting corners with y_direction = 0."""
    mask = 0
    for v in range(1 << n):
        if not v >> (direction - 1) & 1:
            mask |= 1 << v
    return mask


@dataclass(frozen=True)
class Corner:
    """A vertex of the n-cube, addressed by its bitmask index."""

    n: int
    index: int

    def __post_init__(self) -> None:
        _check_arity(self.n)
        if not 0 <= self.index < 1 << self.n:
            raise ValueError(f"corner index {self.index} out of range for n={self.n}")

    @classmethod
    def from_string(cls, text: str) -> Corner:
        """Parse "y1y2...yn"; the left character is y_1 (the low bit)."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"bad corner string {text!r}")
        index = sum(1 << i for i, c in enumerate(text) if c == "1")
        return cls(len(text), index)

    def __str__(self) -> str:
        return "".join("1" if self.index >> i & 1 else "0" for i in range(self.n))

    def bit(self, i: int) -> int:
        """Coordinate y_i, 1-based."""
        return self.index >> (i - 1) & 1


def is_monotone_positive(truth: int, n: int) -> bool:
    """Whether a raw truth table is positive monotone in every input.

    The table is a bitmask of length 2**n; bit v holds the value at corner v.
    """
    _check_arity(n)
    if not 0 <= truth < 1 << (1 << n):
        raise ValueError("truth mask wider than 2**n bits")
    for i in range(1, n + 1):
        shift = 1 << (i - 1)
        floor = _floor_positions(n, i)
        if truth & floor & ~(truth >> shift):
            return False
    return True


def monotone_closure(truth: int, n: int) -> int:
    """Smallest positive monotone table whose truth set contains the given one."""
    for i in range(1, n + 1):
        shift = 1 << (i - 1)
        truth |= (truth & _floor_positions(n, i)) << shift
    return truth


@dataclass(frozen=True)
class MbfFunction:
    """A positive monotone Boolean function; the constructor rejects others."""

    n: int
    truth: int

    def __post_init__(self) -> None:
        if not is_monotone_positive(self.truth, self.n):
            raise ValueError("truth table is not positive monotone")

    @classmethod
    def raw(cls, n: int, truth: int) -> MbfFunction:
        """Wrap a table without the monotonicity check (for testing tables)."""
        _check_arity(n)
        if not 0 <= truth < 1 << (1 << n):
            raise ValueError("truth mask wider than 2**n bits")
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "truth", truth)
        return self

    @classmethod
    def const(cls, n: int, value: int) -> MbfFunction:
        return cls(n, (1 << (1 << n)) - 1 if value else 0)

    @classmethod
    def from_corners(cls, n: int, corners: "list[str] | list[int]") -> MbfFunction:
        """Build from corner strings like ["101", "011"] or corner indices."""
        truth = 0
        for c in corners:
            index = Corner.from_string(c).index if isinstance(c, str) else c
            truth |= 1 << index
        return cls(n, truth)

    def to_hex(self) -> str:
        """Serialize as "mbf:<n>:<hex>", most significant nibble first."""
        width = ((1 << self.n) + 3) // 4
        return f"mbf:{self.n}:{self.truth:0{width}x}"

    @classmethod
    def from_hex(cls, text: str) -> MbfFunction:
        parts = text.strip().split(":")
        if len(parts) != 3 or parts[0] != "mbf":
            raise ValueError(f"bad function encoding {text!r}")
        return cls(int(parts[1]), int(parts[2], 16))

    def truth_corners(self) -> tuple[int, ...]:
        return tuple(v for v in range(1 << self.n) if self.truth >> v & 1)

    def __call__(self, v: "Corner | int") -> int:
        return evaluate(self, v)


def evaluate(f: MbfFunction, v: "Corner | int") -> int:
    """Value of f at a corner (0 or 1)."""
    if isinstance(v, Corner):
        if v.n != f.n:
            raise ArityError(f"corner arity {v.n} != function arity {f.n}")
        v = v.index
    if not 0 <= v < 1 << f.n:
        raise ValueError(f"corner index {v} out of range for n={f.n}")
    return f.truth >> v & 1


def implies(f: MbfFunction, g: MbfFunction) -> bool:
    """Whether the truth set of f is contained in the truth set of g."""
    if f.n != g.n:
        raise ArityError(f"arity mismatch {f.n} != {g.n}")
    return f.truth & ~g.truth == 0


def is_monotone_signed(truth: int, n: int, signs: "tuple[str, ...]") -> bool:
    """Monotone with per-input direction: "+" non-decreasing, "-" non-increasing."""
    if len(signs) != n:
        raise ArityError(f"{len(signs)} signs for arity {n}")
    for i, sign in enumerate(signs, start=1):
        shift = 1 << (i - 1)
        floor = _floor_positions(n, i)
        low = truth & floor
        high = (truth >> shift) & floor
        bad = low & ~high if sign == ACTIVATING else high & ~low
        if bad:
            return False
    return True


def beta_normalize(truth: int, signs: "tuple[str, ...]") -> MbfFunction:
    """Flip every repressing coordinate so the function becomes positive.

    The input table must be monotone with the given signs; the coordinate
    change is an involution, so applying it twice with the same signs gives
    back the original table.
    """
    n = len(signs)
    if not is_monotone_signed(truth, n, signs):
        raise ValueError("table is not monotone with the given signs")
    flip = sum(1 << (i - 1) for i, s in enumerate(signs, start=1) if s == REPRESSING)
    out = 0
    for v in range(1 << n):
        if truth >> v & 1:
            out |= 1 << (v ^ flip)
    return MbfFunction(n, out)


def restrict_and_collapse(f: MbfFunction, direction: int, side: str) -> MbfFunction:
    """Restrict f to one facet and drop the facet's normal coordinate.

    ``side`` selects the floor (y_direction = 0) or ceiling (y_direction = 1)
    facet.  The result is positive monotone because truth sets of positive
    functions are uppersets and facet restriction preserves that.
    """
    if f.n <= 1:
        raise ArityError("cannot collapse a function of arity <= 1")
    if not 1 <= direction <= f.n:
        raise ValueError(f"direction {direction} out of range")
    if side not in (FLOOR, CEILING):
        raise ValueError(f"side must be {FLOOR!r} or {CEILING!r}")
    side_bit = 1 if side == CEILING else 0
    low = (1 << (direction - 1)) - 1
    out = 0
    for w in range(1 << (f.n - 1)):
        v = (w & low) | ((w & ~low) << 1) | side_bit << (direction - 1)
        if f.truth >> v & 1:
            out |= 1 << w
    return MbfFunction(f.n - 1, out)


def corner_insert_bit(w: int, position: int, bit: int) -> int:
    """Index of the n-cube corner obtained by inserting y_position = bit
    into an (n-1)-cube corner index."""
    low = (1 << (position - 1)) - 1
    return (w & low) | ((w & ~low) << 1) | (bit & 1) << (position - 1)


def minimal_true_corners(f: MbfFunction) -> "tuple[int, ...]":
    """Corners of the truth set with no truth-set corner strictly below them,
    ascending.  Each direction's shift of the table marks the corners whose
    neighbor one step below is true."""
    below = 0
    for i in range(1, f.n + 1):
        below |= (f.truth & _floor_positions(f.n, i)) << (1 << (i - 1))
    return _corner_indices(f.truth & ~below)


def maximal_false_corners(f: MbfFunction) -> "tuple[int, ...]":
    """False corners with no false corner strictly above them, ascending."""
    false = ~f.truth & ((1 << (1 << f.n)) - 1)
    above = 0
    for i in range(1, f.n + 1):
        above |= false >> (1 << (i - 1)) & _floor_positions(f.n, i)
    return _corner_indices(false & ~above)


def _corner_indices(mask: int) -> "tuple[int, ...]":
    """The corners a bitmask selects, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def eta(f: MbfFunction, g: MbfFunction) -> MbfFunction:
    """Pair (f, g) with f implying g into one function of arity n+1.

    The new coordinate's floor carries f and its ceiling carries g; this is a
    bijection onto the positive monotone functions of arity n+1.
    """
    if not implies(f, g):
        raise ValueError("f must imply g")
    return MbfFunction(f.n + 1, f.truth | g.truth << (1 << f.n))


def eta_inverse(h: MbfFunction) -> "tuple[MbfFunction, MbfFunction]":
    """Split h of arity n+1 into its floor and ceiling functions of arity n."""
    if h.n < 1:
        raise ArityError("need arity >= 1 to split")
    size = 1 << (h.n - 1)
    f = MbfFunction(h.n - 1, h.truth & (1 << size) - 1)
    g = MbfFunction(h.n - 1, h.truth >> size)
    return f, g


def enumerate_mbf_positive(n: int) -> "list[MbfFunction]":
    """All positive monotone functions of arity n, ascending by truth mask.

    For n >= 1 they are the images under ``eta`` of the arity n-1 pairs
    (``enumerate_ordered_pairs``), so no 2**(2**n) tables are filtered and
    n = 5 stays feasible.  Arities above ``MAX_ENUM_ARITY`` are refused:
    arity 6 alone has 7828354 functions.
    """
    if n > MAX_ENUM_ARITY:
        raise ArityError(f"arity {n} above enumeration guard {MAX_ENUM_ARITY}")
    return list(_enumerate_cached(n))


@lru_cache(maxsize=None)
def _enumerate_cached(n: int) -> "tuple[MbfFunction, ...]":
    _check_arity(n)
    if n == 0:
        return MbfFunction(0, 0), MbfFunction(0, 1)
    images = [eta(f, g) for f, g in enumerate_chains(n - 1, 2)]
    images.sort(key=lambda h: h.truth)
    return tuple(images)


def enumerate_chains(n: int, length: int) -> "list[tuple[MbfFunction, ...]]":
    """All chains of ``length`` functions of arity n, each implying the next.

    Repeats are included: implication is containment, not strict
    containment.  Chains are listed in ascending lexicographic order of their
    truth masks; length 0 gives the empty chain alone.  From length 2 on the
    guard is one below ``MAX_ENUM_ARITY``, since the pairs alone are as many
    as the positive monotone functions of arity n+1.
    """
    if length < 0:
        raise ValueError(f"chain length {length} is negative")
    if length >= 2 and n > MAX_ENUM_ARITY - 1:
        raise ArityError(f"arity {n} above pair-enumeration guard {MAX_ENUM_ARITY - 1}")
    funcs = enumerate_mbf_positive(n)
    chains: "list[tuple[MbfFunction, ...]]" = [()]
    for _ in range(length):
        chains = [
            chain + (f,)
            for chain in chains
            for f in funcs
            if not chain or chain[-1].truth & ~f.truth == 0
        ]
    return chains


def enumerate_ordered_pairs(n: int) -> "list[tuple[MbfFunction, MbfFunction]]":
    """All pairs (f, g) of arity n with f implying g, ascending by masks:
    ``enumerate_chains(n, 2)``.  Their count equals the number of positive
    monotone functions of arity n+1."""
    return enumerate_chains(n, 2)


class OrderedTuple:
    """A chain f_1, ..., f_k of equal-arity functions ordered by implication."""

    __slots__ = ("functions",)

    def __init__(self, functions: "tuple[MbfFunction, ...] | list[MbfFunction]"):
        functions = tuple(functions)
        if not functions:
            raise ValueError("empty tuple")
        n = functions[0].n
        for f in functions:
            if f.n != n:
                raise ArityError("mixed arities in tuple")
        for a, b in zip(functions, functions[1:]):
            if not implies(a, b):
                raise ValueError("functions are not ordered by implication")
        self.functions = functions

    @property
    def n(self) -> int:
        return self.functions[0].n

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, j: int) -> MbfFunction:
        return self.functions[j]

    def __eq__(self, other) -> bool:
        return isinstance(other, OrderedTuple) and self.functions == other.functions

    def __hash__(self) -> int:
        return hash(self.functions)

    def __repr__(self) -> str:
        return f"OrderedTuple({', '.join(f.to_hex() for f in self.functions)})"


# ---------------------------------------------------------------- relabeling

@lru_cache(maxsize=None)
def permutations(n: int) -> "tuple[tuple[int, ...], ...]":
    """Every relabeling of z_1..z_n, the identity first.

    A relabeling ``perm`` renames z_i to z_perm[i-1]; the order is that of
    ``itertools.permutations``.
    """
    _check_arity(n)
    return tuple(itertools.permutations(range(1, n + 1)))


def inverse_permutation(perm: "tuple[int, ...]") -> "tuple[int, ...]":
    """The relabeling that undoes ``perm``."""
    out = [0] * len(perm)
    for i, j in enumerate(perm, start=1):
        out[j - 1] = i
    return tuple(out)


@lru_cache(maxsize=None)
def corner_images(perm: "tuple[int, ...]") -> "tuple[int, ...]":
    """Per corner v, the corner that v becomes when z_i becomes z_perm[i-1]."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{n}")
    image = [0] * (1 << n)
    for i, j in enumerate(perm):
        for v in range(1 << i):
            image[v | 1 << i] = image[v] | 1 << (j - 1)
    return tuple(image)


def _relabel_truth(truth: int, perm: "tuple[int, ...]") -> int:
    out = 0
    for v, w in enumerate(corner_images(perm)):
        if truth >> v & 1:
            out |= 1 << w
    return out


@lru_cache(maxsize=None)
def relabel_images(n: int, truth: int) -> "tuple[int, ...]":
    """Truth mask of the table relabeled by each of ``permutations(n)``."""
    return tuple(_relabel_truth(truth, perm) for perm in permutations(n))


def relabel(f: MbfFunction, perm: "tuple[int, ...]") -> MbfFunction:
    """f with z_i renamed z_perm[i-1]: its value at a corner is f's value at
    the corner whose y_i is the new corner's y_perm[i-1]."""
    if len(perm) != f.n:
        raise ArityError(f"relabeling of {len(perm)} variables for arity {f.n}")
    return MbfFunction(f.n, _relabel_truth(f.truth, perm))


def relabel_tuple(tup: OrderedTuple, perm: "tuple[int, ...]") -> OrderedTuple:
    """Every member relabeled alike; implication is kept."""
    return OrderedTuple(tuple(relabel(f, perm) for f in tup))


def collapse_tuple(tup: OrderedTuple, direction: int, side: str) -> OrderedTuple:
    """Every member restricted to one facet and collapsed alike
    (``restrict_and_collapse``); implication is kept."""
    return OrderedTuple(tuple(restrict_and_collapse(f, direction, side) for f in tup))


def canonical_form(tup: OrderedTuple) -> "tuple[OrderedTuple, tuple[int, ...]]":
    """The canonical member of the tuple's relabeling orbit and a relabeling
    that maps the tuple onto it.

    The canonical member has the lexicographically smallest tuple of truth
    masks over all relabelings, so every member of an orbit has the same one.
    A tuple that is its own canonical member gets the identity and is
    returned as the same object.
    """
    n = tup.n
    masks = list(zip(*(relabel_images(n, f.truth) for f in tup)))
    best = min(range(len(masks)), key=masks.__getitem__)
    perm = permutations(n)[best]
    if best == 0:
        return tup, perm
    return OrderedTuple(tuple(MbfFunction(n, t) for t in masks[best])), perm
