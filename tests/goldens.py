"""Frozen reference data shared across the test suite.

Corner strings follow the library convention: "y1y2y3" reads left-to-right
from the low bit, so "110" is corner index 3 and "001" is index 4.
"""

import hashlib
import itertools
from fractions import Fraction
from pathlib import Path

from mbfreal.boolean_core import MbfFunction, enumerate_mbf_positive, implies


def mbf(n, corners):
    return MbfFunction.from_corners(n, corners)


def brute_force_chains(n, length):
    """Every tuple of ``length`` functions of arity n, in product order, kept
    when each function implies the next: an oracle for ``enumerate_chains``."""
    return [
        chain
        for chain in itertools.product(enumerate_mbf_positive(n), repeat=length)
        if all(implies(a, b) for a, b in zip(chain, chain[1:]))
    ]


# Three-input pair that a product of sums separates but no weighted sum does.
PAIR_NEEDS_PRODUCT = (
    mbf(3, ["101", "011", "111"]),
    mbf(3, ["100", "010", "110", "101", "011", "111"]),
)
# Its known witness: (z1+z2)*z3, low = 1, high = (4, 4, 2), thresholds 9 > 4.5.
# The variant high = (4, 41/10, 2) is equally valid and also accepted.
PAIR_NEEDS_PRODUCT_WITNESS = (
    "(z1+z2)*z3",
    (Fraction(4), Fraction(4), Fraction(2)),
    (Fraction(9), Fraction(9, 2)),
)

# Three-input pair that a sum of products separates but no product of sums does.
PAIR_NEEDS_MIXED = (
    mbf(3, ["110", "111"]),
    mbf(3, ["001", "101", "011", "110", "111"]),
)
# Its known witness: z1*z2+z3, low = 1, high = (3, 31/10, 4), thresholds 9 > 4.5.
PAIR_NEEDS_MIXED_WITNESS = (
    "z1*z2+z3",
    (Fraction(3), Fraction(31, 10), Fraction(4)),
    (Fraction(9), Fraction(9, 2)),
)

# Four-input pair that no sum-of-products-of-sums separates at all; its floor
# in direction 4 is PAIR_NEEDS_MIXED and its ceiling kills the z3 simple term.
PAIR_UNREACHABLE_4 = (
    mbf(4, ["1100", "1110", "1101", "0111", "1111"]),
    mbf(
        4,
        [
            "0010", "1010", "0110", "1001", "0011", "1011",
            "1100", "1110", "1101", "0111", "1111",
        ],
    ),
)

# The 18 three-input pairs that no weighted sum separates jointly.  Each row
# gives the f/g value pairs in the column order 000 001 010 100 110 101 011
# 111, plus the direction(s) in which the facet-comparability test fails.
#
# The reference table's direction column is internally inconsistent for the
# last three rows: row 16 is row 13 under the variable swap y1<->y3 (and 17,
# 18 are 14, 15 under swaps), so the failing directions must map accordingly,
# yet the column repeats y1, y2, y3.  The corrected directions are frozen
# here; PRINTED_DIRECTION_ERRATA records what the source prints, and the
# tests assert those directions do NOT fire.
_COLUMNS = ["000", "001", "010", "100", "110", "101", "011", "111"]

NONSEPARABLE_ROWS = [
    ("00 01 00 01 11 01 01 11", (1,)),
    ("00 00 01 01 01 01 11 11", (2,)),
    ("00 01 01 00 01 11 01 11", (3,)),
    ("00 01 01 00 11 01 01 11", (2,)),
    ("00 01 00 01 01 01 11 11", (3,)),
    ("00 00 01 01 01 11 01 11", (1,)),
    ("00 01 00 00 11 01 01 11", (1, 2)),
    ("00 00 00 01 01 01 11 11", (2, 3)),
    ("00 00 01 00 01 11 01 11", (1, 3)),
    ("00 01 00 01 11 01 11 11", (1, 3)),
    ("00 00 01 01 01 11 11 11", (1, 2)),
    ("00 01 01 00 11 11 01 11", (2, 3)),
    ("00 01 00 00 11 01 11 11", (1,)),
    ("00 00 00 01 01 11 11 11", (2,)),
    ("00 00 01 00 11 11 01 11", (3,)),
    ("00 00 00 01 11 01 11 11", (3,)),
    ("00 00 01 00 01 11 11 11", (1,)),
    ("00 01 00 00 11 11 01 11", (2,)),
]

# 1-based row -> direction printed in the source table that its own row data
# contradicts (the facet-comparability test is satisfied there).
PRINTED_DIRECTION_ERRATA = {16: (1,), 17: (2,), 18: (3,)}


def nonseparable_pairs():
    """The 18 pairs as (f, g, directions) with functions built from the rows."""
    out = []
    for row, directions in NONSEPARABLE_ROWS:
        cells = row.split()
        f_corners = [c for c, fg in zip(_COLUMNS, cells) if fg[0] == "1"]
        g_corners = [c for c, fg in zip(_COLUMNS, cells) if fg[1] == "1"]
        out.append((mbf(3, f_corners), mbf(3, g_corners), directions))
    return out


# Known sum-of-products-of-sums witnesses for the 18 pairs, in row order:
# (structure text, phi(111) highs, theta_g, theta_f); all lows are 1.
REFERENCE_WITNESSES = [
    ("z1*z2+z3", (3, 2, 3), Fraction(7, 2), Fraction(13, 2)),
    ("z1+z2*z3", (3, 3, 2), Fraction(7, 2), Fraction(13, 2)),
    ("z2+z1*z3", (2, 3, 3), Fraction(7, 2), Fraction(13, 2)),
    ("z1*z2+z3", (2, 3, 3), Fraction(7, 2), Fraction(13, 2)),
    ("z1+z2*z3", (3, 2, 3), Fraction(7, 2), Fraction(13, 2)),
    ("z2+z1*z3", (3, 3, 2), Fraction(7, 2), Fraction(13, 2)),
    ("z1*z2+z3", (3, 3, 4), Fraction(9, 2), Fraction(8)),
    ("z1+z2*z3", (4, 3, 3), Fraction(9, 2), Fraction(8)),
    ("z2+z1*z3", (3, 4, 3), Fraction(9, 2), Fraction(8)),
    ("z2*(z1+z3)", (4, 2, 4), Fraction(9, 2), Fraction(9)),
    ("z3*(z1+z2)", (4, 4, 2), Fraction(9, 2), Fraction(9)),
    ("z1*(z2+z3)", (2, 4, 4), Fraction(9, 2), Fraction(9)),
    ("z1*z2+z3", (2, 3, 4), Fraction(9, 2), Fraction(13, 2)),
    ("z1+z2*z3", (4, 2, 3), Fraction(9, 2), Fraction(13, 2)),
    ("z2+z1*z3", (3, 4, 2), Fraction(9, 2), Fraction(13, 2)),
    ("z2*(z1+z3)", (4, 2, 3), Fraction(9, 2), Fraction(15, 2)),
    ("z3*(z1+z2)", (3, 4, 2), Fraction(9, 2), Fraction(15, 2)),
    ("z1*(z2+z3)", (2, 3, 4), Fraction(9, 2), Fraction(15, 2)),
]


# json.dumps(certificate_to_data(...)) of two Farkas certificates, as census
# and realize files hold them: named separation rows [y, j, a, b] of the sum
# decision (z1+z2+z3) for PAIR_NEEDS_PRODUCT, and of PAIR_NEEDS_MIXED under
# (z1+z2)*z3.  In (l, d) coordinates the first sums (d3 - d1) + (d1 - d3) to
# 0 and the second (l3*d2 - l1*d3 - l2*d3 - d1*d3) + (l1*d3 + l2*d3 - l3*d2)
# to -d1*d3.
PAIR_NEEDS_PRODUCT_SUM_CERTIFICATE_JSON = (
    '{"type": "farkas", "rows": [["1", 0, 3, 6], ["1", 1, 4, 1]]}'
)

PAIR_NEEDS_MIXED_MONOMIAL_CERTIFICATE_JSON = (
    '{"type": "farkas", "rows": [["1", 0, 5, 3], ["1", 1, 2, 4]]}'
)

# Every (canonical n=3 pair, product-of-sums or sum-of-products structure)
# that the facet-comparability test blocks, keyed by (f, g, structure) with
# f and g as hex masks, as (direction, p, q): the floor corners of
# ``direction_certificate``, g(p) = 0 < g(q) and f(p + e) = 1 > f(q + e).
# Ten structures expose the direction as a bare factor, ten as a standalone
# summand.
DIRECTION_BLOCKED_N3 = {
    ("88", "f8", "z1+z2+z3"): (1, 2, 4),
    ("88", "f8", "(z1+z3)*z2"): (2, 1, 4),
    ("88", "f8", "z1*(z2+z3)"): (1, 2, 4),
    ("88", "f8", "z1*z2*z3"): (1, 2, 4),
    ("88", "f8", "z1*z3+z2"): (2, 1, 4),
    ("88", "f8", "z1+z2*z3"): (1, 2, 4),
    ("88", "fa", "z1+z2+z3"): (1, 2, 4),
    ("88", "fa", "z1*(z2+z3)"): (1, 2, 4),
    ("88", "fa", "z1*z2*z3"): (1, 2, 4),
    ("88", "fa", "z1+z2*z3"): (1, 2, 4),
    ("a8", "ec", "z1+z2+z3"): (3, 1, 2),
    ("a8", "ec", "(z1+z2)*z3"): (3, 1, 2),
    ("a8", "ec", "z1*z2*z3"): (3, 1, 2),
    ("a8", "ec", "z1*z2+z3"): (3, 1, 2),
    ("a8", "fc", "z1+z2+z3"): (2, 1, 4),
    ("a8", "fc", "(z1+z2)*z3"): (3, 1, 2),
    ("a8", "fc", "(z1+z3)*z2"): (2, 1, 4),
    ("a8", "fc", "z1*z2*z3"): (2, 1, 4),
    ("a8", "fc", "z1*z2+z3"): (3, 1, 2),
    ("a8", "fc", "z1*z3+z2"): (2, 1, 4),
}

# The pairs of the products-n4 benchmark workload, as (f, g) hex masks on
# four inputs.
PRODUCTS_N4_PAIRS = (
    ("8880", "f8a8"), ("8080", "a8a8"), ("a888", "ece8"), ("8880", "e8e0"),
    ("e8e8", "fee8"), ("eaa8", "fffc"), ("e888", "e8e8"), ("a880", "eaa8"),
    ("8080", "feee"), ("0000", "ffff"), ("e8a8", "fefc"), ("0000", "8080"),
    ("e8e8", "eaea"), ("a880", "fce8"), ("feea", "feea"), ("a8a8", "feee"),
    ("8000", "8080"), ("0000", "eeea"), ("0000", "feee"), ("eaea", "feea"),
    ("0000", "aaaa"), ("a880", "ecc8"), ("e8a8", "eeee"),
)

# witness_to_text of the grid-search witnesses of three four-input decisions,
# keyed by (f, g, class): the first point in grid order of the first
# structure that no certificate blocks.
FOUR_INPUT_SEARCH_WITNESSES = {
    ("8880", "f8a8", "sigmapisigma"): (
        "tuple: mbf:4:8880 mbf:4:f8a8\n"
        "structure: (z1+z4)*z2+z3\n"
        "low: 1 1 1 1\n"
        "high: 31/10 3/2 4 3\n"
        "thresholds: 81/8 57/8\n"
    ),
    ("8880", "e8e0", "pisigma"): (
        "tuple: mbf:4:8880 mbf:4:e8e0\n"
        "structure: (z1+z2)*(z3+z4)\n"
        "low: 1 1 1 1\n"
        "high: 4 4 31/10 3\n"
        "thresholds: 125/4 81/4\n"
    ),
    ("e8a8", "fefc", "pisigma"): (
        "tuple: mbf:4:e8a8 mbf:4:fefc\n"
        "structure: (z1+z4)*(z2+z3)\n"
        "low: 1 1 1 1\n"
        "high: 3 31/10 31/10 3/2\n"
        "thresholds: 279/20 81/10\n"
    ),
}

# The open structures of two single four-input functions in the product of
# sums, in enumeration order, as deciding each function directly listed
# them.  Both are non-canonical members of the orbit of eac0, whose 13
# structures neither a certificate nor the grid search decides.
PISIGMA_OPEN_STRUCTURES = {
    "f888": (
        "(z1+z2+z3)*z4", "(z1+z2+z4)*z3", "(z1+z3)*(z2+z4)", "(z1+z3+z4)*z2",
        "(z1+z4)*(z2+z3)", "z1*(z2+z3+z4)", "(z1+z2)*z3*z4", "(z1+z3)*z2*z4",
        "(z1+z4)*z2*z3", "z1*(z2+z3)*z4", "z1*(z2+z4)*z3", "z1*z2*(z3+z4)",
        "z1*z2*z3*z4",
    ),
    "eca0": (
        "(z1+z2)*(z3+z4)", "(z1+z2+z3)*z4", "(z1+z2+z4)*z3", "(z1+z3+z4)*z2",
        "(z1+z4)*(z2+z3)", "z1*(z2+z3+z4)", "(z1+z2)*z3*z4", "(z1+z3)*z2*z4",
        "(z1+z4)*z2*z3", "z1*(z2+z3)*z4", "z1*(z2+z4)*z3", "z1*z2*(z3+z4)",
        "z1*z2*z3*z4",
    ),
}


def census_digest(root) -> "tuple[int, str]":
    """The number of files under a census directory and one SHA-256 over
    them all: per file, in sorted order of relative path, that path, a NUL,
    the file's bytes and a NUL."""
    root = Path(root)
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for name, path in files:
        digest.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return len(files), digest.hexdigest()


# ``mbfreal census --n 3`` (all four classes): every result, witness and
# certificate file, census.csv and config.json, as census_digest reads them.
# A change that alters any census file changes this.
CENSUS_N3_DIGEST = (1347, "728d6cd2bed904b15a34fa04e4af471b04f4cb1e84e214acc949399116a722af")
