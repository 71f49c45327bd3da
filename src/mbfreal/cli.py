"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 state error
(an output directory holding results from a different configuration).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .boolean_core import (
    ArityError,
    MbfFunction,
    OrderedTuple,
    canonical_form,
    enumerate_mbf_positive,
    enumerate_ordered_pairs,
    implies,
)
from .interaction import CLASS_TAGS, KCLASS
from .ksystem import (
    DegenerateKError,
    NetworkError,
    build_stg,
    k_from_json,
    network_from_json,
    phi_k,
    stg_to_dot,
    validate_k,
)
from .paramgraph import (
    annotate_realizability,
    build_parameter_graph,
    factor_to_dot,
    pg_to_dot,
    pg_to_json,
    vertex_table_csv,
)
from .realizability import (
    NOT_REALIZABLE,
    REALIZABLE,
    UNKNOWN,
    KWitness,
    WitnessError,
    certificate_to_data,
    check_class,
    verify_k_witness,
    verify_witness,
    witness_from_text,
    witness_to_text,
)

CENSUS_CLASSES = list(CLASS_TAGS) + [KCLASS]
CSV_HEADER = "pair_index,f_hex,g_hex,class,verdict,witness_path,certificate_path"
# the certificate file format, kept in config.json: a Farkas certificate holds
# named separation rows (y, m, j, a, b), m an (l, d) monomial, and a facet's
# refutation is such rows lifted onto the structure; a config.json with
# another tag or none belongs to files in an older form, so that directory
# is another configuration
CERTIFICATE_FORMAT = "lifted-rows"


@dataclass(frozen=True)
class CensusReport:
    """Counts and per-pair rows of one census run."""

    n: int
    total_pairs: int
    classes: "tuple[str, ...]"
    counts: "dict[str, dict[str, int]]"
    rows: "tuple[str, ...]"

    def check_invariants(self) -> None:
        for c in self.classes:
            k = self.counts[c]
            if k[REALIZABLE] + k[NOT_REALIZABLE] + k[UNKNOWN] != self.total_pairs:
                raise AssertionError(f"{c} counts do not add up to {self.total_pairs}")
        # realizable counts may only grow along the class chain
        chain = [c for c in (*CLASS_TAGS, KCLASS) if c in self.classes]
        for lo, hi in zip(chain, chain[1:]):
            if self.counts[lo][REALIZABLE] > self.counts[hi][REALIZABLE]:
                raise AssertionError(
                    f"{lo} realizes more pairs than {hi}, violating class nesting"
                )

    def summary_lines(self) -> "list[str]":
        lines = [f"pairs: {self.total_pairs}"]
        for c in sorted(self.classes):
            k = self.counts[c]
            lines.append(
                f"{c}: realizable={k[REALIZABLE]} not_realizable={k[NOT_REALIZABLE]} "
                f"unknown={k[UNKNOWN]}"
            )
        return lines


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArityError, NetworkError, DegenerateKError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbfreal",
        description="monotone Boolean function realizability toolkit",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("enumerate", help="count and list monotone functions or pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pairs", action="store_true")
    p.add_argument("--quiet", action="store_true", help="print the count only")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("census", help="realizability census over all ordered pairs")
    p.add_argument("--n", type=int, required=True, choices=(3, 4))
    p.add_argument("--classes", default="sigma,pisigma,sigmapisigma,k")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPU count")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("realize", help="decide one pair in one class")
    p.add_argument("--pair", nargs=2, required=True, metavar=("F_HEX", "G_HEX"))
    p.add_argument("--class", dest="class_tag", required=True, choices=CENSUS_CLASSES)
    p.add_argument("--out", default=None, help="witness file path (written when realizable)")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify", help="replay a witness file")
    p.add_argument("--witness", required=True)
    p.add_argument("--pair", nargs=2, default=None, metavar=("F_HEX", "G_HEX"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stg", help="state transition graph of a network and K")
    p.add_argument("--net", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stg)

    p = sub.add_parser("pg", help="parameter graph of a network")
    p.add_argument("--net", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--annotate", default=None, choices=CENSUS_CLASSES)
    p.set_defaults(func=cmd_pg)
    return parser


# ---------------------------------------------------------------- enumerate

def cmd_enumerate(args) -> int:
    if args.pairs:
        pairs = enumerate_ordered_pairs(args.n)
        print(len(pairs))
        if not args.quiet:
            for f, g in pairs:
                print(f.to_hex(), g.to_hex())
    else:
        funcs = enumerate_mbf_positive(args.n)
        print(len(funcs))
        if not args.quiet:
            for f in funcs:
                print(f.to_hex())
    return 0


# ---------------------------------------------------------------- census

def _census_row(cell, status: str) -> str:
    """The CSV row of a decided (index, f_hex, g_hex, class) cell; its
    witness or certificate file is named after the class and the index."""
    index, f_hex, g_hex, class_tag = cell
    stem = f"{class_tag}_{index:05d}"
    witness_path = f"witnesses/{stem}.txt" if status == REALIZABLE else ""
    certificate_path = f"certificates/{stem}.json" if status == NOT_REALIZABLE else ""
    return ",".join([str(index), f_hex, g_hex, class_tag, status, witness_path, certificate_path])


def _cached_row(path: Path, cell) -> "str | None":
    """The CSV row a results file holds for ``cell``; None when the file is
    missing, does not parse as {"row": str}, as a run cut off mid-write
    leaves it, or holds a row that deciding this cell does not write (another
    cell's, or an unknown verdict)."""
    try:
        row = json.loads(path.read_text())["row"]
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None
    valid = [_census_row(cell, status) for status in (REALIZABLE, NOT_REALIZABLE, UNKNOWN)]
    return row if row in valid else None


def _write_atomic(path: Path, text: str) -> None:
    """Write a temporary file in the same directory, then rename it into
    place, so that a run cut off mid-write never leaves a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _census_task(task, decided):
    """Decide one (class, pair) cell and write its files; returns the CSV row.

    ``decided`` holds the canonical decisions of the task list this task
    belongs to: the whole census in one process, or one orbit in a worker
    (see ``check_class``).
    """
    out_dir, class_tag, index, f_hex, g_hex = task
    out = Path(out_dir)
    cell = (index, f_hex, g_hex, class_tag)
    result_path = out / "results" / f"{class_tag}_{index:05d}.json"
    cached = _cached_row(result_path, cell)
    if cached is not None:
        return cached
    tup = OrderedTuple((MbfFunction.from_hex(f_hex), MbfFunction.from_hex(g_hex)))
    verdict = check_class(tup, class_tag, decided=decided)
    row = _census_row(cell, verdict.status)
    witness_path, certificate_path = row.split(",")[5:]
    if witness_path:
        _write_atomic(out / witness_path, witness_to_text(tup, verdict.witness))
    if certificate_path:
        _write_atomic(
            out / certificate_path,
            json.dumps(certificate_to_data(verdict.certificate), indent=1) + "\n",
        )
    _write_atomic(result_path, json.dumps({"row": row}) + "\n")
    return row


def _run_tasks(tasks):
    """The CSV rows of the tasks, decided in order with one dict of their own."""
    decided = {}
    return [_census_task(t, decided) for t in tasks]


def _orbits(tasks: list, pairs: list) -> "list[list]":
    """The tasks grouped by the relabeling orbit of their pair, in task order:
    one list per canonical pair (``canonical_form``, computed once per pair),
    holding the tasks of every class for every member of that orbit."""
    canon = [canonical_form(OrderedTuple(pair))[0] for pair in pairs]
    orbits = {}
    for task in tasks:
        orbits.setdefault(canon[task[2]], []).append(task)
    return list(orbits.values())


def cmd_census(args) -> int:
    classes = [c for c in args.classes.split(",") if c]
    if not classes:
        print(f"error: no class in {args.classes!r}", file=sys.stderr)
        return 2
    for c in classes:
        if c not in CENSUS_CLASSES:
            print(f"error: unknown class {c!r}", file=sys.stderr)
            return 2
    if len(set(classes)) != len(classes):
        print(f"error: repeated class in {args.classes!r}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    out = Path(args.out)
    config = {"n": args.n, "classes": sorted(classes), "certificates": CERTIFICATE_FORMAT}
    config_path = out / "config.json"
    if config_path.exists():
        try:
            existing = json.loads(config_path.read_text())
        except ValueError as exc:
            print(
                f"error: {config_path} does not parse ({exc}); refusing to mix results",
                file=sys.stderr,
            )
            return 3
        if existing != config:
            print(
                f"error: {out} holds a census for a different configuration "
                f"({existing}); refusing to mix results",
                file=sys.stderr,
            )
            return 3
    for sub in ("results", "witnesses", "certificates"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    _write_atomic(config_path, json.dumps(config) + "\n")

    pairs = enumerate_ordered_pairs(args.n)
    tasks = [
        (str(out), class_tag, index, f.to_hex(), g.to_hex())
        for class_tag in classes
        for index, (f, g) in enumerate(pairs)
    ]
    # never more workers than jobs, than CPUs (an unknown count is one) or
    # than orbits; one worker decides every task in order with one dict
    workers = min(args.jobs, os.cpu_count() or 1)
    if workers == 1:
        rows = _run_tasks(tasks)
    else:
        orbits = _orbits(tasks, pairs)
        with multiprocessing.Pool(min(workers, len(orbits))) as pool:
            rows = [row for orbit in pool.map(_run_tasks, orbits, chunksize=1) for row in orbit]
    rows.sort(key=lambda r: (r.split(",")[3], int(r.split(",")[0])))
    _write_atomic(out / "census.csv", CSV_HEADER + "\n" + "\n".join(rows) + "\n")

    counts = {c: {REALIZABLE: 0, NOT_REALIZABLE: 0, UNKNOWN: 0} for c in classes}
    for row in rows:
        cells = row.split(",")
        counts[cells[3]][cells[4]] += 1
    report = CensusReport(args.n, len(pairs), tuple(classes), counts, tuple(rows))
    report.check_invariants()
    lines = report.summary_lines()
    for line in lines[1:]:
        print(line)
    _write_atomic(out / "summary.txt", "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------- realize / verify

def cmd_realize(args) -> int:
    f = MbfFunction.from_hex(args.pair[0])
    g = MbfFunction.from_hex(args.pair[1])
    if not implies(f, g):
        print("error: f does not imply g", file=sys.stderr)
        return 2
    tup = OrderedTuple((f, g))
    verdict = check_class(tup, args.class_tag)
    print(verdict.status)
    if verdict.status == REALIZABLE:
        path = Path(args.out) if args.out else Path(f"witness_{args.class_tag}.txt")
        path.write_text(witness_to_text(tup, verdict.witness))
        print(f"witness written to {path}")
    elif verdict.status == NOT_REALIZABLE:
        path = Path(args.out) if args.out else Path(f"certificate_{args.class_tag}.json")
        path.write_text(json.dumps(certificate_to_data(verdict.certificate), indent=1) + "\n")
        print(f"certificate written to {path}")
    else:
        print("structures left undecided: " + ", ".join(verdict.diagnostics))
    return 0


def cmd_verify(args) -> int:
    text = Path(args.witness).read_text()
    try:
        tup, witness = witness_from_text(text)
    except (ValueError, KeyError) as exc:
        # a parseable-but-invalid witness is a failed verification, not an
        # input error: corrupted files must exit 1
        print(f"invalid witness: {exc}", file=sys.stderr)
        return 1
    if args.pair is not None:
        expected = tuple(MbfFunction.from_hex(h) for h in args.pair)
        if tuple(tup) != expected:
            print("error: witness file tuple does not match --pair", file=sys.stderr)
            return 2
    try:
        if isinstance(witness, KWitness):
            ok = verify_k_witness(tup, witness)
        else:
            ok = verify_witness(tup, witness)
    except WitnessError as exc:
        print(f"invalid witness: {exc}", file=sys.stderr)
        return 1
    print("ok" if ok else "verification failed")
    return 0 if ok else 1


# ---------------------------------------------------------------- stg / pg

def cmd_stg(args) -> int:
    net = network_from_json(Path(args.net).read_text())
    k = k_from_json(Path(args.k).read_text(), net)
    violations = validate_k(net, k)
    if violations:
        for v in violations:
            print(f"monotonicity violation: {v}", file=sys.stderr)
        return 2
    stg = build_stg(phi_k(net, k))
    Path(args.out).write_text(stg_to_dot(stg))
    print(f"{len(stg.states)} states, {len(stg.edges)} edges")
    return 0


def cmd_pg(args) -> int:
    net = network_from_json(Path(args.net).read_text())
    pg = build_parameter_graph(net)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "parameter_graph.dot").write_text(pg_to_dot(pg))
    (out / "parameter_graph.json").write_text(pg_to_json(pg))
    for i, factor in enumerate(pg.factors):
        (out / f"factor_{pg.node_names[i]}.dot").write_text(factor_to_dot(factor))
    annotations = {}
    if args.annotate:
        _, statuses = annotate_realizability(pg, args.annotate)
        annotations[args.annotate] = statuses
    (out / "vertices.csv").write_text(vertex_table_csv(pg, annotations or None))
    print(f"{len(pg.vertices)} vertices")
    return 0


if __name__ == "__main__":
    sys.exit(main())
