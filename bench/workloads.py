"""The benchmark's four workloads.

Each workload makes its inputs from a seed, runs one timed pass over them
through mbfreal's public API or CLI, and checks what the pass returned.  An
item is one ``check_class`` call; the next starts when the previous one
returns, in one process with no threads.

Calls into mbfreal go through module attributes (``realizability.check_class``
rather than a name imported once), so a traced run sees the wrappers that
``spans.Tracer`` installs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from mbfreal import boolean_core, cli, ksystem, paramgraph, realizability
from mbfreal.boolean_core import MbfFunction, OrderedTuple
from mbfreal.realizability import (
    NOT_REALIZABLE,
    REALIZABLE,
    UNKNOWN,
    KWitness,
    WitnessError,
)
from speed import clock

FROZEN = json.loads((Path(__file__).with_name("frozen.json")).read_text())

CLASS_CHAIN = ("sigma", "pisigma", "sigmapisigma", "k")


@dataclass
class Decision:
    """One check_class call: its input, how long it took and what it returned."""

    tup: OrderedTuple
    class_tag: str
    seconds: float
    verdict: object = None
    error: "str | None" = None
    start: float = 0.0  # speed.clock() when the call began

    @property
    def label(self) -> str:
        return " ".join(f.to_hex() for f in self.tup) + " " + self.class_tag


@dataclass
class Pass:
    """What one timed pass over a workload's inputs produced."""

    wall_s: float
    decisions: "list[Decision]"
    extra: dict = field(default_factory=dict)


def _decide(tup: OrderedTuple, class_tag: str, log: "list[Decision]") -> None:
    start = clock()
    try:
        verdict = realizability.check_class(tup, class_tag)
    except Exception as exc:  # a raising decision is counted as failed, not fatal
        log.append(Decision(tup, class_tag, clock() - start, error=repr(exc), start=start))
        return
    log.append(Decision(tup, class_tag, clock() - start, verdict, start=start))


@contextlib.contextmanager
def recording(module, log: "list[Decision]"):
    """Time every check_class call that ``module`` makes by name."""
    inner = module.check_class

    def timed(tup, class_tag, *args, **kwargs):
        start = clock()
        try:
            verdict = inner(tup, class_tag, *args, **kwargs)
        except Exception as exc:
            log.append(Decision(tup, class_tag, clock() - start, error=repr(exc), start=start))
            raise
        log.append(Decision(tup, class_tag, clock() - start, verdict, start=start))
        return verdict

    module.check_class = timed
    try:
        yield
    finally:
        module.check_class = inner


# ---------------------------------------------------------------- replay checks

def replay(d: Decision) -> "str | None":
    """Why a decision failed, or None: it raised, its witness does not verify,
    or its certificate does not replay."""
    if d.error is not None:
        return f"{d.label}: raised {d.error}"
    status = d.verdict.status
    try:
        if status == REALIZABLE:
            w = d.verdict.witness
            ok = (
                realizability.verify_k_witness(d.tup, w)
                if isinstance(w, KWitness)
                else realizability.verify_witness(d.tup, w)
            )
            return None if ok else f"{d.label}: witness does not verify"
        if status == NOT_REALIZABLE:
            ok = realizability.replay_certificate(d.tup, None, d.verdict.certificate)
            return None if ok else f"{d.label}: certificate does not replay"
    except (WitnessError, ValueError) as exc:
        return f"{d.label}: replay raised {exc!r}"
    if status != UNKNOWN:
        return f"{d.label}: unexpected status {status!r}"
    return None


def contradicts(a: str, b: str) -> bool:
    return {a, b} == {REALIZABLE, NOT_REALIZABLE}


def nesting_failures(statuses: "dict[tuple, dict[str, str]]") -> "list[str]":
    """Per tuple, a class realizing it while a larger class is proven not to."""
    out = []
    for key, by_class in statuses.items():
        chain = [by_class[c] for c in CLASS_CHAIN if c in by_class]
        for lo, hi in itertools.combinations(chain, 2):
            if lo == REALIZABLE and hi == NOT_REALIZABLE:
                out.append(f"{key}: class nesting broken {by_class}")
                break
    return out


def _status_table(decisions) -> "dict[tuple, dict[str, str]]":
    table: "dict[tuple, dict[str, str]]" = {}
    for d in decisions:
        if d.verdict is not None:
            key = tuple(f.to_hex() for f in d.tup)
            table.setdefault(key, {})[d.class_tag] = d.verdict.status
    return table


# ---------------------------------------------------------------- orbits

def relabel_tables(n: int):
    """Per permutation of the n variables, byte lookup tables mapping a truth
    mask to the mask of the relabeled function (images of disjoint corner
    sets are disjoint, so the bytes combine by OR)."""
    corners = 1 << n
    nbytes = (corners + 7) // 8
    tables = []
    for perm in itertools.permutations(range(n)):
        image = [sum(1 << perm[i] for i in range(n) if v >> i & 1) for v in range(corners)]
        per_byte = []
        for b in range(nbytes):
            table = []
            for value in range(256):
                mask = 0
                for bit in range(8):
                    if value >> bit & 1 and 8 * b + bit < corners:
                        mask |= 1 << image[8 * b + bit]
                table.append(mask)
            per_byte.append(table)
        tables.append(per_byte)
    return tables


def _apply(truth: int, per_byte) -> int:
    out = 0
    for b, table in enumerate(per_byte):
        out |= table[truth >> (8 * b) & 0xFF]
    return out


def orbits(n: int) -> "dict[tuple[int, int], list[tuple[int, int]]]":
    """Ordered pairs of arity n grouped by variable relabeling, keyed by the
    smallest (f, g) mask pair of each orbit; members in enumeration order."""
    tables = relabel_tables(n)
    out: "dict[tuple[int, int], list[tuple[int, int]]]" = {}
    for f, g in boolean_core.enumerate_ordered_pairs(n):
        key = min((_apply(f.truth, t), _apply(g.truth, t)) for t in tables)
        out.setdefault(key, []).append((f.truth, g.truth))
    return out


def _pair(n: int, f: int, g: int) -> OrderedTuple:
    return OrderedTuple((MbfFunction(n, f), MbfFunction(n, g)))


def _key_text(key) -> str:
    return f"{key[0]:04x},{key[1]:04x}"


# ---------------------------------------------------------------- workloads

class CensusN3:
    """``mbfreal census --n 3`` over every class, through ``cli.main``."""

    name = "census-n3"
    setup = "mbfreal.enumerate_ordered_pairs(3)"
    counts = {
        "sigma": (150, 18, 0),
        "pisigma": (165, 3, 0),
        "sigmapisigma": (168, 0, 0),
        "k": (168, 0, 0),
    }
    files = 1347

    def generate(self, seed: int) -> dict:
        classes = list(CLASS_CHAIN)
        random.Random(seed).shuffle(classes)
        return {"classes": classes}

    def run(self, inputs: dict, scratch: Path) -> Pass:
        out = scratch / f"census-{time.monotonic_ns()}"
        argv = ["census", "--n", "3", "--classes", ",".join(inputs["classes"]), "--out", str(out)]
        log: "list[Decision]" = []
        stdout = io.StringIO()
        with recording(cli, log), contextlib.redirect_stdout(stdout):
            start = clock()
            try:
                code = cli.main(argv)
            except Exception as exc:  # reported by check, like a non-zero exit
                code = repr(exc)
            wall = clock() - start
        files = [p for p in out.rglob("*") if p.is_file()]
        extra = {
            "exit_code": code,
            "csv": (out / "census.csv").read_text() if code == 0 else "",
            "files": len(files),
            "bytes": sum(p.stat().st_size for p in files),
        }
        shutil.rmtree(out)
        return Pass(wall, log, extra)

    def check(self, inputs: dict, p: Pass) -> "list[str]":
        if p.extra["exit_code"] != 0:
            return [f"census exited with code {p.extra['exit_code']}"]
        problems = []
        rows = p.extra["csv"].splitlines()[1:]
        counts = {c: {REALIZABLE: 0, NOT_REALIZABLE: 0, UNKNOWN: 0} for c in inputs["classes"]}
        for row in rows:
            cells = row.split(",")
            counts[cells[3]][cells[4]] += 1
        report = cli.CensusReport(3, 168, tuple(inputs["classes"]), counts, tuple(rows))
        try:
            report.check_invariants()
        except AssertionError as exc:
            problems.append(f"census report: {exc}")
        for c, (r, nr, u) in self.counts.items():
            got = counts[c]
            if (got[REALIZABLE], got[NOT_REALIZABLE], got[UNKNOWN]) != (r, nr, u):
                problems.append(f"{c} counts {got} differ from frozen {(r, nr, u)}")
        if p.extra["files"] != self.files:
            problems.append(f"census wrote {p.extra['files']} files, expected {self.files}")
        logged = Counter((d.class_tag, d.verdict.status) for d in p.decisions if d.verdict)
        for c in inputs["classes"]:
            for status in (REALIZABLE, NOT_REALIZABLE, UNKNOWN):
                if logged[(c, status)] != counts[c][status]:
                    problems.append(f"{c} {status}: census.csv disagrees with the verdicts returned")
        return problems + nesting_failures(_status_table(p.decisions))


class SigmaN4:
    """One member of each of the 620 relabeling orbits of n=4 pairs, in sigma.

    The member is the orbit's smallest pair and the seed orders the
    decisions.  Relabeling changes a Fourier-Motzkin blow-up's cost by up to
    a third, so a seeded member per orbit would move wall_s and
    decision_max_ms between seeds by more than their bounds.
    """

    name = "sigma-n4"
    setup = "mbfreal.enumerate_ordered_pairs(4)"
    orbit_count = 620
    realizable_orbits = 335
    realizable_pairs = 3287  # A000617(5): positive threshold functions of 5 variables

    def generate(self, seed: int) -> dict:
        groups = orbits(4)
        keys = sorted(groups)
        random.Random(seed).shuffle(keys)
        return {
            "keys": keys,
            "sizes": {k: len(groups[k]) for k in keys},
            "tuples": [_pair(4, *k) for k in keys],
        }

    def run(self, inputs: dict, scratch: Path) -> Pass:
        log: "list[Decision]" = []
        start = clock()
        for tup in inputs["tuples"]:
            _decide(tup, "sigma", log)
        return Pass(clock() - start, log)

    def check(self, inputs: dict, p: Pass) -> "list[str]":
        frozen = set(FROZEN["sigma_n4_realizable"])
        problems = []
        if len(inputs["keys"]) != self.orbit_count:
            problems.append(f"{len(inputs['keys'])} orbits, expected {self.orbit_count}")
        weighted = orbits_realizable = 0
        for key, d in zip(inputs["keys"], p.decisions):
            if d.verdict is None:
                continue
            expected = REALIZABLE if _key_text(key) in frozen else NOT_REALIZABLE
            if contradicts(d.verdict.status, expected) or d.verdict.status == UNKNOWN:
                problems.append(f"{d.label}: {d.verdict.status}, frozen {expected}")
            if d.verdict.is_realizable:
                orbits_realizable += 1
                weighted += inputs["sizes"][key]
        if (orbits_realizable, weighted) != (self.realizable_orbits, self.realizable_pairs):
            problems.append(
                f"{orbits_realizable} realizable orbits covering {weighted} pairs, expected "
                f"{self.realizable_orbits} covering {self.realizable_pairs}"
            )
        return problems


class ProductsN4:
    """23 fixed n=4 pairs, each decided in pisigma and then sigmapisigma.

    The pairs are the smallest members of the first 30 orbits of a one-time
    seeded draw from the 620, less the 7 whose two decisions took over 2 s
    together (5 of them did not finish within 4 s per class).  Relabeling
    one of these pairs changes its grid-search cost up to thirtyfold, so the
    seed orders the pairs and does not pick them.
    """

    name = "products-n4"
    setup = "mbfreal.enumerate_ordered_pairs(4)"
    classes = ("pisigma", "sigmapisigma")

    def generate(self, seed: int) -> dict:
        rows = list(FROZEN["products_n4"])
        random.Random(seed).shuffle(rows)
        return {
            "tuples": [_pair(4, *(int(x, 16) for x in key.split(","))) for key, *_ in rows],
            "frozen": [dict(zip(self.classes, statuses)) for _, *statuses in rows],
        }

    def run(self, inputs: dict, scratch: Path) -> Pass:
        log: "list[Decision]" = []
        start = clock()
        for tup in inputs["tuples"]:
            for c in self.classes:
                _decide(tup, c, log)
        return Pass(clock() - start, log)

    def check(self, inputs: dict, p: Pass) -> "list[str]":
        problems = []
        sigma = set(FROZEN["sigma_n4_realizable"])
        table = _status_table(p.decisions)
        for tup, frozen in zip(inputs["tuples"], inputs["frozen"]):
            key = tuple(f.to_hex() for f in tup)
            got = table.setdefault(key, {})
            for c, expected in frozen.items():
                if c in got and contradicts(got[c], expected):
                    problems.append(f"{key} {c}: {got[c]}, frozen {expected}")
            masks = _key_text((tup[0].truth, tup[1].truth))
            got["sigma"] = REALIZABLE if masks in sigma else NOT_REALIZABLE
        return problems + nesting_failures(table)


def example_network() -> "ksystem.WeightedRegulatoryNetwork":
    """Three nodes with unit decay; node 1 regulates itself and both others."""
    E = ksystem.Edge
    return ksystem.WeightedRegulatoryNetwork(
        nodes=(("1", Fraction(1)), ("2", Fraction(1)), ("3", Fraction(1))),
        edges=(
            E("1", "1", "+", Fraction(3)),
            E("1", "2", "+", Fraction(2)),
            E("1", "3", "+", Fraction(1)),
            E("2", "1", "-", Fraction(3, 2)),
            E("3", "1", "+", Fraction(5, 2)),
        ),
    )


class Network:
    """Parameter graph of ``example_network``, its pisigma annotation, and a
    state transition graph and K round trip for every product vertex."""

    name = "network"
    setup = "mbfreal.build_factor(3, 3)"
    vertices = 7983
    edges = 38400
    statuses = {REALIZABLE: 7686, NOT_REALIZABLE: 297, UNKNOWN: 0}
    stg_states = 127728
    stg_edges = 224695

    def generate(self, seed: int) -> dict:
        return {"net": example_network(), "seed": seed}

    def run(self, inputs: dict, scratch: Path) -> Pass:
        net = inputs["net"]
        log: "list[Decision]" = []
        states = edges = mismatched = 0
        extra = {"vertices": 0, "edges": 0, "statuses": Counter(), "error": None}
        with recording(paramgraph, log):
            start = clock()
            try:
                pg = paramgraph.build_parameter_graph(net)
                extra.update(vertices=len(pg.vertices), edges=len(pg.edges))
                _, statuses = paramgraph.annotate_realizability(pg, "pisigma")
                extra["statuses"] = Counter(statuses)
                order = list(range(len(pg.vertices)))
                random.Random(inputs["seed"]).shuffle(order)
                for pos in order:
                    assignment = {
                        name: OrderedTuple(factor.vertices[i])
                        for name, factor, i in zip(pg.node_names, pg.factors, pg.vertices[pos])
                    }
                    canon_net, k = ksystem.mbfs_to_k(net, assignment)
                    stg = ksystem.build_stg(ksystem.phi_k(canon_net, k))
                    back = ksystem.k_to_mbfs(canon_net, k)
                    states += len(stg.states)
                    edges += len(stg.edges)
                    if {name: nf.functions for name, nf in back.items()} != assignment:
                        mismatched += 1
            except Exception as exc:  # reported by check; a raising decision is also in log
                extra["error"] = repr(exc)
            wall = clock() - start
        extra.update(stg_states=states, stg_edges=edges, mismatched=mismatched)
        return Pass(wall, log, extra)

    def check(self, inputs: dict, p: Pass) -> "list[str]":
        x = p.extra
        problems = [f"network pass raised {x['error']}"] if x["error"] else []
        if x["mismatched"]:
            problems.append(f"{x['mismatched']} vertices failed the K round trip")
        for what, got, expected in (
            ("vertices", x["vertices"], self.vertices),
            ("edges", x["edges"], self.edges),
            ("STG states", x["stg_states"], self.stg_states),
            ("STG edges", x["stg_edges"], self.stg_edges),
        ):
            if got != expected:
                problems.append(f"{what}: {got}, frozen {expected}")
        for status, expected in self.statuses.items():
            if x["statuses"][status] != expected:
                problems.append(f"{status} vertices: {x['statuses'][status]}, frozen {expected}")
        return problems


WORKLOADS = {w.name: w for w in (CensusN3(), SigmaN4(), ProductsN4(), Network())}
