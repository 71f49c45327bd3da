"""Benchmark for mbfreal: decision latency over four closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload census-n3 --seed 1 --seconds 10 --trace 0

A run measures set-up in fresh interpreters, then starts timed passes of the
workload one after another, each in a fresh interpreter (``one_pass.py``),
until ``--seconds`` of pass time has been spent (always at least one pass).
Every time is scaled by the machine's speed, measured while the pass runs
(``speed.py``).  Each pass replays its decisions outside the timed region.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics and the tracing
overhead, prints the ten slowest decisions with their per-layer self times,
and writes the spans and that list under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 7
PASS_TIMEOUT_S = 175

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "decision_max_ms": "ms",
    "decided_frac": "ratio",
    "verified_frac": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; names follow the traced function, except that the
# span of cli.main is reported as cli.census
PER_LAYER = {
    "linear.solve.calls": "count",
    "linear.solve.self_s": "s",
    "linear.solve.max_ms": "ms",
    "linear.solve.rows_in": "count",
    "linear.solve.infeasible": "count",
    "interaction.corner_table.calls": "count",
    "interaction.corner_table.self_s": "s",
    "realizability.search_witness.calls": "count",
    "realizability.search_witness.self_s": "s",
    "realizability.search_witness.found": "count",
    "realizability.search_witness.points": "count",
    "realizability.check_class.calls": "count",
    "realizability.check_sigma.calls": "count",
    "realizability.check_sigma.self_s": "s",
    "realizability.monomial_certificate.calls": "count",
    "realizability.monomial_certificate.self_s": "s",
    "realizability.monomial_certificate.found": "count",
    "realizability.necessary_condition.calls": "count",
    "realizability.necessary_condition.found": "count",
    "realizability.verify_witness.calls": "count",
    "realizability.verify_witness.self_s": "s",
    "interaction.enumerate_structures.calls": "count",
    "interaction.enumerate_structures.self_s": "s",
    "boolean_core.restrict_and_collapse.calls": "count",
    "boolean_core.restrict_and_collapse.self_s": "s",
    "boolean_core.enumerate_ordered_pairs.self_s": "s",
    "ksystem.mbfs_to_k.self_s": "s",
    "ksystem.phi_k.calls": "count",
    "ksystem.phi_k.self_s": "s",
    "ksystem.build_stg.self_s": "s",
    "ksystem.build_stg.states": "count",
    "ksystem.build_stg.edges": "count",
    "ksystem.k_to_mbfs.self_s": "s",
    "paramgraph.build_parameter_graph.self_s": "s",
    "paramgraph.build_parameter_graph.vertices": "count",
    "paramgraph.build_parameter_graph.edges": "count",
    "paramgraph.annotate_realizability.self_s": "s",
    "cli.census.self_s": "s",
    "cli.census.files": "count",
    "cli.census.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

# Runs in a fresh interpreter: import mbfreal and make the workload's first
# enumeration, then run reference chunks to scale the time by the machine's
# speed.  With a trace argument it reports the enumeration's spans instead.
SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mbfreal
if len(sys.argv) > 3:
    sys.path.insert(0, sys.argv[2])
    from spans import Tracer, layer_metrics
    with Tracer() as tracer:
        {call}
    print(json.dumps(layer_metrics(tracer.spans)))
else:
    {call}
    setup = time.perf_counter() - start
    sys.path.insert(0, sys.argv[2])
    import speed
    print(setup * speed.burst_factor())
"""


def probe_setup(call: str, traced: bool = False) -> str:
    argv = [sys.executable, "-c", SETUP_PROBE.format(call=call), str(SRC), str(BENCH)]
    if traced:
        argv.append("trace")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten decisions beyond it."""
    return max(50, min(99, math.floor(100 * (1 - 10 / n)))) if n else 50


def percentile(values, p: float) -> float:
    """Linear interpolation between the order statistics around rank p."""
    ordered = sorted(values)
    pos = p / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    argv = [sys.executable, str(BENCH / "one_pass.py"), workload, str(seed), str(int(traced))]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} pass failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(passes, setup_s: float) -> "tuple[dict, str]":
    """End-to-end metrics from untraced passes over the same inputs."""
    labels = [d[0] for d in passes[0]["decisions"]]
    if any([d[0] for d in p["decisions"]] != labels for p in passes):
        raise RuntimeError("passes decided different items")
    # each decision's latency is its median across passes
    per_item = [
        1000 * statistics.median(p["decisions"][i][1] for p in passes) for i in range(len(labels))
    ]
    statuses = [d[2] for p in passes for d in p["decisions"]]
    failed = sum(len(p["problems"]) for p in passes)
    tail = tail_percentile(len(per_item))
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "decision_p50_ms": percentile(per_item, 50) if per_item else 0.0,
        "decision_tail_ms": percentile(per_item, tail) if per_item else 0.0,
        "decision_max_ms": max(per_item, default=0.0),
        "decided_frac": 1 - statuses.count("unknown") / max(1, len(statuses)),
        "verified_frac": 1 - min(failed, len(statuses)) / max(1, len(statuses)),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    walls = ", ".join(f"{p['wall_s']:.3f} s (factor {p['factor']:.3f})" for p in passes)
    note = (
        f"{len(passes)} passes of {len(per_item)} decisions: {walls}; "
        f"decision_tail_ms is p{tail} over {len(per_item)} decisions"
    )
    return values, note


def per_layer(traced, untraced, workload) -> dict:
    layers = {
        name: statistics.median(p["layers"].get(name.replace("cli.census", "cli.main"), 0.0) for p in traced)
        for name in PER_LAYER
    }
    layers["cli.census.files"] = statistics.median(p["files"] for p in traced)
    layers["cli.census.bytes"] = statistics.median(p["bytes"] for p in traced)
    probe = json.loads(probe_setup(workload.setup, traced=True))
    layers["boolean_core.enumerate_ordered_pairs.self_s"] = probe.get(
        "boolean_core.enumerate_ordered_pairs.self_s", 0.0
    )
    layers["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced)
        - 1
    )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mbfreal" / "__init__.py").is_file():
        print(f"error: no mbfreal package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    setup_s = statistics.median(float(probe_setup(workload.setup)) for _ in range(SETUP_RUNS))
    untraced, traced = [], []
    while True:
        untraced.append(run_pass(workload.name, args.seed, traced=False))
        if args.trace:
            traced.append(run_pass(workload.name, args.seed, traced=True))
        spent = sum(p["raw_wall_s"] for p in untraced + traced)
        if spent >= args.seconds:
            break

    passes = untraced + traced
    problems = [why for p in passes for why in p["problems"]]
    attempted = max(1, sum(len(p["decisions"]) for p in passes))
    failed = len(problems)
    for why in problems[:20]:
        print(f"FAILED {why}", file=sys.stderr)

    values, note = end_to_end(untraced, setup_s)
    print(f"{workload.name} seed {args.seed}: {note}")

    if args.trace:
        layers = per_layer(traced, untraced, workload)
        slowest = traced[-1]["slowest"]
        (OUT / f"{workload.name}-seed{args.seed}.slowest.json").write_text(json.dumps(slowest, indent=1) + "\n")
        print(f"slowest decisions ({workload.name}, traced pass):")
        for s in slowest:
            top = ", ".join(f"{k} {v:.3f}" for k, v in list(s["self_s"].items())[:4])
            print(f"  {1000 * s['seconds']:10.1f} ms  {s['decision']}  [{top}]")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
