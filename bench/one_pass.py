"""One timed pass of one workload, in a fresh interpreter.

    python3 bench/one_pass.py <workload> <seed> <trace 0|1>

``run.py`` starts one of these per pass, so no cache or heap state of one pass
reaches the next and the peak resident memory is the pass's own.  The pass is
timed while ``speed.Meter`` measures the machine's speed, then every decision
is replayed and the workload's frozen results are checked.  The only line on
standard output is a JSON object with the pass time, each decision's label,
seconds and status, the problems found, the peak resident memory and, for a
traced pass, the per-layer metrics and the slowest decisions.  Every time in
it is scaled by the speed measured around it (see ``speed.py``) except
``raw_wall_s``; ``factor`` is the pass's mean speed factor.  A traced pass also writes its spans under ``.bench_out/``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"


def main(name: str, seed: int, traced: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from speed import Meter
    from spans import Tracer, layer_metrics, slowest_decisions
    from workloads import WORKLOADS, replay

    workload = WORKLOADS[name]
    inputs = workload.generate(seed)
    with Meter() as meter:
        if traced:
            with Tracer() as tracer:
                p = workload.run(inputs, OUT)
        else:
            p = workload.run(inputs, OUT)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [why for why in map(replay, p.decisions) if why is not None]
    problems += workload.check(inputs, p)
    scale = meter.factor
    result = {
        "wall_s": p.wall_s * scale,
        "raw_wall_s": p.wall_s,
        "factor": scale,
        "decisions": [
            [
                d.label,
                d.seconds * meter.local_factor(d.start, d.start + d.seconds),
                d.verdict.status if d.verdict is not None else None,
            ]
            for d in p.decisions
        ],
        "problems": problems,
        "peak_rss_mb": rss_mb,
        "files": p.extra.get("files", 0),
        "bytes": p.extra.get("bytes", 0),
    }
    if traced:
        result["layers"] = layer_metrics(tracer.spans, scale)
        result["slowest"] = slowest_decisions(tracer.spans, scale)
        tracer.dump(OUT / f"{name}-seed{seed}.spans.jsonl.gz")
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")))
