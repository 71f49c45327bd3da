"""Self-tests for the benchmark.  Run: python3 -m pytest bench"""

import contextlib
import dataclasses
import io
import json
import sys
import time
from pathlib import Path

import pytest

import mbfreal
import one_pass
import run
import spans
import speed
import workloads
from mbfreal import MbfFunction, OrderedTuple
from spans import Span, Tracer, layer_metrics, self_times, slowest_decisions

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children():
    tree = [
        Span(0, None, "realizability.check_class", 0.0, 10.0, decision=0, attrs={"label": "a"}),
        Span(1, 0, "linear.solve", 1.0, 4.0, decision=0, attrs={"rows_in": 7, "infeasible": 1}),
        Span(2, 0, "realizability.search_witness", 5.0, 9.0, decision=0),
        Span(3, 2, "interaction.corner_table", 6.0, 7.0, decision=0),
        Span(4, 2, "interaction.corner_table", 7.5, 8.0, decision=0),
        Span(5, None, "interaction.corner_table", 11.0, 11.25),
    ]
    assert self_times(tree) == {0: 3.0, 1: 3.0, 2: 2.5, 3: 1.0, 4: 0.5, 5: 0.25}
    m = layer_metrics(tree)
    assert m["interaction.corner_table.calls"] == 3
    assert m["interaction.corner_table.self_s"] == 1.75
    assert m["realizability.search_witness.points"] == 2
    assert m["linear.solve.max_ms"] == 3000.0
    assert (m["linear.solve.rows_in"], m["linear.solve.infeasible"]) == (7, 1)
    (slow,) = slowest_decisions(tree)
    assert slow["decision"] == "a" and slow["seconds"] == 10.0
    assert slow["self_s"] == {
        "realizability.check_class": 3.0,
        "linear.solve": 3.0,
        "realizability.search_witness": 2.5,
        "interaction.corner_table": 1.5,
    }


def _bindings():
    """Every (module, attribute) in mbfreal that binds a traced function."""
    originals = {
        getattr(sys.modules[f"mbfreal.{layer}"], name)
        for layer, names in spans.TRACED.items()
        for name in names
    }
    return {
        (key, attr): value
        for key, module in sys.modules.items()
        if key.split(".")[0] == "mbfreal"
        for attr, value in vars(module).items()
        if any(value is f for f in originals)
    }


def test_wrappers_cover_every_binding_and_restore_the_originals():
    import mbfreal.cli  # noqa: F401  (cli binds check_class too)

    before = _bindings()
    assert ("mbfreal.realizability", "corner_table") in before
    assert ("mbfreal.cli", "check_class") in before
    tup = OrderedTuple((MbfFunction.from_hex("mbf:2:8"), MbfFunction.from_hex("mbf:2:e")))
    with pytest.raises(RuntimeError), Tracer() as tracer:
        for (key, attr), original in before.items():
            assert getattr(sys.modules[key], attr) is not original, (key, attr)
        mbfreal.check_class(tup, "pisigma")
        raise RuntimeError("restore must survive an exception")
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"realizability.check_class", "realizability.check_sigma", "linear.solve"} <= names
    root = tracer.spans[0]
    assert root.name == "realizability.check_class" and root.parent is None
    assert all(s.decision == root.sid for s in tracer.spans)


def test_clock_leaves_out_the_reference_chunks():
    start, clock_start = time.perf_counter(), speed.clock()
    with speed.Meter() as meter:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
    elapsed, measured = time.perf_counter() - start, speed.clock() - clock_start
    assert meter.chunks >= 5
    assert measured == pytest.approx(elapsed - meter.sums[-1], abs=1e-3)
    assert meter.factor == speed.NOMINAL_CHUNK_S * meter.chunks / meter.sums[-1]


def test_local_factor_uses_the_chunks_around_an_interval():
    meter = speed.Meter()
    # 60 chunks one second apart: the first 30 take 1 ms, the rest 4 ms
    seconds = [0.001] * 30 + [0.004] * 30
    meter.stamps = [float(i) for i in range(60)]
    meter.sums = [sum(seconds[:i]) for i in range(61)]
    nominal = speed.NOMINAL_CHUNK_S
    assert meter.local_factor(2.5, 3.5) == pytest.approx(nominal / 0.001)
    assert meter.local_factor(50.0, 50.5) == pytest.approx(nominal / 0.004)
    # a long interval takes every chunk inside it
    assert meter.local_factor(0.0, 59.0) == pytest.approx(nominal / 0.0025)
    assert meter.local_factor(0.0, 59.0) == pytest.approx(meter.factor)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic(name):
    w = workloads.WORKLOADS[name]
    if name == "network":
        a, b = w.generate(7), w.generate(7)
        assert a["seed"] == b["seed"] and a["net"] == b["net"]
        return
    assert w.generate(7) == w.generate(7)


def test_sigma_n4_covers_every_orbit_once():
    inputs = workloads.WORKLOADS["sigma-n4"].generate(3)
    tables = workloads.relabel_tables(4)
    keys = {
        min((workloads._apply(t[0].truth, p), workloads._apply(t[1].truth, p)) for p in tables)
        for t in inputs["tuples"]
    }
    assert len(inputs["tuples"]) == len(keys) == 620
    assert sum(inputs["sizes"].values()) == 7581
    assert sum(inputs["sizes"][k] for k in inputs["keys"]
               if workloads._key_text(k) in workloads.FROZEN["sigma_n4_realizable"]) == 3287
    assert len(workloads.orbits(3)) == 58


def test_replay_rejects_a_broken_witness():
    tup = OrderedTuple((MbfFunction.from_hex("mbf:2:8"), MbfFunction.from_hex("mbf:2:e")))
    verdict = mbfreal.check_class(tup, "sigma")
    good = workloads.Decision(tup, "sigma", 0.001, verdict)
    assert workloads.replay(good) is None
    w = verdict.witness
    broken = dataclasses.replace(w, thresholds=tuple(t + 100 for t in w.thresholds))
    bad = workloads.Decision(tup, "sigma", 0.001, dataclasses.replace(verdict, witness=broken))
    assert "does not verify" in workloads.replay(bad)
    raised = workloads.Decision(tup, "sigma", 0.001, error="ValueError()")
    assert "raised" in workloads.replay(raised)


def test_nesting_flags_a_larger_class_proven_impossible():
    ok = {("f", "g"): {"sigma": "realizable", "pisigma": "realizable", "sigmapisigma": "unknown"}}
    bad = {("f", "g"): {"sigma": "realizable", "sigmapisigma": "not_realizable"}}
    assert workloads.nesting_failures(ok) == []
    assert len(workloads.nesting_failures(bad)) == 1


def test_tail_percentile_keeps_ten_decisions_beyond():
    assert [run.tail_percentile(n) for n in (20, 68, 620, 672, 893, 10**6)] == [50, 85, 98, 98, 98, 99]
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile([1, 2, 3, 10], 50) == 2.5
    assert run.percentile([1, 2, 3, 10], 100) == 10


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_census_run_emits_every_metric(trace, section):
    result = _main(["--workload", "census-n3", "--seed", "2", "--seconds", "0", "--trace", str(trace)])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 672
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["cli.census.files"]["value"] == 1347
        assert result["metrics"]["realizability.check_class.calls"]["value"] == 672


def test_reduced_products_pass_is_correct(monkeypatch):
    # two cheap pairs: one decided by search, one with a not_realizable
    # pisigma verdict
    rows = [r for r in workloads.FROZEN["products_n4"] if r[0] in ("a880,fce8", "8880,f8a8")]
    assert len(rows) == 2
    monkeypatch.setitem(workloads.FROZEN, "products_n4", rows)
    untraced = [one_pass.main("products-n4", 1, False)]
    traced = [one_pass.main("products-n4", 1, True)]
    for p in untraced + traced:
        assert p["problems"] == [] and len(p["decisions"]) == 4
    values, _ = run.end_to_end(untraced, setup_s=0.1)
    assert set(values) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert values["decided_frac"] == values["verified_frac"] == 1.0
    layers = run.per_layer(traced, untraced, workloads.WORKLOADS["products-n4"])
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert layers["realizability.search_witness.found"] >= 1
    assert layers["realizability.check_class.calls"] == 4
