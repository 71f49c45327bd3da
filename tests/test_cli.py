import json

import pytest

from mbfreal import cli, realizability
from mbfreal.cli import main
from mbfreal.ksystem import k_to_json, network_to_json
from mbfreal.boolean_core import MbfFunction, OrderedTuple, canonical_form
from mbfreal.realizability import (
    certificate_from_data,
    replay_certificate,
    verify_k_witness,
    verify_witness,
    witness_from_text,
)

from goldens import PAIR_NEEDS_MIXED, PAIR_NEEDS_PRODUCT, nonseparable_pairs
from test_ksystem import example_k, example_network


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- enumerate

def test_enumerate_count_four(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--quiet")
    assert code == 0
    assert out.strip() == "168"


def test_enumerate_pairs_two(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--pairs", "--quiet")
    assert code == 0
    assert out.strip() == "20"


def test_enumerate_lists_hex(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "1")
    lines = out.strip().split("\n")
    assert lines[0] == "3"
    assert lines[1:] == ["mbf:1:0", "mbf:1:2", "mbf:1:3"]


def test_enumerate_guard_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "6")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------- realize / verify

def test_realize_and_verify_roundtrip(tmp_path, capsys):
    f, g = PAIR_NEEDS_PRODUCT
    witness_path = tmp_path / "w.txt"
    code, out, _ = run(
        capsys,
        "realize",
        "--pair", f.to_hex(), g.to_hex(),
        "--class", "pisigma",
        "--out", str(witness_path),
    )
    assert code == 0
    assert out.startswith("realizable")
    assert witness_path.exists()

    code, out, _ = run(
        capsys, "verify", "--witness", str(witness_path), "--pair", f.to_hex(), g.to_hex()
    )
    assert code == 0
    assert out.strip() == "ok"


def test_realize_not_realizable_writes_certificate(tmp_path, capsys):
    f, g = PAIR_NEEDS_MIXED
    cert_path = tmp_path / "c.json"
    code, out, _ = run(
        capsys,
        "realize",
        "--pair", f.to_hex(), g.to_hex(),
        "--class", "pisigma",
        "--out", str(cert_path),
    )
    assert code == 0
    assert out.startswith("not_realizable")
    data = json.loads(cert_path.read_text())
    assert data["type"] == "exhaustion"
    assert len(data["entries"]) == 5


def test_realize_rejects_unordered(capsys):
    f, g = PAIR_NEEDS_PRODUCT
    code, _, err = run(capsys, "realize", "--pair", g.to_hex(), f.to_hex(), "--class", "sigma")
    assert code == 2
    assert "imply" in err


def test_realize_refuses_functions_without_variables(tmp_path, capsys):
    # the constant pair on zero inputs has no variable to sum or multiply
    for class_tag in ("sigma", "pisigma", "sigmapisigma"):
        out_path = tmp_path / f"{class_tag}.out"
        code, out, err = run(
            capsys,
            "realize",
            "--pair", "mbf:0:0", "mbf:0:1",
            "--class", class_tag,
            "--out", str(out_path),
        )
        assert code == 2, class_tag
        assert out == ""
        assert err == "error: need at least one variable\n"
        assert not out_path.exists()
    out_path = tmp_path / "k.out"
    code, out, _ = run(
        capsys, "realize", "--pair", "mbf:0:0", "mbf:0:1", "--class", "k", "--out", str(out_path)
    )
    assert code == 0
    assert out.startswith("realizable")
    assert out_path.exists()


def test_verify_corrupted_witness(tmp_path, capsys):
    f, g = PAIR_NEEDS_MIXED
    witness_path = tmp_path / "w.txt"
    run(capsys, "realize", "--pair", f.to_hex(), g.to_hex(), "--class", "sigmapisigma",
        "--out", str(witness_path))
    text = witness_path.read_text()
    _, w = witness_from_text(text)
    # overwrite thresholds with an equal pair
    broken = []
    for line in text.splitlines():
        if line.startswith("thresholds:"):
            t = str(w.thresholds[0])
            line = f"thresholds: {t} {t}"
        broken.append(line)
    witness_path.write_text("\n".join(broken) + "\n")
    code, _, _ = run(capsys, "verify", "--witness", str(witness_path))
    assert code == 1


@pytest.mark.parametrize("field", ["thresholds", "rvalues", "low", "high"])
def test_verify_witness_with_zero_denominator(tmp_path, capsys, field):
    # a value such as 36/0 is a corrupted witness file: exit 1, naming the
    # field and the token
    f, g = PAIR_NEEDS_MIXED
    witness_path = tmp_path / "w.txt"
    class_tag = "k" if field == "rvalues" else "sigmapisigma"
    run(capsys, "realize", "--pair", f.to_hex(), g.to_hex(), "--class", class_tag,
        "--out", str(witness_path))
    broken = []
    for line in witness_path.read_text().splitlines():
        key, _, values = line.partition(": ")
        if key == field:
            first, *rest = values.split()
            token = first.split("/")[0] + "/0"
            line = " ".join([key + ":", token] + rest)
        broken.append(line)
    witness_path.write_text("\n".join(broken) + "\n")
    code, _, err = run(capsys, "verify", "--witness", str(witness_path))
    assert code == 1
    assert err.startswith("invalid witness: ")
    assert repr(field) in err and repr(token) in err


@pytest.mark.parametrize("kept", [0, 1, 2])
def test_verify_witness_with_too_few_values(tmp_path, capsys, kept):
    # low and high both cut short of the arity: a corrupted witness file,
    # which exits 1 like any other, not 2
    f, g = PAIR_NEEDS_MIXED
    witness_path = tmp_path / "w.txt"
    run(capsys, "realize", "--pair", f.to_hex(), g.to_hex(), "--class", "sigmapisigma",
        "--out", str(witness_path))
    broken = []
    for line in witness_path.read_text().splitlines():
        key, _, values = line.partition(": ")
        if key in ("low", "high"):
            line = " ".join([key + ":"] + values.split()[:kept])
        broken.append(line)
    witness_path.write_text("\n".join(broken) + "\n")
    code, _, err = run(capsys, "verify", "--witness", str(witness_path))
    assert code == 1
    assert err.startswith("invalid witness: ")


def test_verify_pair_mismatch(tmp_path, capsys):
    f, g = PAIR_NEEDS_PRODUCT
    witness_path = tmp_path / "w.txt"
    run(capsys, "realize", "--pair", f.to_hex(), g.to_hex(), "--class", "k",
        "--out", str(witness_path))
    code, _, err = run(
        capsys, "verify", "--witness", str(witness_path), "--pair", g.to_hex(), g.to_hex()
    )
    assert code == 2
    assert "match" in err


def test_verify_k_witness_file(tmp_path, capsys):
    f, g = nonseparable_pairs()[4][:2]
    witness_path = tmp_path / "w.txt"
    code, out, _ = run(capsys, "realize", "--pair", f.to_hex(), g.to_hex(),
                       "--class", "k", "--out", str(witness_path))
    assert code == 0 and out.startswith("realizable")
    assert "rvalues:" in witness_path.read_text()
    code, _, _ = run(capsys, "verify", "--witness", str(witness_path))
    assert code == 0


# ---------------------------------------------------------------- stg / pg

def write_example_inputs(tmp_path):
    net_path = tmp_path / "net.json"
    k_path = tmp_path / "k.json"
    net_path.write_text(network_to_json(example_network()))
    k_path.write_text(k_to_json(example_k()))
    return net_path, k_path


def test_stg_command(tmp_path, capsys):
    net_path, k_path = write_example_inputs(tmp_path)
    out_path = tmp_path / "stg.dot"
    code, out, _ = run(capsys, "stg", "--net", str(net_path), "--k", str(k_path),
                       "--out", str(out_path))
    assert code == 0
    assert "6 states, 7 edges" in out
    dot = out_path.read_text()
    assert '"(2,2)" -> "(2,1)"' in dot


def test_stg_rejects_bad_k(tmp_path, capsys):
    net_path, k_path = write_example_inputs(tmp_path)
    data = json.loads(k_path.read_text())
    data["2"][""] = "11/10"  # resting level above the activated one
    k_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "stg", "--net", str(net_path), "--k", str(k_path),
                       "--out", str(tmp_path / "x.dot"))
    assert code == 2
    assert "violation" in err


def test_pg_command(tmp_path, capsys):
    net_path, _ = write_example_inputs(tmp_path)
    out_dir = tmp_path / "pg"
    code, out, _ = run(capsys, "pg", "--net", str(net_path), "--out", str(out_dir))
    assert code == 0
    assert "60 vertices" in out
    assert (out_dir / "parameter_graph.dot").exists()
    assert (out_dir / "vertices.csv").exists()
    assert (out_dir / "factor_1.dot").exists()


def example_k_json_with(node, key, value):
    data = json.loads(k_to_json(example_k()))
    data.setdefault(node, {})[key] = value
    return json.dumps(data)


@pytest.mark.parametrize(
    "command, text",
    [
        ("pg", "[]"),
        ("pg", '{"nodes": "ab", "edges": []}'),
        ("pg", '{"nodes": [{"name": "a", "decay": null}], "edges": []}'),
        ("pg", '{"nodes": [{"name": "a", "decay": true}], "edges": []}'),
        ("pg", '{"nodes": [{"name": "a", "decay": 1}], "edges": '
               '[{"source": "a", "target": "a", "sign": "+", "threshold": true}]}'),
        # node names that a K file's comma-joined keys or the vertex table's
        # header could not carry
        ("pg", '{"nodes": [{"name": "", "decay": 1}], "edges": '
               '[{"source": "", "target": "", "sign": "+", "threshold": 1}]}'),
        ("pg", '{"nodes": [{"name": "a,b", "decay": 1}], "edges": '
               '[{"source": "a,b", "target": "a,b", "sign": "+", "threshold": 1}]}'),
        # node names that a factor file's name or the vertex table's header
        # could not carry: a path out of the output directory, a quote and a
        # newline
        ("pg", '{"nodes": [{"name": "../escaped", "decay": 1}, {"name": "b", "decay": 1}], '
               '"edges": [{"source": "../escaped", "target": "b", "sign": "+", "threshold": 1}]}'),
        ("pg", '{"nodes": [{"name": "q\\"x\\ny", "decay": 1}, {"name": "b", "decay": 1}], '
               '"edges": [{"source": "q\\"x\\ny", "target": "b", "sign": "+", "threshold": 1}]}'),
        ("stg", '{"a": 5}'),
        ("stg", '{"a": {"": [1]}}'),
        # the example K plus an entry for a node the network lacks
        ("stg", example_k_json_with("zz", "", "5")),
        # the example K with a JSON boolean for one value (true would load as
        # 1, which keeps the K monotone)
        ("stg", example_k_json_with("2", "1", True)),
        # the example K plus a second key for a source set it already names
        ("stg", example_k_json_with("1", "1,1", "7")),
        ("stg", example_k_json_with("1", "2,1", "7")),
    ],
)
def test_malformed_network_or_k_json_exits_2(tmp_path, capsys, command, text):
    net_path, k_path = write_example_inputs(tmp_path)
    (net_path if command == "pg" else k_path).write_text(text)
    args = ["--net", str(net_path), "--out", str(tmp_path / "out")]
    if command == "stg":
        args += ["--k", str(k_path)]
    code, _, err = run(capsys, command, *args)
    assert code == 2
    assert err.startswith("error: ")
    # nothing is written, under --out or beside it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json", "net.json"]


# ---------------------------------------------------------------- census

def test_census_all_classes_n3(tmp_path, capsys):
    out_dir = tmp_path / "census"
    classes = "sigma,pisigma,sigmapisigma,k"
    code, out, _ = run(capsys, "census", "--n", "3", "--classes", classes,
                       "--out", str(out_dir))
    assert code == 0
    assert "sigma: realizable=150 not_realizable=18 unknown=0" in out
    assert "pisigma: realizable=165 not_realizable=3 unknown=0" in out
    assert "sigmapisigma: realizable=168 not_realizable=0 unknown=0" in out
    assert "k: realizable=168 not_realizable=0 unknown=0" in out
    csv = (out_dir / "census.csv").read_text().strip().split("\n")
    assert csv[0] == "pair_index,f_hex,g_hex,class,verdict,witness_path,certificate_path"
    assert len(csv) == 1 + 4 * 168
    # the archives the rows point to replay from disk against the row's pair
    for row in csv[1:]:
        _, f_hex, g_hex, class_tag, _, witness_path, certificate_path = row.split(",")
        pair = OrderedTuple((MbfFunction.from_hex(f_hex), MbfFunction.from_hex(g_hex)))
        if witness_path:
            tup, witness = witness_from_text((out_dir / witness_path).read_text())
            assert tup == pair
            verify = verify_k_witness if class_tag == "k" else verify_witness
            assert verify(tup, witness), row
        if certificate_path:
            data = json.loads((out_dir / certificate_path).read_text())
            assert replay_certificate(pair, None, certificate_from_data(data)), row

    # resumable: a second run reuses the per-pair results and agrees
    code, out2, _ = run(capsys, "census", "--n", "3", "--classes", classes,
                        "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "census.csv").read_text().strip().split("\n") == csv


def test_census_config_mismatch(tmp_path, capsys):
    out_dir = tmp_path / "census"
    run(capsys, "census", "--n", "3", "--classes", "k", "--out", str(out_dir))
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "sigma",
                       "--out", str(out_dir))
    assert code == 3
    assert "configuration" in err


def test_census_config_without_certificate_format_exits_3(tmp_path, capsys):
    # a directory written before config.json named the certificate format
    # holds Farkas certificates with their rows; it is not resumed
    out_dir = tmp_path / "census"
    out_dir.mkdir()
    config = out_dir / "config.json"
    config.write_text(json.dumps({"n": 3, "classes": ["k"]}) + "\n")
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "k", "--out", str(out_dir))
    assert code == 3
    assert "configuration" in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["config.json"]


def test_census_config_of_the_multiplier_format_exits_3(tmp_path, capsys):
    # a directory whose Farkas certificates are multiplier vectors over a
    # rebuilt system, not named rows, is not resumed
    out_dir = tmp_path / "census"
    out_dir.mkdir()
    config = {"n": 3, "classes": ["k"], "certificates": "farkas-multipliers"}
    (out_dir / "config.json").write_text(json.dumps(config) + "\n")
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "k", "--out", str(out_dir))
    assert code == 3
    assert "configuration" in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["config.json"]


def test_census_config_of_the_direction_certificate_format_exits_3(tmp_path, capsys):
    # a directory from before direction certificates became rows with a
    # monomial holds "direction" certificate files; it is not resumed
    out_dir = tmp_path / "census"
    out_dir.mkdir()
    config = {"n": 3, "classes": ["k"], "certificates": "farkas-rows"}
    (out_dir / "config.json").write_text(json.dumps(config) + "\n")
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "k", "--out", str(out_dir))
    assert code == 3
    assert "configuration" in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["config.json"]


def test_census_config_of_the_collapse_certificate_format_exits_3(tmp_path, capsys):
    # a directory from before facet refutations were lifted onto their
    # structure as rows holds "collapse" certificates; it is not resumed
    out_dir = tmp_path / "census"
    out_dir.mkdir()
    config = {"n": 3, "classes": ["k"], "certificates": "monomial-rows"}
    (out_dir / "config.json").write_text(json.dumps(config) + "\n")
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "k", "--out", str(out_dir))
    assert code == 3
    assert "configuration" in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["config.json"]


@pytest.mark.parametrize("text", ["", '{"n": 3, "classes": ["k"]'])
def test_census_config_that_does_not_parse_exits_3(tmp_path, capsys, text):
    # config.json as a run cut off mid-write would have left it
    out_dir = tmp_path / "census"
    out_dir.mkdir()
    config = out_dir / "config.json"
    config.write_text(text)
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "k", "--out", str(out_dir))
    assert code == 3
    assert err.startswith("error: ")
    assert str(config) in err
    assert config.read_text() == text


def test_census_resume_recomputes_corrupt_results(tmp_path, capsys):
    out_dir = tmp_path / "census"
    argv = ("census", "--n", "3", "--classes", "sigma", "--out", str(out_dir))
    assert run(capsys, *argv)[0] == 0
    csv = (out_dir / "census.csv").read_text()
    results = out_dir / "results"
    intact = (results / "sigma_00003.json").read_text()
    # a run cut off mid-write, and entries that parse but are not {"row": str}
    (results / "sigma_00003.json").write_text('{"row": "3,mbf')
    (results / "sigma_00004.json").write_text("")
    (results / "sigma_00005.json").write_text("[]")
    (results / "sigma_00006.json").write_text('{"row": 6}')
    # a row that is not a census row, and another cell's row
    (results / "sigma_00007.json").write_text('{"row": "garbage"}')
    (results / "sigma_00009.json").write_text((results / "sigma_00008.json").read_text())
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert (out_dir / "census.csv").read_text() == csv
    assert (results / "sigma_00003.json").read_text() == intact


def test_census_leaves_no_temporary_files(tmp_path, capsys):
    # every census file is renamed into place
    out_dir = tmp_path / "census"
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "sigma,k",
                       "--out", str(out_dir), "--jobs", "2")
    assert code == 0, err
    written = {p.parent.name for p in out_dir.rglob("*") if p.is_file()}
    assert {"results", "witnesses", "certificates"} <= written
    assert not list(out_dir.rglob("*.tmp"))


def test_census_writes_every_file_atomically(tmp_path, capsys, monkeypatch):
    written = []
    write_atomic = cli._write_atomic

    def recorded(path, text):
        written.append(path.name)
        write_atomic(path, text)

    monkeypatch.setattr(cli, "_write_atomic", recorded)
    out_dir = tmp_path / "census"
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "k", "--out", str(out_dir))
    assert code == 0, err
    assert {"config.json", "census.csv", "summary.txt"} <= set(written)
    assert {p.name for p in out_dir.iterdir() if p.is_file()} <= set(written)


def _archive(out_dir):
    return {
        p.relative_to(out_dir): p.read_bytes()
        for sub in ("witnesses", "certificates")
        for p in (out_dir / sub).iterdir()
    }


def test_census_files_do_not_depend_on_job_count(tmp_path, capsys, monkeypatch):
    # each orbit's witnesses derive from its canonical member, whatever order
    # and worker the pairs reach; two CPUs are reported so that --jobs 2
    # starts two workers on any machine
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        code, _, err = run(capsys, "census", "--n", "3", "--out", str(outs[jobs]),
                           "--jobs", jobs)
        assert code == 0, err
    serial, parallel = _archive(outs["1"]), _archive(outs["2"])
    assert len(serial) == 150 + 165 + 168 + 168 + 18 + 3
    assert serial == parallel
    assert (outs["1"] / "census.csv").read_bytes() == (outs["2"] / "census.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_census_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out_dir = tmp_path / "census"
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "k",
                       "--out", str(out_dir), "--jobs", jobs)
    assert code == 2
    assert err.startswith("error: ") and "--jobs" in err
    assert not out_dir.exists()


def test_census_rejects_a_repeated_class(tmp_path, capsys):
    out_dir = tmp_path / "census"
    out_dir.mkdir()
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "sigma,k,sigma",
                       "--out", str(out_dir))
    assert code == 2
    assert err.startswith("error: ") and "repeated" in err
    assert list(out_dir.iterdir()) == []


def test_census_rejects_an_empty_class_list(tmp_path, capsys):
    out_dir = tmp_path / "census"
    out_dir.mkdir()
    for classes in (",", ""):
        code, _, err = run(capsys, "census", "--n", "3", "--classes", classes,
                           "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: ") and "no class" in err
        assert list(out_dir.iterdir()) == []


def _hex_pair(f_hex, g_hex):
    return OrderedTuple((MbfFunction.from_hex(f_hex), MbfFunction.from_hex(g_hex)))


class _InlinePool:
    """A stand-in for ``multiprocessing.Pool`` that runs ``map`` in this
    process and records the worker count and the task lists it is given."""

    def __init__(self, processes, runs):
        runs.append((processes, []))
        self.lists = runs[-1][1]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, iterable, chunksize=None):
        self.lists.extend(iterable)
        return [func(tasks) for tasks in self.lists]


def _inline_pool(monkeypatch, cpus):
    runs = []
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli.multiprocessing, "Pool", lambda processes: _InlinePool(processes, runs))
    return runs


@pytest.mark.parametrize("jobs, cpus, workers", [
    (1, 64, None),
    (4, None, None),
    (4, 1, None),
    (10**9, 2, 2),
    (3, 8, 3),
    (7, 4, 4),
    (100, 64, 58),
])
def test_census_worker_count(tmp_path, capsys, monkeypatch, jobs, cpus, workers):
    # never more workers than jobs, CPUs or orbits (58 pairs' orbits at n=3);
    # an unknown CPU count counts as one, and one worker starts no pool
    runs = _inline_pool(monkeypatch, cpus)
    code, _, err = run(capsys, "census", "--n", "3", "--classes", "k",
                       "--out", str(tmp_path / "census"), "--jobs", str(jobs))
    assert code == 0, err
    assert [processes for processes, _ in runs] == ([] if workers is None else [workers])


def test_census_deals_each_orbit_to_one_worker(tmp_path, capsys, monkeypatch):
    runs = _inline_pool(monkeypatch, 2)
    decisions = []
    decide = realizability._decide

    def recorded(tup, class_tag, decided):
        decisions.append((tup, class_tag))
        return decide(tup, class_tag, decided)

    monkeypatch.setattr(realizability, "_decide", recorded)
    classes = ["sigmapisigma", "k", "sigma", "pisigma"]
    code, _, err = run(capsys, "census", "--n", "3", "--classes", ",".join(classes),
                       "--out", str(tmp_path / "census"), "--jobs", "2")
    assert code == 0, err
    [(workers, orbits)] = runs
    assert workers == 2 and len(orbits) == 58
    # every task in exactly one list, each list in task order (class, then
    # pair index) and holding every task of one canonical pair
    tasks = [t for orbit in orbits for t in orbit]
    assert len(tasks) == len(set(tasks)) == 4 * 168
    canon = set()
    for orbit in orbits:
        assert orbit == sorted(orbit, key=lambda t: (classes.index(t[1]), t[2]))
        pairs = {canonical_form(_hex_pair(t[3], t[4]))[0] for t in orbit}
        assert len(pairs) == 1
        canon |= pairs
    assert len(canon) == 58
    # each (canonical pair, class) is decided once across all the lists
    assert len(decisions) == len(set(decisions)) == 58 * 3


def test_census_resumes_a_partly_cached_orbit_in_two_workers(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out_dir = tmp_path / "census"
    argv = ("census", "--n", "3", "--out", str(out_dir), "--jobs", "2")
    assert run(capsys, *argv)[0] == 0
    csv = (out_dir / "census.csv").read_text()
    archive = _archive(out_dir)
    # the mixed pair's orbit 88/f8, a0/ec, c0/ea: the first two members lose
    # their results and the files those name, in every class
    rows = [row.split(",") for row in csv.splitlines()[1:]]
    canonical = canonical_form(_hex_pair("mbf:3:88", "mbf:3:f8"))[0]
    members = sorted({int(r[0]) for r in rows
                      if canonical_form(_hex_pair(r[1], r[2]))[0] == canonical})
    assert members == [48, 59, 89]
    for index, _, _, class_tag, _, witness_path, certificate_path in rows:
        if int(index) in members[:2]:
            (out_dir / "results" / f"{class_tag}_{int(index):05d}.json").unlink()
            for path in (witness_path, certificate_path):
                if path:
                    (out_dir / path).unlink()
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert (out_dir / "census.csv").read_text() == csv
    assert _archive(out_dir) == archive
