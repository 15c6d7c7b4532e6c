"""Tests of the benchmark instrument itself.

Run explicitly (they are not in the tier-1 ``testpaths``)::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from benchlib import fixture as fx_mod  # noqa: E402
from benchlib import metrics, mix, probes, report, runner, stats  # noqa: E402
from benchlib.spans import Probe, Recorder, self_times  # noqa: E402
from benchlib.workloads import WORKLOADS  # noqa: E402


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


# -- seeded inputs -----------------------------------------------------------


@pytest.fixture(scope="module")
def wire_fixture(tmp_path_factory):
    workload = WORKLOADS["serve_wire"](smoke=True)
    fixture = fx_mod.build(workload.sizing, str(tmp_path_factory.mktemp("cache")), seed=3)
    yield workload, fixture
    fixture.close()


def _stream(workload, fixture, seed: int, count: int) -> list[tuple]:
    stream = workload.query_mix(fixture, seed, "test")
    items = [stream.next() for _ in range(count)]
    return [(item.key, repr(item.query)) for item in items]


def test_same_seed_same_mix(wire_fixture):
    workload, fixture = wire_fixture
    first = _stream(workload, fixture, 7, 300)
    assert first == _stream(workload, fixture, 7, 300)
    assert first != _stream(workload, fixture, 8, 300)


def test_every_block_holds_the_same_work(wire_fixture):
    workload, fixture = wire_fixture
    stream = workload.query_mix(fixture, 7, "test")
    size = stream.block_size
    blocks = [[stream.next() for _ in range(size)] for _ in range(2 * mix.BLOCKS)]
    adhoc = [sum(1 for item in block if item.key[0] == "adhoc") for block in blocks]
    assert set(adhoc) == {size // (mix.BASE_PER_ADHOC + 1)}
    counts = [
        sorted(item.key for item in block if item.key[0] == "base") for block in blocks
    ]
    # A base query's count differs by at most one between any two blocks.
    for key in {key for block in counts for key in block}:
        per_block = [block.count(key) for block in counts]
        assert max(per_block) - min(per_block) <= 1


def test_adhoc_literals_never_repeat(wire_fixture):
    workload, fixture = wire_fixture
    stream = workload.query_mix(fixture, 7, "test")
    items = [stream.next() for _ in range(4 * mix.BLOCKS * stream.block_size)]
    literals = [repr(item.query) for item in items if item.key[0] == "adhoc"]
    assert len(literals) == len(set(literals))


def test_same_seed_same_arrivals():
    first = mix.arrival_offsets(20.0, 3.3, 5, rung=1)
    assert first == mix.arrival_offsets(20.0, 3.3, 5, rung=1)
    assert first != mix.arrival_offsets(20.0, 3.3, 6, rung=1)
    assert first == sorted(first) and len(first) == 66
    # The count is exact in every stratum, whatever the seed.
    for seed in range(5):
        offsets = mix.arrival_offsets(20.0, 3.0, seed, rung=0)
        assert [sum(1 for o in offsets if s <= o < s + 1) for s in range(3)] == [20] * 3


def test_same_seed_same_catalog(wire_fixture):
    _, fixture = wire_fixture

    def fingerprints(seed: int) -> list[tuple[str, str]]:
        catalog = mix.build_segment_catalog(60, fixture.columns, [], seed)
        return [(d.name, d.fingerprint) for d in catalog.definitions()]

    assert fingerprints(4) == fingerprints(4)
    assert fingerprints(4) != fingerprints(5)


# -- percentile helper -------------------------------------------------------


def test_percentile_refuses_too_few_samples():
    samples = [float(i) for i in range(99)]
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(samples, 90)  # 9.9 samples beyond it
    assert stats.percentile(samples + [99.0], 90) == pytest.approx(89.5, abs=1.0)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(samples[:19], 50)
    assert stats.percentile(samples[:21], 50) == pytest.approx(10.0)


def test_percentile_tracks_a_uniform_speedup():
    samples = [1.0 + (i * 37 % 101) for i in range(400)]
    slow = stats.percentile(samples, 90)
    assert stats.percentile([0.9 * x for x in samples], 90) == pytest.approx(0.9 * slow)


# -- spans -------------------------------------------------------------------


def test_span_self_time_arithmetic():
    # root 0..10 with children 1..4 and 5..9; the second has a child 6..8.
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 5.0, 9.0, 0, 0, None],
        ["c", 6.0, 8.0, 2, 0, None],
    ]
    own = self_times(spans)
    assert own == [3.0, 3.0, 2.0, 2.0]
    assert sum(own) == spans[0][2] - spans[0][1]


def test_recorder_nests_and_attributes():
    recorder = Recorder()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = recorder.wrap(Probe("inner", "unused"), inner)
    wrapped_outer = recorder.wrap(Probe("outer", "unused"), outer)
    recorder.set_rid(42)
    assert wrapped_outer() == 2
    (state,) = recorder.threads
    assert [span[0] for span in state.spans] == ["outer", "inner"]
    assert state.spans[1][3] == 0 and state.spans[0][3] == -1
    assert {span[4] for span in state.spans} == {42}
    summary = recorder.summary()
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"]
    )


def test_unresolved_probe_warns_and_nulls_its_metric():
    recorder = Recorder()
    recorder.install([
        Probe("sql.fetch", "repro.sql.database:Database.renamed_away"),
        Probe("sql.plan_capture", "repro.no_such_module:capture"),
    ])
    try:
        assert recorder.unresolved == ["sql.fetch", "sql.plan_capture"]
        assert len(recorder.warnings) == 2
        times = runner.layer_times(recorder.summary(), n_ops=10)
        assert times["sql.fetch_ms"] is None and times["sql.plan_capture_ms"] is None
        assert times["mining.predict_batch_ms"] == 0.0
    finally:
        recorder.uninstall()


def test_every_probe_resolves_today():
    recorder = Recorder()
    recorder.install(probes.PROBES)
    try:
        assert recorder.unresolved == []
    finally:
        recorder.uninstall()


def test_the_instrument_imports_only_public_packages():
    import ast

    import benchlib

    allowed = set(benchlib.ALLOWED_IMPORTS)
    library = os.path.join(BENCH_DIR, "benchlib")
    sources = [os.path.join(BENCH_DIR, "run.py")] + [
        os.path.join(library, name) for name in os.listdir(library) if name.endswith(".py")
    ]
    for name in sources:
        with open(name, encoding="utf-8") as stream:
            tree = ast.parse(stream.read())
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            for module in modules:
                if module == "repro" or module.startswith("repro."):
                    assert module in allowed, f"{name} imports {module}"


# -- manifest and emitted names ----------------------------------------------


def test_manifest_matches_the_metric_tables():
    manifest = _manifest()
    assert manifest["end_to_end"] == metrics.manifest_entries()["end_to_end"]
    assert manifest["per_layer"] == metrics.manifest_entries()["per_layer"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert manifest["paths"] == ["bench"]
    assert any(m["name"] == "setup_s" and m["bound"] == 0.25 for m in manifest["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_names_are_the_declared_names(workload, trace, tmp_path):
    done = _run("--workload", workload, "--smoke", "--trace", trace, "--seed", "2",
                "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = _manifest()["per_layer" if trace == "1" else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, entry in line["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
    suffix = ".trace.json" if trace == "1" else ".json"
    with open(tmp_path / (workload + suffix), encoding="utf-8") as stream:
        document = json.load(stream)
    assert {"git_sha", "nproc", "python", "numpy", "sqlite", "seed"} <= set(document["stamp"])
    assert document["constants"]["sizing"]["dataset"]
    assert not list(tmp_path.glob("envelopes-*")), "temporary caches must be removed"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("--workload", "paper_scan", "--smoke", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- compare -----------------------------------------------------------------


def _result(directory, workload: str, scale: float, failed: int = 0) -> None:
    os.makedirs(directory, exist_ok=True)
    document = {
        "workload": workload, "traced": False, "failed": failed,
        "metrics": {
            m.name: {"value": 10.0 * scale, "unit": m.unit} for m in metrics.END_TO_END
        },
    }
    with open(os.path.join(directory, workload + ".json"), "w", encoding="utf-8") as stream:
        json.dump(document, stream)


def test_compare_flags_what_is_outside_its_bound(tmp_path, capsys):
    a, b, c = (str(tmp_path / name) for name in "abc")
    _result(a, "paper_scan", 1.0)
    _result(b, "paper_scan", 1.05)
    _result(c, "paper_scan", 1.2)
    assert report.compare(a, b) == 0
    assert "UNRESOLVED" not in capsys.readouterr().out
    assert report.compare(a, c) == 1
    out = capsys.readouterr().out
    # 20% is outside throughput's and latency's bounds, inside setup's.
    assert "throughput_per_s" in out and out.count("UNRESOLVED") >= 2
    setup_line = next(line for line in out.splitlines() if " setup_s" in line)
    assert "UNRESOLVED" not in setup_line


def test_compare_flags_failed_operations(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    _result(a, "serve_wire", 1.0)
    _result(b, "serve_wire", 1.0, failed=3)
    assert report.compare(a, b) == 1
    assert "failed operations" in capsys.readouterr().out
