"""The bench harness contract, row by row.

Every bench that finishes in a few seconds at its smallest size is run
through the same three calls the CLI makes — ``run``, ``summary``,
``write_report`` — and its report is checked against the committed file
of the same name.  ``load-bench`` and ``bench-parallel`` are too slow
for tier-1: they stay with the CI load smoke and ``test_parallel.py``.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import build_parser
from repro.experiments import benches
from repro.experiments.benches import BENCHES, rows_digest, write_report
from repro.experiments.config import SMOKE_CONFIG

REPO_ROOT = Path(__file__).resolve().parents[1]

SMALLEST = {
    "segment-bench": "--segments 50 --rows 512",
    "calibration-bench": "--passes 2",
    "disjunction-bench": "--rows 512",
}


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_bench_row_runs_summarizes_and_writes(name, tmp_path):
    args = build_parser().parse_args(
        [name, "--scale", "smoke", *SMALLEST[name].split()]
    )
    module = BENCHES[name].load()
    report = module.run(SMOKE_CONFIG, args)
    lines = module.summary(report)
    assert lines and all(isinstance(line, str) and line for line in lines)

    target = write_report(
        report, tmp_path / BENCHES[name].output, SMOKE_CONFIG, args.scale
    )
    assert target == tmp_path / BENCHES[name].output
    written = json.loads(target.read_text())
    assert written == json.loads(json.dumps(report))

    environment = written["environment"]
    assert set(environment) == {
        "git_sha", "dirty", "cpu_count", "python", "numpy", "scale", "seed"
    }
    assert environment["cpu_count"] >= 1
    assert environment["scale"] == "smoke"
    assert environment["seed"] == SMOKE_CONFIG.seed
    sha = environment["git_sha"]
    assert sha is None or len(sha) == 40

    # Every key the docs quote from the committed file is still produced.
    committed = json.loads((REPO_ROOT / BENCHES[name].output).read_text())
    assert set(committed) <= set(written)


@pytest.mark.parametrize(
    "status, dirty",
    [("", False), (" M src/repro/x.py", True), (None, None)],
)
def test_report_says_whether_the_checkout_was_dirty(
    status, dirty, tmp_path, monkeypatch
):
    """A run that precedes its commit carries the parent's SHA: the
    stamp must say the tree differed (``None``: not a git checkout)."""
    sha = None if status is None else "0" * 40
    answers = {"status": status, "rev-parse": sha}
    monkeypatch.setattr(
        benches, "_git", lambda command, *rest: answers[command]
    )
    target = write_report({}, tmp_path / "r.json", SMOKE_CONFIG, "smoke")
    assert json.loads(target.read_text())["environment"]["dirty"] is dirty


def test_every_bench_module_honours_the_contract():
    for name, bench in BENCHES.items():
        module = bench.load()
        for function in ("add_arguments", "run", "summary"):
            assert callable(getattr(module, function)), (name, function)


def test_rows_digest_order_sensitivity_is_an_argument():
    forward = [[{"a": 1, "b": 2.5}, {"a": 2, "b": None}]]
    backward = [[{"b": None, "a": 2}, {"b": 2.5, "a": 1}]]
    assert rows_digest(forward) != rows_digest(backward)
    assert rows_digest(forward, ordered=False) == rows_digest(
        backward, ordered=False
    )
    assert rows_digest(forward, ordered=False) != rows_digest(
        [[{"a": 1, "b": 2.5}]], ordered=False
    )
