"""The one bench harness behind ``python -m repro``.

Every bench subcommand is a row of :data:`BENCHES`: the module that
implements it and the ``BENCH_*.json`` it writes.  Each of those
modules exposes the same three functions:

* ``add_arguments(parser)`` declares the flags that bench reads, and
  only those, range-checked by the argparse types below;
* ``run(config, args) -> dict`` maps the parsed flags onto the module's
  public ``run_*`` / ``benchmark_*`` entry point and returns its
  JSON-ready report;
* ``summary(report) -> list[str]`` renders the lines the CLI prints.

:func:`write_report` is the only place a ``BENCH_*.json`` is written.
It stamps every report with one ``environment`` block, because a
timing is evidence only next to the machine that produced it (a 0.955x
"speedup" at four jobs meant nothing until the file said one CPU).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import subprocess
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.columns import ColumnBatch
from repro.experiments.config import ExperimentConfig


class Bench(NamedTuple):
    """One row of the bench table."""

    module: str
    output: str

    def load(self):
        """The implementing module, imported on demand."""
        return importlib.import_module(self.module)


BENCHES: dict[str, Bench] = {
    "bench-parallel": Bench(
        "repro.experiments.parallel", "BENCH_parallel_sweep.json"
    ),
    "load-bench": Bench("repro.load.bench", "BENCH_load.json"),
    "segment-bench": Bench(
        "repro.segments.bench", "BENCH_segment_matching.json"
    ),
    "disjunction-bench": Bench(
        "repro.experiments.bench_disjunction", "BENCH_disjunction.json"
    ),
    "calibration-bench": Bench(
        "repro.experiments.bench_calibration", "BENCH_calibration.json"
    ),
}


def at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type=`` accepting integers ``>= minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse names the type in its error text
    return parse


def count_flag(
    parser: argparse.ArgumentParser,
    flag: str,
    minimum: int,
    default: int,
    help: str,
) -> None:
    """Declare an integer flag ``>= minimum`` whose help states its default."""
    parser.add_argument(
        flag,
        type=at_least(minimum),
        default=default,
        metavar="N",
        help=f"{help} (default: {default})",
    )


def positive_float(text: str) -> float:
    """An argparse ``type=`` accepting floats ``> 0``."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


#: The canonical JSON form digests are taken over: sorted keys, no
#: whitespace, repr-exact floats, ``str`` for anything JSON lacks.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=str
)


def rows_digest(results_rows: Iterable, ordered: bool = True) -> str:
    """A canonical digest of a list of result sets.

    Byte-identity across strategies, transports and process counts is
    asserted by digest equality: every configuration's rows serialize
    to the same canonical JSON or the gate fails.  ``ordered=False``
    sorts each result set first, for comparisons where the pushed SQL
    (and so the fetch order) may differ while the row *set* must not.
    """
    results = [[dict(row) for row in rows] for rows in results_rows]
    if not ordered:
        results = [sorted(rows, key=_CANONICAL.encode) for rows in results]
    return hashlib.sha256(_CANONICAL.encode(results).encode()).hexdigest()


def row_batches(
    rows: list[dict], total: int, batch_size: int
) -> list[ColumnBatch]:
    """``total`` rows in ``batch_size`` chunks, cycling the dataset."""
    repeats = -(-total // len(rows))
    stream = (rows * repeats)[:total]
    return [
        ColumnBatch(stream[start : start + batch_size])
        for start in range(0, total, batch_size)
    ]


def _git(*command: str) -> str | None:
    """Output of one git command in this package's checkout, or ``None``."""
    try:
        completed = subprocess.run(
            ["git", *command],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip()


def write_report(
    report: dict, path: str | Path, config: ExperimentConfig, scale: str
) -> Path:
    """Stamp ``report`` with its environment and write it to ``path``.

    ``dirty`` says whether the checkout differed from ``git_sha`` when
    the bench ran (``None`` outside a git checkout): a run that precedes
    its commit carries the parent's SHA, and must say so.
    """
    status = _git("status", "--porcelain")
    report["environment"] = {
        "git_sha": _git("rev-parse", "HEAD") or None,
        "dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scale": scale,
        "seed": config.seed,
    }
    path = Path(path)
    with path.open("w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return path


def run_bench(
    name: str, config: ExperimentConfig, args: argparse.Namespace
) -> None:
    """Run bench ``name``, print its summary, write its report file."""
    module = BENCHES[name].load()
    report = module.run(config, args)
    print(*module.summary(report), sep="\n")
    target = write_report(report, BENCHES[name].output, config, args.scale)
    print(f"wrote {target}")
