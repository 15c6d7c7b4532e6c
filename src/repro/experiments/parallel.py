"""Parallel sweep/derivation engine.

The Section 5 evaluation is a dataset x model-family grid of *independent*
measurements: each (dataset, family) task trains its own model, derives
its own envelopes, loads its own expanded table, and times its own
queries.  Nothing couples two tasks, so the grid shards cleanly across a
:class:`~concurrent.futures.ProcessPoolExecutor` — the same observation
that lets disjunctive-predicate engines evaluate independent branches
concurrently.

Workers are self-contained: each one regenerates its dataset from the
(picklable) :class:`~repro.experiments.config.ExperimentConfig`, opens its
own in-memory :class:`~repro.sql.database.Database`, trains, derives, and
measures.  Only the finished ``QueryMeasurement`` list crosses the process
boundary.  The parent merges results in configuration order, so the sweep
output is identical to the serial path modulo wall-clock fields (model
training, envelope derivation, dataset expansion, and plan selection are
all seeded and deterministic).

The worker count comes from ``REPRO_JOBS`` / ``--jobs`` (see
:func:`repro.experiments.config.default_jobs`); ``run_all`` falls back to
the serial path when it resolves to 1.
"""

from __future__ import annotations

import argparse
import os
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro import obs
from repro.experiments.config import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    default_jobs,
)
from repro.workload.measurement import QueryMeasurement

#: One independent unit of the sweep grid.
SweepTask = tuple[str, str]

#: ``QueryMeasurement`` fields that record wall-clock time.  Everything
#: else is deterministic, so serial and parallel sweeps must agree on it.
TIMING_FIELDS = frozenset(
    {"scan_seconds", "query_seconds", "derive_seconds"}
)


def sweep_tasks(config: ExperimentConfig) -> list[SweepTask]:
    """The (dataset, family) grid, in deterministic configuration order."""
    return [
        (dataset, family)
        for dataset in config.datasets
        for family in config.families
    ]


def measurement_key(measurement: QueryMeasurement) -> tuple:
    """All non-timing fields of a measurement, for determinism checks."""
    return tuple(
        getattr(measurement, name)
        for name in sorted(QueryMeasurement.__dataclass_fields__)
        if name not in TIMING_FIELDS
    )


def _execute_task(
    config: ExperimentConfig,
    dataset: str,
    family: str,
    trace_dir: str | None = None,
) -> list[QueryMeasurement]:
    """Worker entry point: run one self-contained (dataset, family) task.

    When the parent session is tracing, each worker writes its own
    per-task trace file (``trace_task_<dataset>__<family>.jsonl``) into
    the shared trace directory — the same shard-per-task layout as the
    sweep cache, merged deterministically by the reader's sorted-filename
    walk (:func:`repro.obs.trace_files`).
    """
    from repro.experiments import harness

    if trace_dir is not None:
        obs.configure(trace_dir, label=f"task_{dataset}__{family}")
    try:
        with obs.span("sweep.task", dataset=dataset, family=family):
            return harness.run_task(config, dataset, family)
    finally:
        if trace_dir is not None:
            obs.flush()


def run_tasks(
    config: ExperimentConfig,
    tasks: Sequence[SweepTask],
    jobs: int,
    on_result: Callable[[SweepTask, list[QueryMeasurement]], None]
    | None = None,
) -> dict[SweepTask, list[QueryMeasurement]]:
    """Run sweep tasks across ``jobs`` worker processes.

    ``on_result`` fires in the parent as each task completes (the harness
    uses it to persist per-task cache shards incrementally, so an
    interrupted sweep resumes from the finished tasks).  The returned
    mapping is keyed by task; callers merge in their own order, so the
    nondeterministic completion order never leaks into results.
    """
    results: dict[SweepTask, list[QueryMeasurement]] = {}
    if jobs <= 1 or len(tasks) <= 1:
        for dataset, family in tasks:
            measurements = _execute_task(config, dataset, family)
            results[(dataset, family)] = measurements
            if on_result is not None:
                on_result((dataset, family), measurements)
        return results
    # Workers cannot inherit the parent's tracer (the fork-safety guard
    # drops their writes), so hand them the directory and let each open
    # its own per-task file.
    trace_dir = obs.trace_directory()
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = {
            pool.submit(
                _execute_task, config, dataset, family, trace_dir
            ): (dataset, family)
            for dataset, family in tasks
        }
        for future in as_completed(futures):
            task = futures[future]
            measurements = future.result()
            results[task] = measurements
            if on_result is not None:
                on_result(task, measurements)
    return results


def benchmark_parallel_sweep(
    config: ExperimentConfig = DEFAULT_CONFIG,
    jobs: Iterable[int] = (1, 4),
    scale: str | None = None,
) -> dict:
    """Time the same sweep serially and in parallel; return the report.

    Disk and in-process caches are bypassed so every run measures real
    compute.  The report records per-run wall-clock, the speedup of each
    parallel run over the serial baseline, and whether all runs produced
    identical measurement sets (ignoring timing fields).
    """
    from repro.experiments import harness

    jobs_list = sorted(set(int(j) for j in jobs))
    if not jobs_list or jobs_list[0] < 1:
        raise ValueError(f"jobs must all be >= 1, got {jobs_list}")
    previous_cache = os.environ.get("REPRO_SWEEP_CACHE")
    os.environ["REPRO_SWEEP_CACHE"] = "off"
    runs: list[dict] = []
    keys: list[list[tuple]] = []
    try:
        for job_count in jobs_list:
            harness.clear_caches()
            started = time.perf_counter()
            measurements = harness.run_all(config, jobs=job_count)
            elapsed = time.perf_counter() - started
            runs.append(
                {
                    "jobs": job_count,
                    "seconds": elapsed,
                    "measurements": len(measurements),
                }
            )
            keys.append([measurement_key(m) for m in measurements])
    finally:
        if previous_cache is None:
            os.environ.pop("REPRO_SWEEP_CACHE", None)
        else:
            os.environ["REPRO_SWEEP_CACHE"] = previous_cache
        harness.clear_caches()
    serial_seconds = next(
        r["seconds"] for r in runs if r["jobs"] == jobs_list[0]
    )
    for run in runs:
        run["speedup_vs_first"] = (
            serial_seconds / run["seconds"] if run["seconds"] > 0 else None
        )
    return {
        "benchmark": "parallel_sweep",
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "tasks": len(sweep_tasks(config)),
        "datasets": list(config.datasets),
        "families": list(config.families),
        "rows_target": config.rows_target,
        "runs": runs,
        "identical_measurements": all(k == keys[0] for k in keys[1:]),
    }


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Nothing of its own: the parallel side is the shared ``--jobs``."""


def run(config: ExperimentConfig, args: argparse.Namespace) -> dict:
    parallel_jobs = default_jobs()
    if parallel_jobs <= 1:
        parallel_jobs = os.cpu_count() or 1
    return benchmark_parallel_sweep(
        config, jobs=(1, parallel_jobs), scale=args.scale
    )


def summary(report: dict) -> list[str]:
    return [
        f"jobs={run_['jobs']}: {run_['seconds']:.2f}s "
        f"({run_['measurements']} measurements, "
        f"speedup {run_['speedup_vs_first']:.2f}x)"
        for run_ in report["runs"]
    ] + [
        "identical measurement sets: "
        f"{report['identical_measurements']}"
    ]
