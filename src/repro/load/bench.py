"""The ``load-bench`` CLI artifact (``BENCH_load.json``).

Open-loop replay against the serving fixture, answering the two
questions a closed-loop client (issue, wait, issue again) cannot:

1. **Is the harness itself deterministic?**  The same seed must produce
   the identical arrival schedule (same offsets, float-for-float) and —
   replayed twice below capacity through the chosen transport —
   byte-identical result rows, gated by digest equality.
2. **What does admission control do under overload?**  An
   over-capacity schedule is replayed against the engine's
   :class:`~repro.serve.admission.AdmissionController` (AIMD
   concurrency limit plus deadline-aware shedding).  The bench gates on
   it refusing work at admission (the cheap failure: callers learn
   instantly) instead of letting requests time out in queue (the
   expensive one: callers burn their whole deadline).  DESIGN.md keeps
   the rows of the bounded-queue-only policy this one replaced.

Rates and deadlines are **auto-calibrated** from two probes of the
actual machine.  A serial probe gives the mean service time ``s̄``; a
closed-loop probe that keeps ``workers`` requests in flight against an
engine with ``workers`` threads *measures* capacity ``C`` (threads share
one interpreter lock, so ``workers / s̄`` overstates it — on two cores
two workers have been measured slower than one).  :func:`calibrate`
derives everything else from ``C``: the determinism runs offer half of
it, the overload runs three times it, and the per-request deadline is
``max(8 · workers / C, 0.25 · max_pending / C)`` — far above a normal
round trip at that concurrency, far below the full-queue wait, so a
bounded queue alone *must* strand requests in queue past their
deadlines under overload.

The dataset, deployed models, queries, router bootstrap and transport
switch are :mod:`repro.serve.fixture`'s :class:`ServingFixture` and
:func:`open_transport`; this module adds the open-loop replay and the
closed-loop capacity probe that sizes it.
"""

from __future__ import annotations

import argparse
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import closing
from dataclasses import dataclass

from repro import obs
from repro.core.optimizer import MiningQuery
from repro.exceptions import ReproError
from repro.experiments.benches import (
    count_flag,
    positive_float,
    rows_digest,
)
from repro.experiments.config import ExperimentConfig
from repro.load.arrivals import (
    DEFAULT_BURST_DUTY,
    ArrivalSchedule,
    build_arrivals,
)
from repro.load.runner import LoadResult, run_load
from repro.load.slo import SLOReport, summarize_load
from repro.serve.engine import QueryRequest, ServeResult
from repro.serve.fixture import (
    ServingFixture,
    add_engine_arguments,
    open_transport,
)
from repro.serve.transport import Transport

__all__ = ["calibrate", "run_load_bench"]

#: Offered-load multipliers relative to measured capacity.
DETERMINISM_FRACTION = 0.5
OVERLOAD_FACTOR = 3.0

#: Fraction of requests the overload run may still lose to queued
#: timeouts (estimator warm-up transients) and pass the "≈ 0" gate.
QUEUED_TIMEOUT_TOLERANCE = 0.05


@dataclass(frozen=True)
class LoadPlan:
    """What every replay of one load-bench run shares."""

    arrivals: str
    indices: list[int]
    workers: int
    deadline: float


def calibrate(
    capacity: float, workers: int, max_pending: int, arrivals: str
) -> tuple[float, float, float]:
    """``(deadline, determinism_rate, overload_rate)`` from a measurement.

    ``capacity`` is the throughput (requests/second) a closed-loop probe
    sustained with ``workers`` requests in flight, so by Little's law a
    request spends ``workers / capacity`` seconds in the engine at that
    concurrency.  Nothing here assumes threads scale: every rate is a
    fraction or multiple of what was measured.
    """
    in_engine = workers / capacity
    deadline = max(8.0 * in_engine, 0.25 * max_pending / capacity)
    # The determinism pass must never drop a request, so it is sized
    # against *peak* intensity, not the mean: burst arrivals concentrate
    # the whole mean rate into the duty fraction of each period
    # (instantaneous rate = rate / duty).
    peak_factor = 1.0 / DEFAULT_BURST_DUTY if arrivals == "burst" else 1.0
    return (
        deadline,
        DETERMINISM_FRACTION * capacity / peak_factor,
        OVERLOAD_FACTOR * capacity,
    )


def replay_closed_loop(
    transport: Transport,
    queries: list[MiningQuery],
    schedule: list[int],
    window: int,
) -> tuple[list[ServeResult], float]:
    """Replay the schedule through ``transport``, ``window`` in flight."""
    requests = [QueryRequest(query) for query in queries]
    ordered: list[Future] = []
    inflight: "deque[Future]" = deque()
    started = time.perf_counter()
    for index in schedule:
        if len(inflight) >= window:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in done:
                inflight.remove(future)
        future = transport.submit(requests[index])
        ordered.append(future)
        inflight.append(future)
    results = [future.result() for future in ordered]
    return results, time.perf_counter() - started


def _probe(
    fixture: ServingFixture, indices: list[int], workers: int
) -> tuple[float, float]:
    """``(serial seconds per request, closed-loop capacity in req/s)``.

    One warmed engine at the configured ``workers``, collapsing off so
    every request is executed: first the schedule one request at a time,
    then the same schedule with ``workers`` in flight.
    """
    with open_transport(
        "inproc", fixture, workers, collapsing=False
    ) as (client, _):
        started = time.perf_counter()
        for index in indices:
            client.request(QueryRequest(fixture.queries[index]))
        service_mean = (time.perf_counter() - started) / len(indices)
        _, seconds = replay_closed_loop(
            client, fixture.queries, indices, window=workers
        )
    return service_mean, len(indices) / seconds


def _report_row(report: SLOReport) -> dict:
    """``report.to_dict()`` with percentiles in ms and floats rounded."""
    row = {
        key: round(value, 4) if isinstance(value, float) else value
        for key, value in report.to_dict().items()
    }
    for name in ("latency", "jitter"):
        row[f"{name}_ms"] = {
            quantile: round(seconds * 1000.0, 3)
            for quantile, seconds in row.pop(f"{name}_seconds").items()
        }
    return row


def _run_open_loop(
    transport: Transport,
    fixture: ServingFixture,
    plan: LoadPlan,
    schedule: ArrivalSchedule,
    keep_results: bool = False,
) -> "tuple[LoadResult, SLOReport]":
    requests = [
        QueryRequest(fixture.queries[index], timeout=plan.deadline)
        for index in plan.indices
    ]
    result = run_load(
        transport, schedule, requests, keep_results=keep_results
    )
    return result, summarize_load(result)


def run_load_bench(
    config: ExperimentConfig,
    arrivals: str = "poisson",
    rate: float | None = None,
    requests: int = 200,
    workers: int = 2,
    max_pending: int = 64,
    deadline: float | None = None,
    transport: str = "inproc",
    dataset_name: str | None = None,
    result_ttl: float | None = None,
) -> dict:
    """The full open-loop bench; returns the ``BENCH_load.json`` payload.

    ``rate`` overrides the auto-calibrated overload rate; ``deadline``
    (seconds) overrides the auto-calibrated per-request deadline;
    ``transport`` picks the adapter for the determinism section (the
    overload section always runs in-process).
    """
    with obs.span(
        "load.bench", requests=requests, arrivals=arrivals
    ), closing(ServingFixture(config, dataset_name, max_pending)) as fixture:
        indices = fixture.schedule(requests)
        service_mean, capacity = _probe(fixture, indices, workers)
        auto_deadline, determinism_rate, overload_rate = calibrate(
            capacity, workers, max_pending, arrivals
        )
        plan = LoadPlan(
            arrivals=arrivals,
            indices=indices,
            workers=workers,
            deadline=auto_deadline if deadline is None else deadline,
        )
        if rate is not None:
            overload_rate = rate
        # Overload first, next to the probe that sized its deadline and
        # rate.  After forty half-idle seconds (the determinism passes,
        # or a plain sleep) this box serves its first saturated seconds
        # a third faster than the probe measured and then slows; the
        # service-time estimate lags that drift, and 10-13 of 150
        # requests time out in queue where 0-3 do straight after the
        # probe.
        overload = _overload_section(fixture, plan, overload_rate)
        return {
            "benchmark": "load",
            "dataset": fixture.loaded.dataset.name,
            "rows": fixture.loaded.rows_total,
            "models": fixture.registry.deployed_names(),
            "distinct_queries": len(fixture.queries),
            "requests": requests,
            "arrivals": arrivals,
            "seed": config.seed,
            "workers": workers,
            "max_pending": max_pending,
            "transport": transport,
            "calibration": {
                "service_mean_ms": round(service_mean * 1000.0, 3),
                "serial_rps": round(1.0 / service_mean, 2),
                "capacity_rps": round(capacity, 2),
                "deadline_ms": round(plan.deadline * 1000.0, 3),
                "determinism_rate_rps": round(determinism_rate, 2),
                "overload_rate_rps": round(overload_rate, 2),
            },
            "determinism": _determinism_section(
                fixture, plan, determinism_rate, transport, result_ttl
            ),
            "overload": overload,
        }


def _determinism_section(
    fixture: ServingFixture,
    plan: LoadPlan,
    rate: float,
    transport: str,
    result_ttl: float | None,
) -> dict:
    """Same seed twice: identical offsets, byte-identical rows."""
    seed = fixture.config.seed
    requests = len(plan.indices)
    schedule = build_arrivals(plan.arrivals, rate, requests, seed)
    again = build_arrivals(plan.arrivals, rate, requests, seed)
    if schedule.offsets != again.offsets:
        raise ReproError(
            "load-bench: same-seed arrival schedules differ"
        )

    digests: list[str] = []
    reports: list[SLOReport] = []
    for _ in range(2):
        result, report = _run_determinism_pass(
            fixture, plan, schedule, transport, result_ttl
        )
        dropped = (
            report.shed + report.queued_timeout + report.errors
        )
        if dropped:
            raise ReproError(
                "load-bench: determinism run dropped requests below "
                f"capacity (shed={report.shed} "
                f"timeouts={report.queued_timeout} "
                f"errors={report.errors})"
            )
        digests.append(
            rows_digest(r.result.rows for r in result.completed_records())
        )
        reports.append(report)
    if digests[0] != digests[1]:
        raise ReproError(
            "load-bench: same-seed replays produced different rows"
        )
    return {
        "transport": transport,
        "rate_rps": round(rate, 2),
        "offsets_identical": True,
        "rows_digest": digests[0],
        "rows_identical": True,
        "runs": [_report_row(report) for report in reports],
    }


def _run_determinism_pass(
    fixture: ServingFixture,
    plan: LoadPlan,
    schedule: ArrivalSchedule,
    transport: str,
    result_ttl: float | None,
) -> "tuple[LoadResult, SLOReport]":
    """One below-capacity replay through the chosen transport."""
    # A router's "workers" are processes; two, each with its own engine.
    workers = 2 if transport == "router" else plan.workers
    with open_transport(
        transport, fixture, workers, result_ttl=result_ttl
    ) as (client, _):
        return _run_open_loop(
            client, fixture, plan, schedule, keep_results=True
        )


def _overload_section(
    fixture: ServingFixture, plan: LoadPlan, rate: float
) -> dict:
    """Admission under an over-capacity schedule.

    Collapsing is off so the run measures admission policy, not request
    dedup; the warm-up also seeds the controller's service-time
    estimator.

    The gates pin a claim about *sustained* overload, so they are
    enforced only for the homogeneous arrival kinds (constant,
    poisson).  Under burst/ramp arrivals the instantaneous rate swings
    far from the mean — the controller sheds through the on-phases and
    idles between them, so the row is still reported but a gate miss
    is informational, not an error.
    """
    enforce_gates = plan.arrivals in ("constant", "poisson")
    requests = len(plan.indices)
    schedule = build_arrivals(
        plan.arrivals, rate, requests, fixture.config.seed
    )
    with open_transport(
        "inproc", fixture, plan.workers, collapsing=False
    ) as (client, engine):
        _, report = _run_open_loop(client, fixture, plan, schedule)
        row = _report_row(report)
        row["admission_limit_final"] = round(engine.admission.limit, 2)
    gates = {
        "sheds_at_admit": report.shed > 0,
        "queued_timeouts_near_zero": (
            report.queued_timeout <= QUEUED_TIMEOUT_TOLERANCE * requests
        ),
    }
    failed = sorted(name for name, passed in gates.items() if not passed)
    if failed and enforce_gates:
        raise ReproError(
            "load-bench: overload gates failed: "
            + ", ".join(failed)
            + f" (goodput={report.goodput:.1f} "
            f"p99={report.latency['p99'] * 1000:.1f}ms "
            f"timeouts={report.queued_timeout} shed={report.shed})"
        )
    return {
        "rate_rps": round(rate, 2),
        "admission": row,
        "gates": gates,
        "gates_enforced": enforce_gates,
    }


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_engine_arguments(parser)
    count_flag(parser, "--requests", 1, 400, "requests per run")
    parser.add_argument(
        "--transport",
        choices=("inproc", "socketpair", "tcp", "router"),
        default="inproc",
        help="the transport for the determinism section (default: inproc)",
    )
    parser.add_argument(
        "--arrivals",
        choices=("constant", "poisson", "burst", "ramp"),
        default="poisson",
        help="arrival process shape (default: poisson)",
    )
    parser.add_argument(
        "--rate",
        type=positive_float,
        default=None,
        metavar="RPS",
        help="offered overload rate in requests/second "
        "(default: 3x the measured capacity)",
    )
    parser.add_argument(
        "--deadline",
        type=positive_float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline "
        "(default: calibrated from the measured capacity)",
    )


def run(config: ExperimentConfig, args: argparse.Namespace) -> dict:
    return run_load_bench(
        config,
        arrivals=args.arrivals,
        rate=args.rate,
        requests=args.requests,
        workers=args.workers,
        deadline=args.deadline,
        transport=args.transport,
        result_ttl=args.result_ttl,
    )


def summary(report: dict) -> list[str]:
    calibration = report["calibration"]
    determinism = report["determinism"]
    overload = report["overload"]
    lines = [
        f"calibration: service mean "
        f"{calibration['service_mean_ms']:.2f}ms, capacity "
        f"{calibration['capacity_rps']:.0f} req/s at "
        f"{report['workers']} workers "
        f"(serial {calibration['serial_rps']:.0f} req/s), deadline "
        f"{calibration['deadline_ms']:.1f}ms",
        f"determinism[{determinism['transport']}] at "
        f"{determinism['rate_rps']:.0f} req/s: offsets identical "
        f"{determinism['offsets_identical']}, rows identical "
        f"{determinism['rows_identical']}",
    ]
    row = overload["admission"]
    lines.append(
        f"overload at {overload['rate_rps']:.0f} "
        f"req/s: goodput {row['goodput']:.1f} req/s, p99 "
        f"{row['latency_ms']['p99']:.1f}ms, shed "
        f"{row['shed']}, queued timeouts "
        f"{row['queued_timeout']}, late {row['late']}"
    )
    passed = sorted(name for name, ok in overload["gates"].items() if ok)
    missed = sorted(name for name, ok in overload["gates"].items() if not ok)
    lines.append("gates passed: " + (", ".join(passed) or "none"))
    if missed:
        lines.append(
            "gates informational (bursty arrivals, not enforced): "
            + ", ".join(missed)
        )
    return lines
