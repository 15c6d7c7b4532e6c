"""The ``load-bench`` CLI artifact (``BENCH_load.json``).

Open-loop counterpart to :mod:`repro.serve.bench`, answering the two
questions closed-loop replay cannot:

1. **Is the harness itself deterministic?**  The same seed must produce
   the identical arrival schedule (same offsets, float-for-float) and —
   replayed twice below capacity through the chosen transport —
   byte-identical result rows, gated by digest equality.
2. **What does admission control buy under overload?**  The *same*
   over-capacity schedule is replayed against a static
   :class:`~repro.serve.admission.AdmissionController` (the bounded
   queue alone) and against the
   :class:`~repro.serve.admission.AdaptiveAdmissionController` (AIMD
   concurrency limit plus deadline-aware shedding).  The bench gates on
   the adaptive controller achieving **strictly higher goodput and
   lower p99** on the same schedule, and on it converting queued
   timeouts (the expensive failure: callers burn their whole deadline)
   into admission-time sheds (the cheap one: callers learn instantly).

Rates and deadlines are **auto-calibrated** from a serial probe of the
actual machine — mean service time ``s̄`` gives capacity
``workers / s̄``; the determinism runs offer half of it, the overload
runs three times it, and the per-request deadline is
``max(8 s̄, 0.25 · max_pending · s̄ / workers)`` — far above a normal
round trip, far below the full-queue wait, so a static controller
*must* strand requests in queue past their deadlines under overload.
"""

from __future__ import annotations

import time

from repro import obs
from repro.exceptions import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import dataset_for, train_family
from repro.load.arrivals import (
    DEFAULT_BURST_DUTY,
    ArrivalSchedule,
    build_arrivals,
)
from repro.load.runner import LoadResult, run_load
from repro.load.slo import SLOReport, summarize_load
from repro.serve.bench import build_queries, build_schedule, rows_digest
from repro.serve.engine import DeployRequest, QueryRequest, ServeEngine
from repro.serve.registry import ModelRegistry
from repro.serve.router import ProcessRouter
from repro.serve.transport import (
    LoopbackTransport,
    TCPServer,
    connect_tcp,
    serve_socketpair,
)
from repro.workload.measurement import (
    FAMILY_DECISION_TREE,
    FAMILY_NAIVE_BAYES,
)
from repro.workload.runner import load_dataset

__all__ = ["run_load_bench"]

#: Offered-load multipliers relative to measured capacity.
DETERMINISM_FRACTION = 0.5
OVERLOAD_FACTOR = 3.0

#: Fraction of requests the adaptive run may still lose to queued
#: timeouts (estimator warm-up transients) and pass the "≈ 0" gate.
ADAPTIVE_TIMEOUT_TOLERANCE = 0.05


def _build_engine(
    db,
    registry,
    config: ExperimentConfig,
    workers: int,
    max_pending: int,
    **engine_options,
) -> ServeEngine:
    return ServeEngine(
        db,
        registry,
        workers=workers,
        max_pending=max_pending,
        selectivity_gate=config.selectivity_gate,
        **engine_options,
    )


def _load_router_bootstrap(
    config: ExperimentConfig, dataset_name: str, max_pending: int
):
    """One router worker's engine for the determinism section.

    Top-level (picklable); each worker rebuilds the dataset
    deterministically and receives models as deploy broadcasts.
    """
    dataset = dataset_for(config, dataset_name)
    loaded = load_dataset(dataset, config.rows_target)
    registry = ModelRegistry(max_nodes=config.max_nodes)
    return ServeEngine(
        loaded.db,
        registry,
        workers=2,
        max_pending=max_pending,
        selectivity_gate=config.selectivity_gate,
    )


def _report_row(report: SLOReport) -> dict:
    row = report.to_dict()
    row["latency_ms"] = {
        name: round(seconds * 1000.0, 3)
        for name, seconds in report.latency.items()
    }
    row["jitter_ms"] = {
        name: round(seconds * 1000.0, 3)
        for name, seconds in report.jitter.items()
    }
    del row["latency_seconds"], row["jitter_seconds"]
    for key in (
        "duration_seconds",
        "offered_rate",
        "goodput",
        "miss_rate",
        "shed_rate",
        "latency_mean_seconds",
        "latency_max_seconds",
        "queue_mean_seconds",
        "service_mean_seconds",
        "issue_lag_max_seconds",
    ):
        row[key] = round(row[key], 4)
    return row


def _run_open_loop(
    transport,
    queries,
    indices,
    schedule: ArrivalSchedule,
    deadline: float,
    keep_results: bool = False,
) -> "tuple[LoadResult, SLOReport]":
    requests = [
        QueryRequest(queries[index], timeout=deadline) for index in indices
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
    admission comparison always runs in-process, where the two
    controllers are the only variable).
    """
    with obs.span("load.bench", requests=requests, arrivals=arrivals):
        name = dataset_name or config.datasets[0]
        dataset = dataset_for(config, name)
        loaded = load_dataset(dataset, config.rows_target)
        db = loaded.db

        registry = ModelRegistry(max_nodes=config.max_nodes)
        model_payloads: list[dict] = []
        for family in (FAMILY_DECISION_TREE, FAMILY_NAIVE_BAYES):
            trained = train_family(dataset, family, config)
            model_payloads.append(trained.model.to_dict())
            registry.register(trained.model, deploy=True)

        queries = build_queries(registry, loaded)
        indices = build_schedule(len(queries), requests, config.seed)

        # -- serial capacity probe ------------------------------------
        # One warmed engine, one request at a time: mean service time
        # s̄ calibrates every rate and deadline below to this machine.
        probe = _build_engine(db, registry, config, 1, max_pending)
        try:
            for query in queries:  # warm plans + stats off the clock
                probe.execute(QueryRequest(query))
            started = time.perf_counter()
            for index in indices:
                probe.execute(QueryRequest(queries[index]))
            service_mean = (time.perf_counter() - started) / len(indices)
        finally:
            probe.shutdown()

        capacity = workers / service_mean
        if deadline is None:
            deadline = max(
                8.0 * service_mean,
                0.25 * max_pending * service_mean / workers,
            )
        # The determinism pass must never drop a request, so it is
        # sized against *peak* intensity, not the mean: burst arrivals
        # concentrate the whole mean rate into the duty fraction of
        # each period (instantaneous rate = rate / duty).
        peak_factor = (
            1.0 / DEFAULT_BURST_DUTY if arrivals == "burst" else 1.0
        )
        determinism_rate = DETERMINISM_FRACTION * capacity / peak_factor
        overload_rate = (
            rate if rate is not None else OVERLOAD_FACTOR * capacity
        )

        payload: dict = {
            "benchmark": "load",
            "dataset": dataset.name,
            "rows": loaded.rows_total,
            "models": registry.deployed_names(),
            "distinct_queries": len(queries),
            "requests": requests,
            "arrivals": arrivals,
            "seed": config.seed,
            "workers": workers,
            "max_pending": max_pending,
            "transport": transport,
            "calibration": {
                "service_mean_ms": round(service_mean * 1000.0, 3),
                "capacity_rps": round(capacity, 2),
                "deadline_ms": round(deadline * 1000.0, 3),
                "determinism_rate_rps": round(determinism_rate, 2),
                "overload_rate_rps": round(overload_rate, 2),
            },
        }

        payload["determinism"] = _determinism_section(
            config,
            name,
            db,
            registry,
            model_payloads,
            queries,
            indices,
            arrivals,
            determinism_rate,
            requests,
            deadline,
            transport,
            workers,
            max_pending,
            result_ttl,
        )
        payload["overload"] = _overload_section(
            db,
            registry,
            config,
            queries,
            indices,
            arrivals,
            overload_rate,
            requests,
            deadline,
            workers,
            max_pending,
        )
        db.close()
        return payload


def _determinism_section(
    config,
    dataset_name,
    db,
    registry,
    model_payloads,
    queries,
    indices,
    arrivals,
    rate,
    requests,
    deadline,
    transport,
    workers,
    max_pending,
    result_ttl,
) -> dict:
    """Same seed twice: identical offsets, byte-identical rows."""
    schedule_a = build_arrivals(arrivals, rate, requests, config.seed)
    schedule_b = build_arrivals(arrivals, rate, requests, config.seed)
    if schedule_a.offsets != schedule_b.offsets:
        raise ReproError(
            "load-bench: same-seed arrival schedules differ"
        )

    digests: list[str] = []
    reports: list[SLOReport] = []
    for _ in range(2):
        result, report = _run_determinism_pass(
            config,
            dataset_name,
            db,
            registry,
            model_payloads,
            queries,
            indices,
            schedule_a,
            deadline,
            transport,
            workers,
            max_pending,
            result_ttl,
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
            rows_digest(
                [r.result.rows for r in result.completed_records()]
            )
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
    config,
    dataset_name,
    db,
    registry,
    model_payloads,
    queries,
    indices,
    schedule,
    deadline,
    transport,
    workers,
    max_pending,
    result_ttl,
):
    """One below-capacity replay through the chosen transport."""
    if transport == "router":
        trace_dir = obs.trace_directory()
        router = ProcessRouter(
            _load_router_bootstrap,
            args=(config, dataset_name, max_pending),
            processes=2,
            trace_dir=None if trace_dir is None else str(trace_dir),
        )
        try:
            for payload in model_payloads:
                router.control(DeployRequest(model=payload))
            for query in queries:  # warm every worker replica
                router.request(QueryRequest(query))
            return _run_open_loop(
                router,
                queries,
                indices,
                schedule,
                deadline,
                keep_results=True,
            )
        finally:
            router.close()

    engine = _build_engine(
        db,
        registry,
        config,
        workers,
        max_pending,
        result_ttl=result_ttl,
    )
    server = None
    client = None
    try:
        for query in queries:  # warm this engine's caches
            engine.execute(QueryRequest(query))
        if transport == "inproc":
            client = LoopbackTransport(engine)
        elif transport == "socketpair":
            client, server = serve_socketpair(engine)
        elif transport == "tcp":
            server = TCPServer(engine)
            client = connect_tcp(*server.address)
        else:
            raise ReproError(
                f"load-bench: unknown transport {transport!r}"
            )
        return _run_open_loop(
            client, queries, indices, schedule, deadline, keep_results=True
        )
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.close()
        engine.shutdown()


def _overload_section(
    db,
    registry,
    config,
    queries,
    indices,
    arrivals,
    rate,
    requests,
    deadline,
    workers,
    max_pending,
) -> dict:
    """Static vs adaptive admission on the identical overload schedule.

    Collapsing is off for both engines so the comparison measures
    admission policy, not request dedup; both engines are warmed the
    same way (the warm-up also seeds the adaptive estimator).

    The gates pin a claim about *sustained* overload, so they are
    enforced only for the homogeneous arrival kinds (constant,
    poisson).  Under burst/ramp arrivals the instantaneous rate swings
    far from the mean — both controllers shed through the on-phases
    and idle between them, so the comparison is still reported but a
    gate miss is informational, not an error.
    """
    enforce_gates = arrivals in ("constant", "poisson")
    schedule = build_arrivals(arrivals, rate, requests, config.seed)
    reports: dict[str, SLOReport] = {}
    rows: dict[str, dict] = {}
    for admission in ("static", "adaptive"):
        engine = _build_engine(
            db,
            registry,
            config,
            workers,
            max_pending,
            admission=admission,
            collapsing=False,
        )
        try:
            for query in queries:
                engine.execute(QueryRequest(query))
            _, report = _run_open_loop(
                LoopbackTransport(engine),
                queries,
                indices,
                schedule,
                deadline,
            )
            reports[admission] = report
            row = _report_row(report)
            if admission == "adaptive":
                row["admission_limit_final"] = round(
                    engine.admission.limit, 2
                )
            rows[admission] = row
        finally:
            engine.shutdown()

    static, adaptive = reports["static"], reports["adaptive"]
    gates = {
        "adaptive_goodput_higher": adaptive.goodput > static.goodput,
        "adaptive_p99_lower": (
            adaptive.latency["p99"] < static.latency["p99"]
        ),
        "adaptive_sheds_at_admit": adaptive.shed > 0,
        "adaptive_queued_timeouts_near_zero": (
            adaptive.queued_timeout
            <= ADAPTIVE_TIMEOUT_TOLERANCE * requests
        ),
        "static_times_out_in_queue": static.queued_timeout > 0,
    }
    failed = sorted(name for name, passed in gates.items() if not passed)
    if failed and enforce_gates:
        raise ReproError(
            "load-bench: overload gates failed: "
            + ", ".join(failed)
            + f" (static goodput={static.goodput:.1f} "
            f"p99={static.latency['p99'] * 1000:.1f}ms "
            f"timeouts={static.queued_timeout} shed={static.shed}; "
            f"adaptive goodput={adaptive.goodput:.1f} "
            f"p99={adaptive.latency['p99'] * 1000:.1f}ms "
            f"timeouts={adaptive.queued_timeout} "
            f"shed={adaptive.shed})"
        )
    return {
        "rate_rps": round(rate, 2),
        "static": rows["static"],
        "adaptive": rows["adaptive"],
        "gates": gates,
        "gates_enforced": enforce_gates,
    }
