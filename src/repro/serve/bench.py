"""Serving throughput benchmark (the ``serve-bench`` CLI artifact).

Measures what the serving layer buys over the one-query-at-a-time
executor the earlier PRs benchmarked: a *serial baseline* executes a
request schedule through a single :class:`~repro.sql.miningext.
PredictionJoinExecutor` loop, then the same schedule is replayed through
a :class:`~repro.serve.service.QueryService` at increasing worker
counts.  Every concurrent result is checked **bit-identical** to its
serial counterpart, and the run asserts zero shed requests — the
submission loop is closed-loop, keeping in-flight requests at or below
the admission limit.

The schedule is a deterministic hot-skewed mix (a Zipf-ish draw with a
fixed seed) over K distinct ``(model, label)`` prediction-join queries —
the shape of real serving traffic, where a handful of hot queries
dominate.  On a single CPU the speedup comes from cross-request
amortization, not parallelism: concurrent duplicates collapse onto
in-flight executions, and the micro-batcher coalesces residual scoring
into shared ``predict_batch`` calls.

On top of the thread-scaling runs, the bench replays the same schedule
through every **transport** (in-process loopback, socketpair, TCP) and
through the multi-process **router** at 1/2/N worker processes, gating
on byte-identical results everywhere: every configuration's result rows
are digested over their canonical JSON and compared to the serial
baseline's digest.  On a 1-CPU box the router buys no speedup — the
matrix is a *determinism* gate (multicore cashes the speedup later),
recorded in ``BENCH_serving.json`` under ``"transports"`` /
``"router"`` / ``"transport_matrix"``.

``run_serving_bench`` returns the JSON-ready payload written to
``BENCH_serving.json`` by ``python -m repro serve-bench``.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait

import numpy as np

from repro import obs
from repro.core.optimizer import MiningQuery
from repro.core.predicates import Comparison, Op
from repro.core.rewrite import PredictionEquals
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    dataset_for,
    numeric_feature_columns,
    train_family,
)
from repro.exceptions import ReproError
from repro.serve.engine import (
    DeployRequest,
    QueryRequest,
    ServeEngine,
)
from repro.serve.registry import ModelRegistry
from repro.serve.router import ProcessRouter
from repro.serve.service import QueryService, ServeResult
from repro.serve.transport import (
    LoopbackTransport,
    TCPServer,
    connect_tcp,
    serve_socketpair,
)
from repro.sql.miningext import PredictionJoinExecutor
from repro.sql.plancache import PlanCache
from repro.workload.measurement import (
    FAMILY_DECISION_TREE,
    FAMILY_NAIVE_BAYES,
)
from repro.workload.runner import LoadedDataset, load_dataset

#: Skew exponent of the request mix; ~Zipf, heavier than uniform but not
#: a single-query degenerate workload.
SKEW = 1.1


def build_queries(
    registry: ModelRegistry, loaded: "LoadedDataset"
) -> list[MiningQuery]:
    """Distinct prediction-join queries over the deployed models.

    Per ``(model, label)`` pair: the bare prediction join plus variants
    with a relational range predicate over a numeric feature column, so
    the schedule's query space is wide enough that collapsing has to earn
    its hits on genuinely repeated queries, not a degenerate workload.
    """
    cutoffs = _relational_cutoffs(loaded)
    queries: list[MiningQuery] = []
    for name in registry.deployed_names():
        version = registry.deployed_version(name)
        assert version is not None and version.envelopes is not None
        table = loaded.table
        for label in sorted(version.envelopes, key=str):
            mining = (PredictionEquals(name, label),)
            queries.append(MiningQuery(table, mining_predicates=mining))
            for column, value in cutoffs:
                queries.append(
                    MiningQuery(
                        table,
                        relational_predicate=Comparison(
                            column, Op.LE, value
                        ),
                        mining_predicates=mining,
                    )
                )
    return queries


def _relational_cutoffs(
    loaded: "LoadedDataset",
) -> list[tuple[str, float]]:
    """Median cutoffs on up to two numeric feature columns."""
    dataset = loaded.dataset
    columns = numeric_feature_columns(dataset)[:2]
    cutoffs = []
    for column in columns:
        values = sorted(row[column] for row in dataset.train_rows)
        cutoffs.append((column, values[len(values) // 2]))
    return cutoffs


def build_schedule(
    n_queries: int, requests: int, seed: int
) -> list[int]:
    """A deterministic hot-skewed request schedule (query indices)."""
    ranks = np.arange(1, n_queries + 1, dtype=np.float64)
    weights = ranks**-SKEW
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(n_queries, size=requests, p=weights)]


def _percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q) * 1000.0)


def _latency_summary(latencies: list[float]) -> dict:
    return {
        "p50_ms": round(_percentile_ms(latencies, 50), 3),
        "p95_ms": round(_percentile_ms(latencies, 95), 3),
        "p99_ms": round(_percentile_ms(latencies, 99), 3),
    }


def rows_digest(results_rows: "list[tuple]") -> str:
    """A canonical digest of an ordered result-set list.

    Byte-identity across transports and process counts is asserted by
    digest equality: every configuration's rows serialize to the same
    canonical JSON (sorted keys, repr-exact floats) or the gate fails.
    """
    payload = json.dumps(
        [[dict(row) for row in rows] for rows in results_rows],
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _router_bootstrap(
    config: ExperimentConfig, dataset_name: str, max_pending: int
):
    """Build one worker's engine: fresh dataset, empty registry replica.

    Top-level so the router can ship it to worker processes; the
    dataset rebuild is deterministic (same config, same seed), and
    models arrive afterwards as deploy broadcasts — the worker never
    sees a pickled model object.
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


def _run_serial(
    executor: PredictionJoinExecutor,
    queries: list[MiningQuery],
    schedule: list[int],
) -> tuple[list[tuple], float, list[float]]:
    """Execute the schedule one request at a time; the baseline."""
    results: list[tuple] = []
    latencies: list[float] = []
    started = time.perf_counter()
    for index in schedule:
        request_started = time.perf_counter()
        results.append(executor.execute(queries[index]).rows)
        latencies.append(time.perf_counter() - request_started)
    return results, time.perf_counter() - started, latencies


def _run_transport(
    transport,
    queries: list[MiningQuery],
    schedule: list[int],
    window: int,
) -> tuple[list[ServeResult], float]:
    """Replay the schedule closed-loop through one transport adapter."""
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


def run_serving_bench(
    config: ExperimentConfig,
    workers: tuple[int, ...] = (1, 2, 4),
    requests: int = 400,
    max_pending: int = 64,
    dataset_name: str | None = None,
    transports: tuple[str, ...] = ("inproc", "socketpair", "tcp"),
    processes: int = 0,
    result_ttl: float | None = None,
) -> dict:
    """The full benchmark: deploy, baseline, concurrent runs, verify.

    ``transports`` selects which adapters replay the schedule (any of
    ``inproc`` / ``socketpair`` / ``tcp``); ``processes`` > 0 also runs
    the multi-process router at 1/2/``processes`` workers.  Every
    configuration is gated byte-identical to the serial baseline.
    ``result_ttl`` turns the engine-side result cache on for the
    service and transport runs — safe for the identity gates, because
    a cached hit returns the original result object.
    """
    with obs.span("serve.bench", requests=requests):
        name = dataset_name or config.datasets[0]
        dataset = dataset_for(config, name)
        loaded = load_dataset(dataset, config.rows_target)
        db = loaded.db

        registry = ModelRegistry(max_nodes=config.max_nodes)
        deploy_seconds = 0.0
        model_payloads: list[dict] = []
        for family in (FAMILY_DECISION_TREE, FAMILY_NAIVE_BAYES):
            trained = train_family(dataset, family, config)
            model_payloads.append(trained.model.to_dict())
            deploy_started = time.perf_counter()
            registry.register(trained.model, deploy=True)
            deploy_seconds += time.perf_counter() - deploy_started

        queries = build_queries(registry, loaded)
        schedule = build_schedule(len(queries), requests, config.seed)

        # Serial baseline: one executor, one connection, no service.
        serial_executor = PredictionJoinExecutor(
            db,
            registry.catalog,
            selectivity_gate=config.selectivity_gate,
            plan_cache=PlanCache(256),
        )
        for query in queries:  # warm-up: stats + plans, off the clock
            serial_executor.execute(query)
        serial_rows, serial_seconds, serial_latencies = _run_serial(
            serial_executor, queries, schedule
        )
        serial_throughput = requests / serial_seconds

        payload: dict = {
            "benchmark": "serving",
            "dataset": dataset.name,
            "rows": loaded.rows_total,
            "models": registry.deployed_names(),
            "distinct_queries": len(queries),
            "requests": requests,
            "max_pending": max_pending,
            "skew": SKEW,
            "deploy_seconds": round(deploy_seconds, 4),
            "serial": {
                "seconds": round(serial_seconds, 4),
                "throughput_rps": round(serial_throughput, 2),
                **_latency_summary(serial_latencies),
            },
            "runs": [],
        }

        for worker_count in workers:
            service = QueryService(
                db,
                registry,
                workers=worker_count,
                max_pending=max_pending,
                selectivity_gate=config.selectivity_gate,
                result_ttl=result_ttl,
            )
            try:
                for query in queries:  # warm-up this service's caches
                    service.execute(query)
                results, seconds = _run_transport(
                    LoopbackTransport(service.engine),
                    queries,
                    schedule,
                    window=max_pending,
                )
                stats = service.stats.snapshot()
                batcher = service.batcher
            finally:
                clean = service.shutdown()
            if not clean:
                raise ReproError(
                    f"serve-bench: unclean shutdown at {worker_count} workers"
                )
            mismatches = sum(
                1
                for result, expected in zip(results, serial_rows)
                if result.rows != expected
            )
            if mismatches:
                raise ReproError(
                    f"serve-bench: {mismatches} results differ from serial "
                    f"execution at {worker_count} workers"
                )
            if stats["shed"] or stats["timeouts"] or stats["errors"]:
                raise ReproError(
                    "serve-bench: dropped requests below the admission "
                    f"limit at {worker_count} workers: {stats}"
                )
            latencies = [
                r.queue_seconds + r.execute_seconds for r in results
            ]
            throughput = requests / seconds
            payload["runs"].append(
                {
                    "workers": worker_count,
                    "seconds": round(seconds, 4),
                    "throughput_rps": round(throughput, 2),
                    "speedup_vs_serial": round(
                        throughput / serial_throughput, 3
                    ),
                    **_latency_summary(latencies),
                    "collapsed": stats["collapsed"],
                    "completed": stats["completed"],
                    "shed": stats["shed"],
                    "timeouts": stats["timeouts"],
                    "batch_calls": batcher.calls,
                    "batch_requests": batcher.requests,
                    "batch_coalesced": batcher.coalesced,
                    "identical_to_serial": True,
                }
            )

        by_workers = {run["workers"]: run for run in payload["runs"]}
        best = max(run["speedup_vs_serial"] for run in payload["runs"])
        payload["best_speedup_vs_serial"] = best
        if 4 in by_workers:
            payload["speedup_at_4_workers"] = by_workers[4][
                "speedup_vs_serial"
            ]

        serial_digest = rows_digest(serial_rows)
        payload["serial"]["rows_digest"] = serial_digest
        matrix: dict[str, bool] = {}

        payload["transports"] = []
        if transports:
            engine = ServeEngine(
                db,
                registry,
                workers=2,
                max_pending=max_pending,
                selectivity_gate=config.selectivity_gate,
                result_ttl=result_ttl,
            )
            try:
                for query in queries:  # warm the shared engine once
                    engine.execute(QueryRequest(query))
                for transport_name in transports:
                    server = None
                    if transport_name == "inproc":
                        client = LoopbackTransport(engine)
                    elif transport_name == "socketpair":
                        client, server = serve_socketpair(engine)
                    elif transport_name == "tcp":
                        server = TCPServer(engine)
                        client = connect_tcp(*server.address)
                    else:
                        raise ReproError(
                            f"serve-bench: unknown transport "
                            f"{transport_name!r}"
                        )
                    try:
                        results, seconds = _run_transport(
                            client, queries, schedule, window=max_pending
                        )
                    finally:
                        client.close()
                        if server is not None:
                            server.close()
                    digest = rows_digest([r.rows for r in results])
                    if digest != serial_digest:
                        raise ReproError(
                            "serve-bench: transport "
                            f"{transport_name!r} results differ from "
                            "serial execution"
                        )
                    matrix[transport_name] = True
                    latencies = [
                        r.queue_seconds + r.execute_seconds
                        for r in results
                    ]
                    payload["transports"].append(
                        {
                            "transport": transport_name,
                            "seconds": round(seconds, 4),
                            "throughput_rps": round(
                                requests / seconds, 2
                            ),
                            **_latency_summary(latencies),
                            "rows_digest": digest,
                            "identical_to_serial": True,
                        }
                    )
            finally:
                engine.shutdown()

        payload["router"] = []
        if processes > 0:
            process_counts = tuple(
                sorted({1, 2, processes} & set(range(1, processes + 1)))
            )
            trace_dir = obs.trace_directory()
            for process_count in process_counts:
                router = ProcessRouter(
                    _router_bootstrap,
                    args=(config, name, max_pending),
                    processes=process_count,
                    trace_dir=None
                    if trace_dir is None
                    else str(trace_dir),
                )
                try:
                    for model_payload in model_payloads:
                        router.control(DeployRequest(model=model_payload))
                    for query in queries:  # warm every worker's caches
                        router.request(QueryRequest(query))
                    results, seconds = _run_transport(
                        router, queries, schedule, window=max_pending
                    )
                finally:
                    router.close()
                digest = rows_digest([r.rows for r in results])
                if digest != serial_digest:
                    raise ReproError(
                        f"serve-bench: router({process_count}) results "
                        "differ from serial execution"
                    )
                matrix[f"router-{process_count}"] = True
                latencies = [
                    r.queue_seconds + r.execute_seconds for r in results
                ]
                payload["router"].append(
                    {
                        "processes": process_count,
                        "seconds": round(seconds, 4),
                        "throughput_rps": round(requests / seconds, 2),
                        **_latency_summary(latencies),
                        "rows_digest": digest,
                        "identical_to_serial": True,
                    }
                )

        payload["transport_matrix"] = matrix
        db.close()
        return payload
