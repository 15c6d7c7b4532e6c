"""Serving throughput benchmark (the ``serve-bench`` CLI artifact).

Measures what the serving layer buys over the one-query-at-a-time
executor the earlier PRs benchmarked: a *serial baseline* executes a
request schedule through a single :class:`~repro.sql.miningext.
PredictionJoinExecutor` loop, then the same schedule is replayed through
a :class:`~repro.serve.engine.ServeEngine` at increasing worker
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

This module also owns what every serving bench and the ``serve``
subcommand share: :class:`ServingFixture` (the loaded table, the
registry with tree + NB deployed, the query mix), the one router-worker
bootstrap and :func:`open_transport`, the one inproc / socketpair / tcp
/ router switch.  :mod:`repro.load.bench` replays against the same
fixture open-loop.

``run_serving_bench`` returns the JSON-ready payload written to
``BENCH_serving.json`` by ``python -m repro serve-bench``.
"""

from __future__ import annotations

import argparse
import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import closing, contextmanager

import numpy as np

from repro import obs
from repro.core.optimizer import MiningQuery
from repro.core.predicates import TRUE, Comparison, Op
from repro.core.rewrite import PredictionEquals
from repro.exceptions import ReproError
from repro.experiments.benches import count_flag, rows_digest
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    dataset_for,
    numeric_feature_columns,
    train_family,
)
from repro.serve.engine import (
    DeployRequest,
    QueryRequest,
    ServeEngine,
    ServeResult,
)
from repro.serve.registry import ModelRegistry
from repro.serve.router import ProcessRouter
from repro.serve.transport import (
    LoopbackTransport,
    TCPServer,
    Transport,
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
    with a relational range predicate (the median of up to two numeric
    feature columns), so the schedule's query space is wide enough that
    collapsing has to earn its hits on genuinely repeated queries, not
    a degenerate workload.
    """
    dataset = loaded.dataset
    cutoffs = []
    for column in numeric_feature_columns(dataset)[:2]:
        values = sorted(row[column] for row in dataset.train_rows)
        cutoffs.append(Comparison(column, Op.LE, values[len(values) // 2]))
    queries: list[MiningQuery] = []
    for name in registry.deployed_names():
        version = registry.deployed_version(name)
        assert version is not None and version.envelopes is not None
        for label in sorted(version.envelopes, key=str):
            mining = (PredictionEquals(name, label),)
            for relational in (TRUE, *cutoffs):
                queries.append(
                    MiningQuery(
                        loaded.table,
                        relational_predicate=relational,
                        mining_predicates=mining,
                    )
                )
    return queries


class ServingFixture:
    """What every serving bench replays against, built once.

    One dataset loaded into its table, a registry with the decision
    tree and the naive-Bayes model trained and deployed, their wire
    payloads (what a router broadcasts to its workers), and the
    distinct queries over them.  ``max_pending`` is the admission bound
    of every engine the fixture builds; its default is
    :class:`~repro.serve.engine.ServeEngine`'s own.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        dataset_name: str | None = None,
        max_pending: int = 128,
    ) -> None:
        self.config = config
        self.dataset_name = dataset_name or config.datasets[0]
        self.max_pending = max_pending
        dataset = dataset_for(config, self.dataset_name)
        self.loaded = load_dataset(dataset, config.rows_target)
        self.registry = ModelRegistry(max_nodes=config.max_nodes)
        self.model_payloads: list[dict] = []
        self.deploy_seconds = 0.0
        for family in (FAMILY_DECISION_TREE, FAMILY_NAIVE_BAYES):
            trained = train_family(dataset, family, config)
            self.model_payloads.append(trained.model.to_dict())
            started = time.perf_counter()
            self.registry.register(trained.model, deploy=True)
            self.deploy_seconds += time.perf_counter() - started
        self.queries = build_queries(self.registry, self.loaded)

    def schedule(self, requests: int) -> list[int]:
        """A deterministic hot-skewed request schedule (query indices)."""
        ranks = np.arange(1, len(self.queries) + 1, dtype=np.float64)
        weights = ranks**-SKEW
        weights /= weights.sum()
        rng = np.random.default_rng(self.config.seed)
        draws = rng.choice(len(self.queries), size=requests, p=weights)
        return [int(index) for index in draws]

    def engine(self, workers: int, **options) -> ServeEngine:
        """A fresh engine over the fixture's table and registry."""
        return ServeEngine(
            self.loaded.db,
            self.registry,
            workers=workers,
            max_pending=self.max_pending,
            selectivity_gate=self.config.selectivity_gate,
            **options,
        )

    def close(self) -> None:
        self.loaded.db.close()


def router_bootstrap(
    config: ExperimentConfig, dataset_name: str, max_pending: int
) -> ServeEngine:
    """Build one router worker's engine: fresh dataset, empty registry.

    Top-level so the router can ship it to worker processes; the
    dataset rebuild is deterministic (same config, same seed), and
    models arrive afterwards as deploy broadcasts — the worker never
    sees a pickled model object.
    """
    dataset = dataset_for(config, dataset_name)
    loaded = load_dataset(dataset, config.rows_target)
    return ServeEngine(
        loaded.db,
        ModelRegistry(max_nodes=config.max_nodes),
        workers=2,
        max_pending=max_pending,
        selectivity_gate=config.selectivity_gate,
    )


@contextmanager
def open_transport(
    kind: str, fixture: ServingFixture, workers: int, **engine_options
) -> Iterator[tuple[Transport, ServeEngine | None]]:
    """``(client, engine)`` for transport ``kind``, warmed; closed on exit.

    ``inproc`` / ``socketpair`` / ``tcp`` front a fresh engine with
    ``workers`` threads and ``engine_options``.  ``router`` has no
    engine on this side (``None``): it spawns ``workers`` *processes*
    from :func:`router_bootstrap` and deploys the fixture's models to
    every replica.
    """
    engine = client = server = None
    try:
        if kind == "router":
            trace_dir = obs.trace_directory()
            client = ProcessRouter(
                router_bootstrap,
                args=(
                    fixture.config,
                    fixture.dataset_name,
                    fixture.max_pending,
                ),
                processes=workers,
                trace_dir=None if trace_dir is None else str(trace_dir),
            )
            for payload in fixture.model_payloads:
                client.control(DeployRequest(model=payload))
        else:
            engine = fixture.engine(workers, **engine_options)
            if kind == "inproc":
                client = LoopbackTransport(engine)
            elif kind == "socketpair":
                client, server = serve_socketpair(engine)
            elif kind == "tcp":
                server = TCPServer(engine)
                client = connect_tcp(*server.address)
            else:
                raise ReproError(f"unknown transport {kind!r}")
        # Plans, statistics and envelope lookups are cached off the
        # clock, so a timed replay measures serving, not set-up.
        for query in fixture.queries:
            client.request(QueryRequest(query))
        yield client, engine
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.close()
        if engine is not None:
            engine.shutdown()


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


def _timing(seconds: float, latencies: list[float]) -> dict:
    milliseconds = np.asarray(latencies) * 1000.0
    return {
        "seconds": round(seconds, 4),
        "throughput_rps": round(len(latencies) / seconds, 2),
        **{
            f"p{q}_ms": round(float(np.percentile(milliseconds, q)), 3)
            for q in (50, 95, 99)
        },
    }


def _replay_entry(
    label: str,
    transport: Transport,
    fixture: ServingFixture,
    schedule: list[int],
    serial: dict,
) -> dict:
    """Replay through one configuration; gate on the serial digest."""
    results, seconds = replay_closed_loop(
        transport, fixture.queries, schedule, window=fixture.max_pending
    )
    digest = rows_digest(result.rows for result in results)
    if digest != serial["rows_digest"]:
        raise ReproError(
            f"serve-bench: {label} results differ from serial execution"
        )
    entry = _timing(
        seconds, [r.queue_seconds + r.execute_seconds for r in results]
    )
    return {
        **entry,
        "speedup_vs_serial": round(
            len(schedule) / seconds / serial["throughput"], 3
        ),
        "rows_digest": digest,
        "identical_to_serial": True,
    }


def _engine_entry(
    fixture: ServingFixture,
    workers: int,
    kind: str,
    schedule: list[int],
    serial: dict,
    result_ttl: float | None,
) -> dict:
    """One engine behind transport ``kind``; nothing may be dropped."""
    label = f"{kind} at {workers} workers"
    with open_transport(
        kind, fixture, workers, result_ttl=result_ttl
    ) as (client, engine):
        entry = _replay_entry(label, client, fixture, schedule, serial)
        stats = engine.stats.snapshot()
        batcher = engine.batcher
        if not engine.shutdown():
            raise ReproError(f"serve-bench: unclean shutdown, {label}")
    if stats["shed"] or stats["timeouts"] or stats["errors"]:
        raise ReproError(
            "serve-bench: dropped requests below the admission limit, "
            f"{label}: {stats}"
        )
    return {
        **entry,
        "collapsed": stats["collapsed"],
        "completed": stats["completed"],
        "shed": stats["shed"],
        "timeouts": stats["timeouts"],
        "batch_calls": batcher.calls,
        "batch_requests": batcher.requests,
        "batch_coalesced": batcher.coalesced,
    }


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
    ``inproc`` / ``socketpair`` / ``tcp``, each in front of its own
    two-worker engine); ``processes`` > 0 also runs the multi-process
    router at 1/2/``processes`` workers.  Every configuration is gated
    byte-identical to the serial baseline.  ``result_ttl`` turns the
    engine-side result cache on for the worker-ladder and transport
    runs — safe for the identity gates, because a cached hit returns
    the original result object.
    """
    with obs.span("serve.bench", requests=requests), closing(
        ServingFixture(config, dataset_name, max_pending)
    ) as fixture:
        queries = fixture.queries
        schedule = fixture.schedule(requests)

        # Serial baseline: one executor, one connection, no service.
        executor = PredictionJoinExecutor(
            fixture.loaded.db,
            fixture.registry.catalog,
            selectivity_gate=config.selectivity_gate,
            plan_cache=PlanCache(256),
        )
        for query in queries:  # warm-up: stats + plans, off the clock
            executor.execute(query)
        serial_rows: list = []
        latencies: list[float] = []
        started = time.perf_counter()
        for index in schedule:
            request_started = time.perf_counter()
            serial_rows.append(executor.execute(queries[index]).rows)
            latencies.append(time.perf_counter() - request_started)
        serial_seconds = time.perf_counter() - started
        serial = {
            "throughput": requests / serial_seconds,
            "rows_digest": rows_digest(serial_rows),
        }

        runs = [
            {
                "workers": count,
                **_engine_entry(
                    fixture, count, "inproc", schedule, serial, result_ttl
                ),
            }
            for count in workers
        ]
        transport_runs = [
            {
                "transport": kind,
                **_engine_entry(
                    fixture, 2, kind, schedule, serial, result_ttl
                ),
            }
            for kind in transports
        ]
        router_runs = []
        for count in sorted({1, 2, processes} & set(range(1, processes + 1))):
            with open_transport("router", fixture, count) as (router, _):
                entry = _replay_entry(
                    f"router({count})", router, fixture, schedule, serial
                )
            router_runs.append({"processes": count, **entry})

        by_workers = {run["workers"]: run for run in runs}
        return {
            "benchmark": "serving",
            "dataset": fixture.loaded.dataset.name,
            "rows": fixture.loaded.rows_total,
            "models": fixture.registry.deployed_names(),
            "distinct_queries": len(queries),
            "requests": requests,
            "max_pending": max_pending,
            "skew": SKEW,
            "deploy_seconds": round(fixture.deploy_seconds, 4),
            "serial": {
                **_timing(serial_seconds, latencies),
                "rows_digest": serial["rows_digest"],
            },
            "runs": runs,
            "best_speedup_vs_serial": max(
                run["speedup_vs_serial"] for run in runs
            ),
            # Always present: the report's shape must not depend on
            # which worker counts were run.
            "speedup_at_4_workers": by_workers.get(4, {}).get(
                "speedup_vs_serial"
            ),
            "transports": transport_runs,
            "router": router_runs,
            "transport_matrix": {
                **{kind: True for kind in transports},
                **{f"router-{run['processes']}": True for run in router_runs},
            },
        }


def add_engine_arguments(
    parser: argparse.ArgumentParser,
    workers_help: str = "engine worker threads",
) -> None:
    """``--workers`` / ``--result-ttl``: what every served command reads."""
    count_flag(parser, "--workers", 1, 4, workers_help)
    parser.add_argument(
        "--result-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cache identical results for this long (default: off)",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_engine_arguments(
        parser, "largest engine worker count of the 1/2/N ladder"
    )
    count_flag(parser, "--requests", 1, 400, "requests per run")
    parser.add_argument(
        "--transport",
        choices=("inproc", "socketpair", "tcp", "all"),
        default="all",
        help="which transport adapters to replay the schedule through "
        "(default: all)",
    )
    count_flag(
        parser,
        "--processes",
        0,
        0,
        "also run the multi-process router at 1/2/N worker processes; "
        "0 skips it",
    )


def run(config: ExperimentConfig, args: argparse.Namespace) -> dict:
    return run_serving_bench(
        config,
        workers=tuple(
            sorted(w for w in {1, 2, args.workers} if w <= args.workers)
        ),
        requests=args.requests,
        transports=(
            ("inproc", "socketpair", "tcp")
            if args.transport == "all"
            else (args.transport,)
        ),
        processes=args.processes,
        result_ttl=args.result_ttl,
    )


def summary(report: dict) -> list[str]:
    def rate(entry: dict) -> str:
        return (
            f"{entry['seconds']:.2f}s "
            f"({entry['throughput_rps']:.1f} req/s, "
            f"speedup {entry['speedup_vs_serial']:.2f}x, "
            f"identical: {entry['identical_to_serial']})"
        )

    serial = report["serial"]
    lines = [
        f"serial: {serial['seconds']:.2f}s "
        f"({serial['throughput_rps']:.1f} req/s, "
        f"p50 {serial['p50_ms']:.1f}ms)"
    ]
    for entry in report["runs"]:
        lines.append(
            f"workers={entry['workers']}: {rate(entry)}, "
            f"collapsed {entry['collapsed']}, "
            f"coalesced {entry['batch_coalesced']}"
        )
    lines.append(
        f"best speedup vs serial: {report['best_speedup_vs_serial']:.2f}x"
    )
    for entry in report["transports"]:
        lines.append(f"transport={entry['transport']}: {rate(entry)}")
    for entry in report["router"]:
        lines.append(f"router processes={entry['processes']}: {rate(entry)}")
    if report["transport_matrix"]:
        lines.append(
            "transport matrix byte-identical: "
            f"{all(report['transport_matrix'].values())} "
            f"({', '.join(sorted(report['transport_matrix']))})"
        )
    return lines
