"""The serving fixture ``load-bench`` and the ``serve`` command share.

:class:`ServingFixture` is what both stand on: one dataset loaded into
its table, a registry with the decision tree and the naive-Bayes model
trained and deployed, and a deterministic hot-skewed mix (a Zipf-ish
draw with a fixed seed) over the distinct ``(model, label)``
prediction-join queries — the shape of real serving traffic, where a
handful of hot queries dominate.  Beside it: :func:`router_bootstrap`,
the one router-worker engine factory; :func:`open_transport`, the one
inproc / socketpair / tcp / router switch; and
:func:`add_engine_arguments`, the two flags every served command reads.

Nothing here times anything.  Serving throughput and latency are the
fixed benchmark's (``bench/run.py``: ``serve_loopback``, ``serve_wire``);
the transport-matrix byte-identity gate is
``tests/serve/test_router.py::test_transport_matrix_byte_identical``;
:mod:`repro.load.bench` replays against this fixture open-loop.
"""

from __future__ import annotations

import argparse
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.core.optimizer import MiningQuery
from repro.core.predicates import TRUE, Comparison, Op
from repro.core.rewrite import PredictionEquals
from repro.exceptions import ReproError
from repro.experiments.benches import count_flag
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    dataset_for,
    numeric_feature_columns,
    train_family,
)
from repro.serve.engine import DeployRequest, QueryRequest, ServeEngine
from repro.serve.registry import ModelRegistry
from repro.serve.router import ProcessRouter
from repro.serve.transport import (
    LoopbackTransport,
    TCPServer,
    Transport,
    connect_tcp,
    serve_socketpair,
)
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
    """What ``load-bench`` and ``serve`` run against, built once.

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
        for family in (FAMILY_DECISION_TREE, FAMILY_NAIVE_BAYES):
            trained = train_family(dataset, family, config)
            self.model_payloads.append(trained.model.to_dict())
            self.registry.register(trained.model, deploy=True)
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


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """``--workers`` / ``--result-ttl``: what every served command reads."""
    count_flag(parser, "--workers", 1, 4, "engine worker threads")
    parser.add_argument(
        "--result-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cache identical results for this long (default: off)",
    )
