"""ProcessRouter: deterministic fan-out, broadcast control, respawn.

Every worker process rebuilds the dataset through the top-level
``bootstrap`` below and receives models as broadcast ``DeployRequest``
messages, so nothing is shared by reference.  Byte-identity to serial
execution must hold for every process count, and a SIGKILLed worker
must fail in-flight requests typed, respawn, replay the control log,
and serve again.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.optimizer import MiningQuery
from repro.core.predicates import TRUE, Comparison, Op
from repro.core.rewrite import PredictionEquals
from repro.exceptions import ServeError, WorkerCrashedError
from repro.mining.decision_tree import DecisionTreeLearner
from repro.mining.naive_bayes import NaiveBayesLearner
from repro.serve.engine import (
    DeployRequest,
    QueryRequest,
    RetireRequest,
    ServeEngine,
)
from repro.serve.registry import ModelRegistry
from repro.serve.router import ProcessRouter
from repro.sql.database import Database, load_table
from repro.sql.miningext import PredictionJoinExecutor
from repro.sql.plancache import PlanCache

from tests.conftest import CUSTOMER_FEATURES, make_customer_rows
from tests.serve.test_stress import byte_image, schedule_for

ROWS = 120
SEED = 11


def build_database() -> Database:
    db = Database()
    load_table(
        db,
        "customers",
        [
            {c: row[c] for c in CUSTOMER_FEATURES}
            for row in make_customer_rows(ROWS, seed=SEED)
        ],
    )
    db.create_index("customers", ["age"])
    return db


def bootstrap() -> ServeEngine:
    """Worker-process engine factory (top-level: picklable, importable)."""
    return ServeEngine(
        build_database(),
        ModelRegistry(max_nodes=150),
        workers=2,
        plan_cache=PlanCache(64),
    )


@pytest.fixture(scope="module")
def router_tree():
    return DecisionTreeLearner(
        CUSTOMER_FEATURES, "risk", max_depth=4, name="router_tree"
    ).fit(make_customer_rows(ROWS, seed=SEED))


@pytest.fixture(scope="module")
def router_models(router_tree):
    """Two model families: the tree and a naive Bayes beside it."""
    nb = NaiveBayesLearner(
        CUSTOMER_FEATURES, "risk", bins=5, name="router_nb"
    ).fit(make_customer_rows(ROWS, seed=SEED))
    return [router_tree, nb]


@pytest.fixture(scope="module")
def router_queries(router_models):
    """Per ``(model, label)``: the bare prediction join and a variant
    under a relational range predicate (the median age)."""
    ages = sorted(row["age"] for row in make_customer_rows(ROWS, seed=SEED))
    median = Comparison("age", Op.LE, ages[len(ages) // 2])
    return [
        MiningQuery(
            "customers",
            relational_predicate=relational,
            mining_predicates=(PredictionEquals(model.name, label),),
        )
        for model in router_models
        for label in sorted(model.class_labels, key=str)
        for relational in (TRUE, median)
    ]


@pytest.fixture(scope="module")
def expected_images(router_models, router_queries):
    db = build_database()
    registry = ModelRegistry(max_nodes=150)
    for model in router_models:
        registry.register(model, deploy=True)
    executor = PredictionJoinExecutor(db, registry.catalog)
    schedule = schedule_for(router_queries, 24)
    assert set(schedule) == set(range(len(router_queries)))
    images = [
        byte_image(executor.execute(router_queries[i]).rows)
        for i in schedule
    ]
    db.close()
    return schedule, images


def deploy_through(router, *models):
    """Broadcast each model's deployment; the last one's result."""
    for model in models:
        deployed = router.control(DeployRequest(model=model.to_dict()))
    return deployed


@pytest.mark.parametrize("processes", [1, 2])
def test_byte_identical_across_process_counts(
    processes, router_models, router_queries, expected_images
):
    schedule, expected = expected_images
    with ProcessRouter(bootstrap, processes=processes) as router:
        deployed = deploy_through(router, *router_models)
        assert deployed.name == "router_nb"
        futures = [
            router.submit(QueryRequest(query=router_queries[i]))
            for i in schedule
        ]
        images = [byte_image(f.result(timeout=60).rows) for f in futures]
    assert images == expected


def test_routing_is_deterministic_and_spread(router_queries):
    with ProcessRouter(bootstrap, processes=2) as router:
        requests = [QueryRequest(query=q) for q in router_queries]
        first = [router.route_index(r) for r in requests]
        second = [router.route_index(r) for r in requests]
        assert first == second
        # The timeout is delivery metadata: it must not move a request.
        with_timeouts = [
            router.route_index(
                QueryRequest(query=q, timeout=1.0 + i)
            )
            for i, q in enumerate(router_queries)
        ]
        assert with_timeouts == first


def test_control_broadcast_agrees_across_replicas(router_tree):
    with ProcessRouter(bootstrap, processes=2) as router:
        deployed = deploy_through(router, router_tree)
        assert deployed.version == 1
        assert set(deployed.labels) <= set(router_tree.class_labels)
        assert deployed.labels == tuple(sorted(deployed.labels, key=str))
        retired = router.control(RetireRequest(name="router_tree"))
        assert retired.version == 1


def test_control_through_submit_is_rejected(router_tree):
    with ProcessRouter(bootstrap, processes=1) as router:
        with pytest.raises(ServeError, match="broadcast"):
            router.submit(DeployRequest(model=router_tree.to_dict()))


def test_killed_worker_fails_typed_and_respawns(
    router_tree, router_queries
):
    with ProcessRouter(bootstrap, processes=2) as router:
        deploy_through(router, router_tree)
        request = QueryRequest(query=router_queries[0])
        slot = router.route_index(request)
        victim = router.worker_pids[slot]
        os.kill(victim, signal.SIGKILL)
        # The slot's in-flight and racing requests fail typed until the
        # respawn completes; afterwards the same request must succeed
        # against the replayed catalog.
        deadline = time.monotonic() + 30
        while True:
            try:
                result = router.request(
                    QueryRequest(query=router_queries[0], timeout=10.0)
                )
                break
            except WorkerCrashedError:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        assert result.rows_returned >= 0
        assert victim not in router.worker_pids
        assert len(router.worker_pids) == 2


def test_closed_router_is_typed(router_queries):
    router = ProcessRouter(bootstrap, processes=1)
    router.close()
    with pytest.raises(WorkerCrashedError, match="closed"):
        router.submit(QueryRequest(query=router_queries[0]))


def test_transport_matrix_byte_identical(
    router_models, router_queries, expected_images
):
    """The acceptance gate: one deterministic request schedule over two
    model families, with and without a relational range predicate,
    returns byte-identical results across in-process, socketpair, TCP,
    and 1/2/4-process router configurations, and the engine drops
    nothing on the way."""
    from repro.serve.transport import (
        LoopbackTransport,
        TCPServer,
        connect_tcp,
        serve_socketpair,
    )

    schedule, expected = expected_images

    def run(transport):
        futures = [
            transport.submit(QueryRequest(query=router_queries[i]))
            for i in schedule
        ]
        return [byte_image(f.result(timeout=60).rows) for f in futures]

    images = {}
    with bootstrap() as engine:
        deploy_through(engine, *router_models)
        images["inproc"] = run(LoopbackTransport(engine))
        client, server = serve_socketpair(engine)
        try:
            images["socketpair"] = run(client)
        finally:
            client.close()
            server.close()
        with TCPServer(engine) as tcp_server:
            host, port = tcp_server.address
            tcp_client = connect_tcp(host, port)
            try:
                images["tcp"] = run(tcp_client)
            finally:
                tcp_client.close()
        stats = engine.stats.snapshot()
    assert stats["shed"] == stats["timeouts"] == stats["errors"] == 0
    assert stats["completed"] + stats["collapsed"] == 3 * len(schedule)
    for processes in (1, 2, 4):
        with ProcessRouter(bootstrap, processes=processes) as router:
            deploy_through(router, *router_models)
            images[f"router-{processes}"] = run(router)
    for name, result in images.items():
        assert result == expected, f"{name} diverged from serial"
