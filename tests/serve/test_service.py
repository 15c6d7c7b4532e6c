"""ServeEngine called in process: correctness, collapsing, timeouts,
shutdown."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.optimizer import MiningQuery
from repro.core.rewrite import PredictionEquals
from repro.exceptions import (
    CatalogError,
    QueueFullError,
    RequestTimeoutError,
    ServiceStoppedError,
)
from repro.serve import ModelRegistry, QueryRequest, ServeEngine
from repro.sql.miningext import PredictionJoinExecutor


@pytest.fixture()
def gate(monkeypatch):
    """Blocks every executor.execute until released; deterministic races.

    Returns (release_event, started_event): ``started`` is set when a
    worker has begun executing, ``release`` lets executions proceed.
    """
    release = threading.Event()
    started = threading.Event()
    original = PredictionJoinExecutor.execute

    def gated(self, query, optimize_query=True):
        started.set()
        if not release.wait(timeout=10):
            raise AssertionError("gate never released")
        return original(self, query, optimize_query=optimize_query)

    monkeypatch.setattr(PredictionJoinExecutor, "execute", gated)
    yield release, started
    release.set()


def serial_rows(serve_db, deployed_registry, queries):
    executor = PredictionJoinExecutor(serve_db, deployed_registry.catalog)
    return [executor.execute(q).rows for q in queries]


class TestExecution:
    def test_results_match_serial(
        self, serve_db, deployed_registry, label_queries
    ):
        expected = serial_rows(serve_db, deployed_registry, label_queries)
        with ServeEngine(serve_db, deployed_registry, workers=3) as svc:
            for query, rows in zip(label_queries, expected):
                result = svc.execute(QueryRequest(query))
                assert result.rows == rows
                assert result.strategy in ("optimized", "extract-and-mine")
                assert result.report is not None

    def test_many_concurrent_submissions(
        self, serve_db, deployed_registry, label_queries
    ):
        expected = serial_rows(serve_db, deployed_registry, label_queries)
        with ServeEngine(
            serve_db, deployed_registry, workers=4, max_pending=64
        ) as svc:
            futures = [
                svc.submit(QueryRequest(label_queries[i % len(label_queries)]))
                for i in range(30)
            ]
            for i, future in enumerate(futures):
                result = future.result(timeout=30)
                assert result.rows == expected[i % len(label_queries)]
            stats = svc.stats.snapshot()
        assert stats["submitted"] == 30
        assert stats["shed"] == stats["timeouts"] == stats["errors"] == 0
        assert stats["completed"] + stats["collapsed"] == 30

    def test_unoptimized_requests(
        self, serve_db, deployed_registry, label_queries
    ):
        query = label_queries[0]
        executor = PredictionJoinExecutor(
            serve_db, deployed_registry.catalog
        )
        expected = executor.execute(query, optimize_query=False).rows
        with ServeEngine(serve_db, deployed_registry, workers=2) as svc:
            result = svc.execute(QueryRequest(query, optimize=False))
            assert result.rows == expected
            assert result.strategy == "extract-and-mine"


class TestCollapsing:
    def test_duplicates_collapse_onto_inflight(
        self, serve_db, deployed_registry, label_queries, gate
    ):
        release, started = gate
        # execute_optimized is not gated — a safe serial reference.
        expected = PredictionJoinExecutor(
            serve_db, deployed_registry.catalog
        ).execute_optimized(label_queries[0]).rows
        svc = ServeEngine(serve_db, deployed_registry, workers=1)
        try:
            first = svc.submit(QueryRequest(label_queries[0]))
            assert started.wait(timeout=5)  # now executing
            duplicates = [
                svc.submit(QueryRequest(label_queries[0])) for _ in range(3)
            ]
            release.set()
            assert first.result(timeout=10).rows == expected
            for future in duplicates:
                result = future.result(timeout=10)
                assert result.rows == expected
                assert result.collapsed
            assert svc.stats.collapsed == 3
            assert svc.stats.completed == 1
        finally:
            svc.shutdown()

    def test_distinct_queries_do_not_collapse(
        self, serve_db, deployed_registry, label_queries, gate
    ):
        release, started = gate
        svc = ServeEngine(serve_db, deployed_registry, workers=1)
        try:
            svc.submit(QueryRequest(label_queries[0]))
            assert started.wait(timeout=5)
            other = svc.submit(QueryRequest(label_queries[1]))
            release.set()
            assert not other.result(timeout=10).collapsed
            assert svc.stats.collapsed == 0
        finally:
            svc.shutdown()

    def test_collapsing_can_be_disabled(
        self, serve_db, deployed_registry, label_queries, gate
    ):
        release, started = gate
        svc = ServeEngine(
            serve_db, deployed_registry, workers=1, collapsing=False
        )
        try:
            svc.submit(QueryRequest(label_queries[0]))
            assert started.wait(timeout=5)
            duplicate = svc.submit(QueryRequest(label_queries[0]))
            release.set()
            assert not duplicate.result(timeout=10).collapsed
            assert svc.stats.collapsed == 0
        finally:
            svc.shutdown()


class TestAdmissionAndTimeouts:
    def test_queue_full_sheds(
        self, serve_db, deployed_registry, label_queries, gate
    ):
        release, started = gate
        svc = ServeEngine(
            serve_db, deployed_registry, workers=1, max_pending=2
        )
        try:
            svc.submit(QueryRequest(label_queries[0]))
            assert started.wait(timeout=5)
            svc.submit(QueryRequest(label_queries[1]))
            with pytest.raises(QueueFullError):
                svc.submit(QueryRequest(label_queries[2]))
            assert svc.stats.shed == 1
            release.set()
        finally:
            svc.shutdown()

    def test_queued_request_times_out(
        self, serve_db, deployed_registry, label_queries, gate
    ):
        release, started = gate
        svc = ServeEngine(serve_db, deployed_registry, workers=1)
        try:
            svc.submit(QueryRequest(label_queries[0]))
            assert started.wait(timeout=5)
            doomed = svc.submit(QueryRequest(label_queries[1], timeout=0.05))
            time.sleep(0.1)  # let the deadline lapse while queued
            release.set()
            with pytest.raises(RequestTimeoutError):
                doomed.result(timeout=10)
            assert svc.stats.timeouts == 1
        finally:
            svc.shutdown()

    def test_execute_enforces_deadline_while_waiting(
        self, serve_db, deployed_registry, label_queries, gate
    ):
        release, started = gate
        svc = ServeEngine(serve_db, deployed_registry, workers=1)
        try:
            svc.submit(QueryRequest(label_queries[0]))
            assert started.wait(timeout=5)
            with pytest.raises(RequestTimeoutError):
                svc.execute(QueryRequest(label_queries[1], timeout=0.05))
            release.set()
            # The waiter saw the timeout and so does the worker that
            # later dequeues the expired request: still one timeout.
            assert svc.drain(timeout=10)
            assert svc.stats.timeouts == 1
        finally:
            svc.shutdown()

    def test_default_timeout_applies(
        self, serve_db, deployed_registry, label_queries, gate
    ):
        release, started = gate
        svc = ServeEngine(
            serve_db, deployed_registry, workers=1, default_timeout=0.05
        )
        try:
            svc.submit(QueryRequest(label_queries[0]))
            assert started.wait(timeout=5)
            doomed = svc.submit(QueryRequest(label_queries[1]))
            time.sleep(0.1)
            release.set()
            with pytest.raises(RequestTimeoutError):
                doomed.result(timeout=10)
        finally:
            svc.shutdown()


class TestLifecycle:
    def test_drain_then_clean_shutdown(
        self, serve_db, deployed_registry, label_queries
    ):
        svc = ServeEngine(serve_db, deployed_registry, workers=2)
        futures = [svc.submit(QueryRequest(q)) for q in label_queries]
        assert svc.drain(timeout=30)
        assert svc.queue_depth == 0
        assert all(f.done() for f in futures)
        assert svc.shutdown() is True
        assert svc.shutdown() is True  # idempotent

    def test_stopped_service_refuses_submissions(
        self, serve_db, deployed_registry, label_queries
    ):
        svc = ServeEngine(serve_db, deployed_registry, workers=1)
        svc.shutdown()
        with pytest.raises(ServiceStoppedError):
            svc.submit(QueryRequest(label_queries[0]))

    def test_forced_shutdown_fails_queued_requests(
        self, serve_db, deployed_registry, label_queries, gate
    ):
        release, started = gate
        svc = ServeEngine(serve_db, deployed_registry, workers=1)
        executing = svc.submit(QueryRequest(label_queries[0]))
        assert started.wait(timeout=5)
        queued = [svc.submit(QueryRequest(q)) for q in label_queries[1:3]]
        timer = threading.Timer(0.2, release.set)
        timer.start()
        clean = svc.shutdown(drain=False)
        timer.cancel()
        release.set()
        assert clean is False
        assert executing.result(timeout=10).rows is not None
        for future in queued:
            with pytest.raises(ServiceStoppedError):
                future.result(timeout=10)

    def test_retired_model_fails_typed(self, serve_db, customer_tree):
        registry = ModelRegistry(max_nodes=100)
        registry.register(customer_tree, deploy=True)
        query = MiningQuery(
            "customers",
            mining_predicates=(PredictionEquals("risk_tree", "high"),),
        )
        with ServeEngine(serve_db, registry, workers=1) as svc:
            assert svc.execute(QueryRequest(query)).rows is not None
            registry.retire("risk_tree")
            with pytest.raises(CatalogError):
                svc.execute(QueryRequest(query))

    def test_rejects_bad_worker_count(self, serve_db, deployed_registry):
        with pytest.raises(ValueError, match="workers"):
            ServeEngine(serve_db, deployed_registry, workers=0)
