"""Concurrency stress: byte-identity to serial under adverse conditions.

The acceptance bar of the serving layer: N workers executing a mixed
query schedule return exactly the rows serial execution returns — also
while the shared plan cache is evicting (tiny capacity) and while some
requests carry already-lapsed deadlines (injected timeouts).
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import RequestTimeoutError
from repro.serve import QueryRequest, ServeEngine
from repro.sql.miningext import PredictionJoinExecutor
from repro.sql.plancache import PlanCache


def byte_image(rows) -> bytes:
    """A canonical byte serialization of a result row set."""
    return json.dumps(rows, sort_keys=True, default=str).encode()


def schedule_for(queries, length: int) -> list[int]:
    """A deterministic mixed schedule skewed toward the first queries."""
    indices = []
    for i in range(length):
        indices.append((i * i + i // 3) % len(queries))
    return indices


@pytest.mark.parametrize("workers", [2, 4])
def test_concurrent_identical_to_serial(
    serve_db, deployed_registry, label_queries, workers
):
    schedule = schedule_for(label_queries, 48)
    serial_executor = PredictionJoinExecutor(
        serve_db, deployed_registry.catalog
    )
    expected = [
        byte_image(serial_executor.execute(label_queries[i]).rows)
        for i in schedule
    ]
    with ServeEngine(
        serve_db, deployed_registry, workers=workers, max_pending=64
    ) as svc:
        futures = [
            svc.submit(QueryRequest(label_queries[i])) for i in schedule
        ]
        images = [
            byte_image(f.result(timeout=60).rows) for f in futures
        ]
        stats = svc.stats.snapshot()
    assert images == expected
    assert stats["shed"] == stats["timeouts"] == stats["errors"] == 0
    assert stats["completed"] + stats["collapsed"] == len(schedule)


def test_identical_under_plan_cache_eviction(
    serve_db, deployed_registry, label_queries
):
    # Capacity 2 over ~6 distinct queries: constant eviction churn.
    cache = PlanCache(capacity=2)
    schedule = schedule_for(label_queries, 36)
    serial_executor = PredictionJoinExecutor(
        serve_db, deployed_registry.catalog
    )
    expected = [
        byte_image(serial_executor.execute(label_queries[i]).rows)
        for i in schedule
    ]
    with ServeEngine(
        serve_db,
        deployed_registry,
        workers=4,
        max_pending=64,
        plan_cache=cache,
    ) as svc:
        futures = [
            svc.submit(QueryRequest(label_queries[i])) for i in schedule
        ]
        images = [
            byte_image(f.result(timeout=60).rows) for f in futures
        ]
    assert images == expected
    assert len(cache) <= 2
    assert cache.stats.evictions > 0
    # Counter consistency survives concurrent eviction churn.
    assert cache.stats.lookups == cache.stats.hits + cache.stats.misses


def test_identical_under_injected_timeouts(
    serve_db, deployed_registry, label_queries
):
    """Every 5th request carries a microscopic deadline.

    Those requests either complete (they were dequeued in time) or fail
    with RequestTimeoutError — never a wrong result.  All other requests
    must stay byte-identical to serial execution.
    """
    schedule = schedule_for(label_queries, 40)
    serial_executor = PredictionJoinExecutor(
        serve_db, deployed_registry.catalog
    )
    expected = [
        byte_image(serial_executor.execute(label_queries[i]).rows)
        for i in schedule
    ]
    with ServeEngine(
        serve_db,
        deployed_registry,
        workers=2,
        max_pending=64,
        collapsing=False,  # timed-out twins must not satisfy others
    ) as svc:
        futures = []
        for n, i in enumerate(schedule):
            timeout = 0.000_1 if n % 5 == 4 else None
            futures.append(
                svc.submit(QueryRequest(label_queries[i], timeout=timeout))
            )
        timed_out = 0
        for n, future in enumerate(futures):
            try:
                image = byte_image(future.result(timeout=60).rows)
            except RequestTimeoutError:
                assert n % 5 == 4  # only the doomed ones may time out
                timed_out += 1
            else:
                assert image == expected[n]
        stats = svc.stats.snapshot()
    assert stats["timeouts"] == timed_out
    assert stats["errors"] == 0


def test_two_services_agree(serve_db, deployed_registry, label_queries):
    """Run-to-run determinism: two engine instances, same answers."""
    schedule = schedule_for(label_queries, 24)

    def run() -> list[bytes]:
        with ServeEngine(
            serve_db, deployed_registry, workers=3, max_pending=64
        ) as svc:
            futures = [
                svc.submit(QueryRequest(label_queries[i]))
                for i in schedule
            ]
            return [
                byte_image(f.result(timeout=60).rows) for f in futures
            ]

    assert run() == run()
