"""MatchRequest through ServeEngine: admission, collapsing, coalescing."""

import threading

import pytest

from repro.core.predicates import And, Comparison, Op
from repro.exceptions import (
    PredicateError,
    QueueFullError,
    RequestTimeoutError,
    ServeError,
    ServiceStoppedError,
)
from repro.segments import MatchBatcher, SegmentCatalog
from repro.serve import MatchRequest, ModelRegistry, ServeEngine
from repro.sql.database import Database, load_table

from tests.conftest import make_customer_rows


@pytest.fixture()
def catalog():
    age = Comparison("age", Op.GE, 40)
    income = Comparison("income", Op.GE, 60_000.0)
    cat = SegmentCatalog()
    cat.register("older", age)
    cat.register("affluent", income)
    cat.register("older-affluent", And((age, income)))
    return cat


@pytest.fixture()
def db():
    handle = Database(":memory:")
    load_table(handle, "customers", make_customer_rows(20, seed=2))
    yield handle
    handle.close()


def service_for(db, catalog, **kwargs):
    return ServeEngine(
        db,
        ModelRegistry(),
        segment_catalog=catalog,
        **kwargs,
    )


class TestEndpoint:
    def test_match_equals_direct_evaluation(self, db, catalog):
        rows = make_customer_rows(50, seed=21)
        with service_for(db, catalog, workers=2) as service:
            result = service.execute(MatchRequest(rows))
        expected = tuple(
            tuple(
                d.name
                for d in catalog.definitions()
                if d.predicate.evaluate(row)
            )
            for row in rows
        )
        assert result.memberships == expected
        assert result.segment_names == ("older", "affluent", "older-affluent")
        assert result.catalog_version == catalog.version
        assert result.queue_seconds >= 0.0
        assert result.match_seconds >= 0.0

    def test_segment_subset(self, db, catalog):
        rows = make_customer_rows(10, seed=22)
        with service_for(db, catalog, workers=1) as service:
            result = service.execute(
                MatchRequest(rows, segments=["affluent"])
            )
        assert result.segment_names == ("affluent",)
        for row, members in zip(rows, result.memberships):
            assert members == (
                ("affluent",) if row["income"] >= 60_000.0 else ()
            )

    def test_without_catalog_raises_typed(self, db):
        with ServeEngine(db, ModelRegistry(), workers=1) as service:
            with pytest.raises(ServeError, match="segment catalog"):
                service.execute(MatchRequest([{"age": 1}]))

    def test_after_shutdown_raises_stopped(self, db, catalog):
        service = service_for(db, catalog, workers=1)
        service.shutdown()
        with pytest.raises(ServiceStoppedError):
            service.execute(MatchRequest([{"age": 1}]))

    def test_shares_admission_budget_with_queries(self, db, catalog):
        # max_pending bounds matches too: saturate with a held worker.
        gate = threading.Event()
        rows = [{"age": 50, "income": 70_000.0}]
        with service_for(
            db, catalog, workers=1, max_pending=1, collapsing=False
        ) as service:
            # Occupy the only worker+slot with a slow query-side request.
            blocker_rows = [dict(rows[0], age=i) for i in range(1)]

            class _SlowRows(list):
                def __iter__(self):
                    gate.wait(timeout=5)
                    return super().__iter__()

            first = service.submit(MatchRequest(_SlowRows(blocker_rows)))
            with pytest.raises(QueueFullError):
                for _ in range(3):
                    service.submit(MatchRequest(rows))
            gate.set()
            first.result(timeout=5)

    def test_timeout_enforced(self, db, catalog):
        # A request that spends its whole deadline queued behind a slow
        # one fails with the typed timeout error.
        gate = threading.Event()

        class _SlowRows(list):
            def __iter__(self):
                gate.wait(timeout=5)
                return super().__iter__()

        with service_for(
            db, catalog, workers=1, collapsing=False
        ) as service:
            blocker = service.submit(
                MatchRequest(_SlowRows([{"age": 1, "income": 1.0}]))
            )
            try:
                with pytest.raises(RequestTimeoutError):
                    service.execute(
                        MatchRequest(
                            [{"age": 2, "income": 2.0}], timeout=0.05
                        )
                    )
            finally:
                gate.set()
            blocker.result(timeout=5)


class TestCollapsing:
    def test_identical_inflight_requests_collapse(self, db, catalog):
        rows = make_customer_rows(30, seed=23)
        with service_for(db, catalog, workers=2) as service:
            futures = [
                service.submit(MatchRequest(rows)) for _ in range(10)
            ]
            results = [future.result(timeout=10) for future in futures]
        assert len({r.memberships for r in results}) == 1
        collapsed = sum(1 for r in results if r.collapsed)
        assert collapsed == service.stats.collapsed
        assert service.stats.completed + collapsed == 10

    def test_different_rows_do_not_collapse(self, db, catalog):
        with service_for(db, catalog, workers=1) as service:
            a = service.execute(
                MatchRequest([{"age": 50, "income": 80_000.0}])
            )
            b = service.execute(
                MatchRequest([{"age": 20, "income": 1_000.0}])
            )
        assert a.memberships != b.memberships
        assert not a.collapsed and not b.collapsed

    def test_collapse_key_is_content_exact(self, db, catalog):
        # Equal-content but distinct row objects share an in-flight
        # result; the key is the content, not object identity.
        rows_a = [{"age": 50, "income": 80_000.0}]
        rows_b = [{"income": 80_000.0, "age": 50}]  # same content
        with service_for(db, catalog, workers=2) as service:
            futures = [
                service.submit(MatchRequest(rows_a if i % 2 else rows_b))
                for i in range(8)
            ]
            results = [f.result(timeout=10) for f in futures]
        assert len({r.memberships for r in results}) == 1

    def test_collapse_key_is_columnar_and_content_exact(self, db, catalog):
        from repro.core.columns import RowSet
        rows = [{"age": 50, "income": 8.5}, {"age": 20, "income": 1.5}]
        reordered = [{"income": r["income"], "age": r["age"]} for r in rows]
        with service_for(db, catalog, workers=1) as service:
            key = service._collapse_key
            base = key(MatchRequest(rows))
            assert base == key(MatchRequest(tuple(reordered)))
            assert base == key(MatchRequest(RowSet.from_rows(rows)))
            assert base != key(MatchRequest(rows[:1]))
            assert base != key(MatchRequest(rows, segments=("older",)))
            assert base != key(
                MatchRequest([dict(rows[0], income=8.75), rows[1]])
            )
            # Rows without columns still differ by how many there are.
            assert key(MatchRequest([{}, {}, {}])) != key(MatchRequest([]))
            assert key(MatchRequest([{}, {}, {}])) == key(MatchRequest(({},) * 3))
            # Ragged rows are keyed row by row, content-exact as well; the
            # request then fails, typed, on the column a row lacks.
            ragged = [{"age": 50, "income": 8.5}, {"age": 20}]
            assert key(MatchRequest(ragged)) == key(
                MatchRequest([{"income": 8.5, "age": 50}, {"age": 20}])
            )
            assert key(MatchRequest(ragged)) != key(MatchRequest(ragged[::-1]))
            assert key(MatchRequest(ragged)) != base
            with pytest.raises(PredicateError, match="income"):
                service.execute(MatchRequest(ragged))

    def test_ragged_rows_behave_the_same_over_the_wire(self, db, catalog):
        """Loopback and a byte transport serve the same ragged request the
        same way: matched when the segments only read shared columns,
        the same typed error when a row lacks one they read."""
        from repro.serve.transport import LoopbackTransport, serve_socketpair

        ragged = [{"age": 50, "income": 8.5}, {"age": 20}]
        with service_for(db, catalog, workers=1) as service:
            loopback = LoopbackTransport(service)
            client, server = serve_socketpair(service)
            try:
                for transport in (loopback, client):
                    result = transport.request(
                        MatchRequest(ragged, segments=("older",))
                    )
                    assert result.memberships == (("older",), ())
                    with pytest.raises(PredicateError, match="income"):
                        transport.request(MatchRequest(ragged))
            finally:
                client.close()
                server.close()


class TestMatchBatcher:
    def test_concurrent_requests_coalesce(self, catalog):
        batcher = MatchBatcher(catalog)
        try:
            start = threading.Barrier(6)
            results = [None] * 6

            def worker(index):
                rows = [{"age": 40 + index, "income": 1000.0 * index}]
                start.wait(timeout=5)
                results[index] = batcher.match(rows)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            batcher.stop()
        assert batcher.requests == 6
        for index, (matches, _) in enumerate(results):
            row = {"age": 40 + index, "income": 1000.0 * index}
            expected = tuple(
                tuple(
                    d.name
                    for d in catalog.definitions()
                    if d.predicate.evaluate(r)
                )
                for r in [row]
            )
            assert matches.memberships == expected

    def test_stop_fails_pending_and_future(self, catalog):
        batcher = MatchBatcher(catalog)
        batcher.stop()
        with pytest.raises(ServiceStoppedError):
            batcher.match([{"age": 1}])

    def test_catalog_mutation_between_calls_is_picked_up(self, catalog):
        batcher = MatchBatcher(catalog)
        try:
            row = [{"age": 45, "income": 10.0}]
            before, _ = batcher.match(row)
            catalog.register("older", Comparison("age", Op.GE, 60))
            after, _ = batcher.match(row)
        finally:
            batcher.stop()
        assert "older" in before.memberships[0]
        assert "older" not in after.memberships[0]
        assert after.catalog_version > before.catalog_version

    def test_snapshot_cache_is_bounded(self):
        # The name subset is client-supplied: cycling through many must
        # not retain one evaluator snapshot per subset.
        from itertools import combinations

        from repro.segments.batcher import _MAX_SNAPSHOTS

        catalog = SegmentCatalog()
        for bound in range(10):
            catalog.register(f"age>={bound}", Comparison("age", Op.GE, bound))
        predicates = {d.name: d.predicate for d in catalog.definitions()}
        rows = [{"age": age} for age in range(12)]
        subsets = [
            names
            for size in (1, 2, 3)
            for names in combinations(catalog.names(), size)
        ]
        assert len(subsets) > 10 * _MAX_SNAPSHOTS
        with MatchBatcher(catalog) as batcher:
            for names in subsets:
                matches, _ = batcher.match(rows, names)
                assert matches.memberships == tuple(
                    tuple(n for n in names if predicates[n].evaluate(row))
                    for row in rows
                )
                assert len(batcher._evaluators) <= _MAX_SNAPSHOTS
            # The bound evicts the least recently used, not the latest.
            assert next(reversed(batcher._evaluators))[1] == subsets[-1]
