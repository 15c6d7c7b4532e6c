"""Engine-side result cache: TTL, LRU bound, collapse-key hits."""

from __future__ import annotations

import time

import pytest

from repro.serve import QueryRequest, ResultCache, ServeEngine


class TestResultCacheUnit:
    def test_put_get_returns_the_same_object(self):
        cache = ResultCache(ttl=60.0)
        sentinel = object()
        cache.put(("k",), sentinel)
        assert cache.get(("k",)) is sentinel
        assert cache.hits == 1
        assert cache.misses == 0

    def test_miss_on_absent_key(self):
        cache = ResultCache(ttl=60.0)
        assert cache.get(("absent",)) is None
        assert cache.misses == 1

    def test_entries_expire_after_ttl(self):
        cache = ResultCache(ttl=0.02)
        cache.put(("k",), "value")
        assert cache.get(("k",)) == "value"
        time.sleep(0.04)
        assert cache.get(("k",)) is None
        assert len(cache) == 0  # the expired entry was dropped

    def test_lru_bound_evicts_oldest(self):
        cache = ResultCache(ttl=60.0, max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh a's recency
        cache.put(("c",), 3)  # evicts b, the least recently used
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    @pytest.mark.parametrize("ttl", [0, -1.0])
    def test_rejects_bad_ttl(self, ttl):
        with pytest.raises(ValueError, match="ttl"):
            ResultCache(ttl=ttl)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(ttl=1.0, max_entries=0)


class TestEngineIntegration:
    def test_off_by_default(self, serve_db, deployed_registry):
        with ServeEngine(serve_db, deployed_registry, workers=1) as svc:
            assert svc.result_cache is None

    def test_repeat_query_is_served_from_cache(
        self, serve_db, deployed_registry, label_queries
    ):
        with ServeEngine(
            serve_db, deployed_registry, workers=1, result_ttl=60.0
        ) as service:
            cache = service.result_cache
            first = service.execute(QueryRequest(label_queries[0]))
            assert cache.hits == 0
            second = service.execute(QueryRequest(label_queries[0]))
            # The cached hit returns the original result object, so
            # byte-identity is free.
            assert second is first
            assert cache.hits == 1
            # A different query is its own entry.
            other = service.execute(QueryRequest(label_queries[1]))
            assert other is not first
            assert other.rows != first.rows or other is not first

    def test_expired_entry_re_executes(
        self, serve_db, deployed_registry, label_queries
    ):
        with ServeEngine(
            serve_db, deployed_registry, workers=1, result_ttl=0.05
        ) as service:
            first = service.execute(QueryRequest(label_queries[0]))
            time.sleep(0.1)
            second = service.execute(QueryRequest(label_queries[0]))
            assert second is not first
            assert second.rows == first.rows  # still bit-identical
            assert service.result_cache.hits == 0

    def test_cached_hits_bypass_admission(
        self, serve_db, deployed_registry, label_queries
    ):
        with ServeEngine(
            serve_db,
            deployed_registry,
            workers=1,
            max_pending=1,
            result_ttl=60.0,
        ) as service:
            service.execute(QueryRequest(label_queries[0]))
            # A cached request resolves synchronously without taking the
            # single queue slot: submit many at once and none sheds.
            futures = [
                service.submit(QueryRequest(label_queries[0])) for _ in range(8)
            ]
            results = [f.result(timeout=10) for f in futures]
            assert all(r is results[0] for r in results)
