"""Micro-batcher: coalescing, bit-identity, failure propagation."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.columns import ColumnBatch, RowSet
from repro.exceptions import ServiceStoppedError
from repro.serve import BatchingCatalog, MicroBatcher
from repro.serve.batcher import _BatchingModel


class EchoModel:
    """Deterministic stand-in model: predicts ``x`` doubled."""

    name = "echo"

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.calls = 0
        self.batch_sizes: list[int] = []

    def predict_batch(self, batch: ColumnBatch) -> np.ndarray:
        self.calls += 1
        rows = batch.rows()
        self.batch_sizes.append(len(rows))
        if self.delay:
            time.sleep(self.delay)
        return np.array([row["x"] * 2 for row in rows])

    def supports_batch(self) -> bool:
        return True


class FailingModel:
    name = "failing"

    def predict_batch(self, batch: ColumnBatch) -> np.ndarray:
        raise ValueError("model exploded")


class StubCatalog:
    """The minimal catalog surface the batcher touches."""

    def __init__(self, *models) -> None:
        self._models = {model.name: model for model in models}

    def model(self, name: str):
        return self._models[name]


def batch_of(values) -> ColumnBatch:
    return ColumnBatch([{"x": v} for v in values])


class TestMicroBatcher:
    def test_single_request_passthrough(self):
        model = EchoModel()
        with MicroBatcher(StubCatalog(model)) as batcher:
            result = batcher.score("echo", batch_of([1, 2, 3]))
        assert np.array_equal(result, [2, 4, 6])
        assert batcher.calls == 1
        assert batcher.coalesced == 0

    def test_concurrent_requests_coalesce_bit_identically(self):
        # The first (slow) call occupies the scorer; the rest pile up and
        # must be drained through one shared predict_batch call.
        model = EchoModel(delay=0.1)
        with MicroBatcher(StubCatalog(model)) as batcher:
            results: dict[int, np.ndarray] = {}

            def request(index: int) -> None:
                values = list(range(index * 10, index * 10 + 3))
                results[index] = batcher.score("echo", batch_of(values))

            threads = [
                threading.Thread(target=request, args=(i,))
                for i in range(4)
            ]
            threads[0].start()
            time.sleep(0.03)  # let request 0 reach the scorer
            for thread in threads[1:]:
                thread.start()
            for thread in threads:
                thread.join()
        for index in range(4):
            expected = [v * 2 for v in range(index * 10, index * 10 + 3)]
            assert np.array_equal(results[index], expected), index
        assert batcher.requests == 4
        assert batcher.calls < 4  # at least two requests shared a call
        assert batcher.coalesced >= 2
        assert max(model.batch_sizes) >= 6  # a genuinely merged batch

    def test_single_request_scores_the_callers_own_batch(self):
        # Columns the caller already converted must reach the model
        # as they are, not be rebuilt from rows.
        seen: list[ColumnBatch] = []

        class Spy(EchoModel):
            def predict_batch(self, batch):
                seen.append(batch)
                return super().predict_batch(batch)

        batch = batch_of([1, 2, 3])
        numeric = batch.numeric("x")
        with MicroBatcher(StubCatalog(Spy())) as batcher:
            batcher.score("echo", batch)
        assert seen == [batch]
        assert seen[0].numeric("x") is numeric

    def test_coalesced_tables_concatenate_column_wise(self):
        seen: list[ColumnBatch] = []

        class Spy(EchoModel):
            def predict_batch(self, batch):
                seen.append(batch)
                return super().predict_batch(batch)

        model = Spy(delay=0.1)
        with MicroBatcher(StubCatalog(model)) as batcher:
            results: dict[int, np.ndarray] = {}

            def request(index: int) -> None:
                table = RowSet(("x",), [(index, index + 10)])
                # A take() child: its rows are only gathered if asked for.
                child = ColumnBatch(table).take(np.array([1, 0]))
                results[index] = batcher.score("echo", child)

            threads = [
                threading.Thread(target=request, args=(i,)) for i in range(4)
            ]
            threads[0].start()
            time.sleep(0.03)  # let request 0 reach the scorer
            for thread in threads[1:]:
                thread.start()
            for thread in threads:
                thread.join()
        for index in range(4):
            assert list(results[index]) == [(index + 10) * 2, index * 2]
        merged = [b for b in seen if len(b) > 2]
        assert merged and all(isinstance(b.rows(), RowSet) for b in merged)

    def test_model_error_reaches_every_waiter(self):
        with MicroBatcher(StubCatalog(FailingModel())) as batcher:
            with pytest.raises(ValueError, match="model exploded"):
                batcher.score("failing", batch_of([1]))

    def test_unknown_model_raises(self):
        with MicroBatcher(StubCatalog()) as batcher:
            with pytest.raises(KeyError):
                batcher.score("ghost", batch_of([1]))

    def test_stopped_batcher_refuses(self):
        batcher = MicroBatcher(StubCatalog(EchoModel()))
        batcher.stop()
        batcher.stop()  # idempotent
        with pytest.raises(ServiceStoppedError):
            batcher.score("echo", batch_of([1]))


class TestBatchingCatalog:
    def test_model_is_proxied(self):
        model = EchoModel()
        with MicroBatcher(StubCatalog(model)) as batcher:
            catalog = BatchingCatalog(StubCatalog(model), batcher)
            proxy = catalog.model("echo")
            assert isinstance(proxy, _BatchingModel)
            assert proxy.supports_batch()
            assert proxy.name == "echo"  # attribute delegation
            result = proxy.predict_batch(batch_of([5]))
        assert np.array_equal(result, [10])

    def test_other_lookups_delegate(self):
        stub = StubCatalog(EchoModel())
        with MicroBatcher(stub) as batcher:
            catalog = BatchingCatalog(stub, batcher)
            assert catalog._models is stub._models


class TestConcatenateSliceContract:
    def test_real_model_concat_slice_identity(self, customer_nb):
        """predict_batch over concatenated rows == per-part results."""
        rows_a = [
            {"age": 25, "income": 20_000.0, "gender": "female",
             "region": "north"},
            {"age": 60, "income": 90_000.0, "gender": "male",
             "region": "south"},
        ]
        rows_b = [
            {"age": 40, "income": 55_000.0, "gender": "male",
             "region": "east"},
        ]
        merged = customer_nb.predict_batch(ColumnBatch(rows_a + rows_b))
        part_a = customer_nb.predict_batch(ColumnBatch(rows_a))
        part_b = customer_nb.predict_batch(ColumnBatch(rows_b))
        assert np.array_equal(merged[: len(rows_a)], part_a)
        assert np.array_equal(merged[len(rows_a) :], part_b)
