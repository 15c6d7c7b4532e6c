"""Cross-request micro-batching of residual model scoring.

PR 2 made model scoring fast *within* one query by batching rows into
columnar ``predict_batch`` calls.  Under concurrency there is a second
axis: several in-flight requests scoring the **same model** at the same
time.  Each ``predict_batch`` call has a fixed cost that does not shrink
with batch size (predicate/kernel setup, one NumPy op per tree node or
feature), so four concurrent 200-row calls cost nearly four times one
800-row call.  :class:`MicroBatcher` coalesces them: scoring requests
enqueue their rows, a single scorer thread drains whatever is pending,
groups it per model, scores each group through **one** shared
``predict_batch`` call, and routes each request its own slice back.

Correctness: every ``predict_batch`` kernel is row-independent — the
documented contract (:meth:`repro.mining.base.MiningModel.predict_batch`)
is elementwise equality with scalar ``predict``, which cannot depend on
batch composition.  Concatenating requests and slicing the result is
therefore *bit-identical* to scoring each request alone (regression-tested
in ``tests/serve/test_batcher.py``).

Coalescing is opportunistic by default: the scorer never sleeps waiting
for company, so an idle service adds one thread hop of latency and
nothing more, while a busy service naturally accumulates concurrent
requests into larger and larger groups.  A bounded **accumulation
window** (``window`` seconds, typically 0.5–2 ms) trades a little
latency for larger groups: after the first request arrives the scorer
keeps waiting up to the window for more before draining — a point on
the throughput/latency frontier the load bench evaluates.  Stats:
``serve.batch.requests`` (scoring requests), ``serve.batch.calls``
(underlying ``predict_batch`` invocations), ``serve.batch.rows`` (rows
scored), and ``serve.batch.coalesced`` (requests that shared a call).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.catalog import ModelCatalog
from repro.core.columns import ColumnBatch, concat_rows
from repro.exceptions import ServiceStoppedError

if TYPE_CHECKING:
    from repro.mining.base import MiningModel


class _Pending:
    """One request's scoring work: a batch in, a result slice (or error)
    out.  The caller blocks until ``done``, so the scorer thread is the
    only one touching ``batch`` (and its column caches) meanwhile."""

    __slots__ = ("batch", "done", "result", "error")

    def __init__(self, batch: ColumnBatch) -> None:
        self.batch = batch
        self.done = threading.Event()
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None


class MicroBatcher:
    """Coalesces concurrent ``predict_batch`` calls per model.

    One scorer thread serializes all model execution, which both
    amortizes per-call overhead across requests and sidesteps any
    question of model thread-safety — models never run concurrently with
    themselves.  Start is implicit (construction), stop via :meth:`stop`
    (idempotent); stopping fails all waiters with
    :class:`~repro.exceptions.ServiceStoppedError`.
    """

    def __init__(
        self, catalog: ModelCatalog, window: float = 0.0
    ) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self._catalog = catalog
        self._window = window
        self._cond = threading.Condition()
        self._pending: dict[str, list[_Pending]] = {}
        self._stopped = False
        #: Lifetime totals, mirrored as ``serve.batch.*`` obs counters.
        #: Written only by the scorer thread; reads are approximate
        #: while scoring is in flight.
        self.calls = 0
        self.requests = 0
        self.rows_scored = 0
        self.coalesced = 0
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # -- request side ------------------------------------------------------

    def score(self, model_name: str, batch: ColumnBatch) -> np.ndarray:
        """Predictions for ``batch`` — possibly via a shared call.

        Blocks until the scorer thread has produced this request's slice.
        Exceptions raised by the model (or a missing model) propagate to
        the caller unchanged.
        """
        item = _Pending(batch)
        with self._cond:
            if self._stopped:
                raise ServiceStoppedError("micro-batcher is stopped")
            self._pending.setdefault(model_name, []).append(item)
            self._cond.notify()
        item.done.wait()
        if item.error is not None:
            raise item.error
        assert item.result is not None
        return item.result

    # -- scorer side -------------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopped:
                    self._cond.wait()
                if not self._stopped and self._window > 0:
                    # Accumulate: hold the drain open for the window so
                    # closely-spaced arrivals share one call.  Waiting
                    # releases the lock, so enqueues keep landing; the
                    # deadline bounds the added latency.
                    deadline = time.monotonic() + self._window
                    while not self._stopped:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                if self._stopped:
                    work = self._pending
                    self._pending = {}
                    for items in work.values():
                        for item in items:
                            item.error = ServiceStoppedError(
                                "micro-batcher stopped before scoring"
                            )
                            item.done.set()
                    return
                work, self._pending = self._pending, {}
            for model_name, items in work.items():
                self._score_group(model_name, items)

    def _score_group(
        self, model_name: str, items: "list[_Pending]"
    ) -> None:
        try:
            model = self._catalog.model(model_name)
            if len(items) == 1:
                # The caller's own batch: every column its envelope
                # prefilter already converted is reused, not rebuilt.
                batch = items[0].batch
            else:
                batch = ColumnBatch(
                    concat_rows([item.batch.rows() for item in items])
                )
            with obs.span(
                "serve.batch.score",
                model=model_name,
                requests=len(items),
                rows=len(batch),
            ):
                predictions = model.predict_batch(batch)
            offset = 0
            for item in items:
                width = len(item.batch)
                item.result = predictions[offset : offset + width]
                offset += width
            self.calls += 1
            self.requests += len(items)
            self.rows_scored += len(batch)
            obs.add_counter("serve.batch.requests", len(items))
            obs.add_counter("serve.batch.calls")
            obs.add_counter("serve.batch.rows", len(batch))
            if len(items) > 1:
                self.coalesced += len(items)
                obs.add_counter("serve.batch.coalesced", len(items))
        except BaseException as error:  # propagate to every waiter
            for item in items:
                item.error = error
        finally:
            for item in items:
                item.done.set()

    def stop(self) -> None:
        """Stop the scorer; pending and future requests fail typed."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._cond.notify_all()
        self._thread.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class _BatchingModel:
    """A model proxy routing ``predict_batch`` through the shared batcher.

    Everything else — scalar ``predict``, ``prediction_column``,
    ``class_labels``, serialization — delegates to the wrapped model, so
    the proxy is a drop-in inside the executor's residual filter.
    """

    __slots__ = ("_model", "_batcher")

    def __init__(self, model: "MiningModel", batcher: MicroBatcher) -> None:
        self._model = model
        self._batcher = batcher

    def predict_batch(self, batch: ColumnBatch) -> np.ndarray:
        return self._batcher.score(self._model.name, batch)

    def supports_batch(self) -> bool:
        return True

    def __getattr__(self, attribute: str):
        return getattr(self._model, attribute)


class BatchingCatalog:
    """A catalog view whose models score through a :class:`MicroBatcher`.

    Wraps a live :class:`~repro.core.catalog.ModelCatalog`: lookups other
    than :meth:`model` delegate unchanged (the optimizer reads envelopes
    and versions through it), while :meth:`model` returns a batching
    proxy.  Handing this to a
    :class:`~repro.sql.miningext.PredictionJoinExecutor` turns every
    residual scoring call into a coalescible one with no executor
    changes.
    """

    def __init__(
        self, catalog: ModelCatalog, batcher: MicroBatcher
    ) -> None:
        self._catalog = catalog
        self._batcher = batcher

    def model(self, name: str) -> _BatchingModel:
        return _BatchingModel(self._catalog.model(name), self._batcher)

    def __getattr__(self, attribute: str):
        return getattr(self._catalog, attribute)
