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

The drain loop itself is :class:`repro.core.coalesce.Coalescer`
(opportunistic: the scorer never sleeps waiting for company), shared
with the segment :class:`~repro.segments.batcher.MatchBatcher`; this
module adds what is scoring's own: the group key is the model name, the
evaluation is the live catalog's model run over the concatenated
batches.  Stats: ``serve.batch.requests`` (scoring requests),
``serve.batch.calls`` (underlying ``predict_batch`` invocations),
``serve.batch.rows`` (rows scored), and ``serve.batch.coalesced``
(requests that shared a call).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.catalog import ModelCatalog
from repro.core.coalesce import Coalescer
from repro.core.columns import ColumnBatch, concat_rows

if TYPE_CHECKING:
    from repro.mining.base import MiningModel


class MicroBatcher(Coalescer):
    """Coalesces concurrent ``predict_batch`` calls per model.

    One scorer thread serializes all model execution, which both
    amortizes per-call overhead across requests and sidesteps any
    question of model thread-safety — models never run concurrently with
    themselves.  Start is implicit (construction), stop via :meth:`stop`
    (idempotent); stopping fails all waiters with
    :class:`~repro.exceptions.ServiceStoppedError`.
    """

    def __init__(self, catalog: ModelCatalog) -> None:
        self._catalog = catalog
        super().__init__(
            self._score_group,
            lambda predictions, start, stop: predictions[start:stop],
            name="serve-batcher",
            counters="serve.batch",
        )

    def score(self, model_name: str, batch: ColumnBatch) -> np.ndarray:
        """Predictions for ``batch`` — possibly via a shared call.

        Blocks until the scorer thread has produced this request's slice.
        Exceptions raised by the model (or a missing model) propagate to
        the caller unchanged.
        """
        predictions, _ = self.submit(model_name, batch)
        return predictions

    def _score_group(
        self, model_name: str, batches: "Sequence[ColumnBatch]"
    ) -> np.ndarray:
        model = self._catalog.model(model_name)
        if len(batches) == 1:
            # The caller's own batch: every column its envelope
            # prefilter already converted is reused, not rebuilt.
            batch = batches[0]
        else:
            batch = ColumnBatch(
                concat_rows([part.rows() for part in batches])
            )
        with obs.span(
            "serve.batch.score",
            model=model_name,
            requests=len(batches),
            rows=len(batch),
        ):
            return model.predict_batch(batch)


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
