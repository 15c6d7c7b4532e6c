"""Mining predicates and their envelope-based rewrites (paper Section 4.1).

Four mining-predicate forms are supported, mirroring the paper:

* :class:`PredictionEquals` — ``M.pred = c`` (the atomic form whose envelope
  is precomputed at training time),
* :class:`PredictionIn` — ``M.pred IN (c1..cl)``; envelope is the
  disjunction of the atomic envelopes,
* :class:`PredictionJoinPrediction` — ``M1.pred = M2.pred``; envelope is
  ``OR_c (env1_c AND env2_c)`` over the common labels; identical models give
  a tautology, label-disjoint models give FALSE,
* :class:`PredictionJoinColumn` — ``M.pred = T.col``; envelope is
  ``OR_c (env_c AND col = c)``, optionally narrowed by transitivity when the
  query's relational predicate restricts ``col`` to a label subset.

Every mining predicate also knows its *reference semantics*
(:meth:`MiningPredicate.evaluate`): apply the model row-by-row, exactly what
a black-box engine would do.  The tests verify each envelope is implied by
those semantics on random rows.
"""

from __future__ import annotations

from collections.abc import MutableMapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.catalog import ModelCatalog
from repro.core.columns import ColumnBatch
from repro.core.normalize import allowed_values
from repro.core.predicates import (
    FALSE,
    TRUE,
    Predicate,
    Value,
    conjunction,
    disjunction,
    equals,
)
from repro.exceptions import RewriteError
from repro.mining.base import Row

#: Per-batch prediction memo: model name -> object array of predictions.
BatchPredictionCache = MutableMapping[str, np.ndarray]


def _batch_predictions(
    model_name: str,
    batch: ColumnBatch,
    catalog: ModelCatalog,
    cache: BatchPredictionCache,
) -> np.ndarray:
    """The model's predictions for a whole batch, computed at most once."""
    predictions = cache.get(model_name)
    if predictions is None:
        obs.add_counter("prediction.batch_memo.miss")
        predictions = catalog.model(model_name).predict_batch(batch)
        cache[model_name] = predictions
    else:
        obs.add_counter("prediction.batch_memo.hit")
    return predictions


class MiningPredicate:
    """A predicate over a model's prediction column (abstract base)."""

    def models(self) -> tuple[str, ...]:
        """Names of the mining models this predicate references."""
        raise NotImplementedError

    def evaluate(self, row: Row, catalog: ModelCatalog) -> bool:
        """Reference semantics: apply the model(s) to the row."""
        raise NotImplementedError

    def evaluate_batch(
        self,
        batch: ColumnBatch,
        catalog: ModelCatalog,
        cache: BatchPredictionCache,
    ) -> np.ndarray:
        """Boolean mask over ``batch`` rows, memoizing model predictions.

        ``cache`` maps model name to the model's object-array predictions
        for this batch — callers that compact the batch must slice the
        cached arrays in lockstep.  Equivalent to evaluating
        :meth:`evaluate` per row.  The base implementation is that scalar
        loop; the built-in forms override it with array comparisons over
        :meth:`repro.mining.base.MiningModel.predict_batch` output.
        """
        return np.fromiter(
            (self.evaluate(row, catalog) for row in batch.rows()),
            dtype=bool,
            count=len(batch),
        )

    def envelope(
        self,
        catalog: ModelCatalog,
        relational_predicate: Predicate = TRUE,
    ) -> Predicate:
        """The derived upper envelope ``u_f`` of Section 4.2, step 2(b)."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PredictionEquals(MiningPredicate):
    """``model.prediction_column = label``."""

    model_name: str
    label: Value

    def models(self) -> tuple[str, ...]:
        return (self.model_name,)

    def evaluate(self, row: Row, catalog: ModelCatalog) -> bool:
        return catalog.model(self.model_name).predict(row) == self.label

    def evaluate_batch(
        self,
        batch: ColumnBatch,
        catalog: ModelCatalog,
        cache: BatchPredictionCache,
    ) -> np.ndarray:
        predictions = _batch_predictions(
            self.model_name, batch, catalog, cache
        )
        return np.asarray(predictions == self.label, dtype=bool)

    def envelope(
        self,
        catalog: ModelCatalog,
        relational_predicate: Predicate = TRUE,
    ) -> Predicate:
        if self.label not in catalog.class_labels(self.model_name):
            # A label outside the model's domain can never be predicted.
            return FALSE
        return catalog.envelope(self.model_name, self.label).predicate

    def describe(self) -> str:
        return f"{self.model_name}.prediction = {self.label!r}"


@dataclass(frozen=True)
class PredictionIn(MiningPredicate):
    """``model.prediction_column IN labels``."""

    model_name: str
    labels: tuple[Value, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise RewriteError("IN mining predicate needs at least one label")
        object.__setattr__(
            self, "labels", tuple(sorted(set(self.labels), key=str))
        )

    def models(self) -> tuple[str, ...]:
        return (self.model_name,)

    def evaluate(self, row: Row, catalog: ModelCatalog) -> bool:
        return catalog.model(self.model_name).predict(row) in self.labels

    def evaluate_batch(
        self,
        batch: ColumnBatch,
        catalog: ModelCatalog,
        cache: BatchPredictionCache,
    ) -> np.ndarray:
        predictions = _batch_predictions(
            self.model_name, batch, catalog, cache
        )
        mask = np.zeros(len(batch), dtype=bool)
        for label in self.labels:
            mask |= np.asarray(predictions == label, dtype=bool)
        return mask

    def envelope(
        self,
        catalog: ModelCatalog,
        relational_predicate: Predicate = TRUE,
    ) -> Predicate:
        known = set(catalog.class_labels(self.model_name))
        parts = [
            catalog.envelope(self.model_name, label).predicate
            for label in self.labels
            if label in known
        ]
        return disjunction(parts)

    def describe(self) -> str:
        return f"{self.model_name}.prediction IN {self.labels!r}"


@dataclass(frozen=True)
class PredictionJoinPrediction(MiningPredicate):
    """``model_a.prediction_column = model_b.prediction_column``."""

    model_a: str
    model_b: str

    def models(self) -> tuple[str, ...]:
        return (self.model_a, self.model_b)

    def evaluate(self, row: Row, catalog: ModelCatalog) -> bool:
        return catalog.model(self.model_a).predict(row) == catalog.model(
            self.model_b
        ).predict(row)

    def evaluate_batch(
        self,
        batch: ColumnBatch,
        catalog: ModelCatalog,
        cache: BatchPredictionCache,
    ) -> np.ndarray:
        predictions_a = _batch_predictions(self.model_a, batch, catalog, cache)
        predictions_b = _batch_predictions(self.model_b, batch, catalog, cache)
        return np.asarray(predictions_a == predictions_b, dtype=bool)

    def envelope(
        self,
        catalog: ModelCatalog,
        relational_predicate: Predicate = TRUE,
    ) -> Predicate:
        if self.model_a == self.model_b:
            # Identical models always concur: the envelope is a tautology
            # (noted explicitly in Section 4.1).
            return TRUE
        labels_a = set(catalog.class_labels(self.model_a))
        labels_b = set(catalog.class_labels(self.model_b))
        common = sorted(labels_a & labels_b, key=str)
        parts = [
            conjunction(
                [
                    catalog.envelope(self.model_a, label).predicate,
                    catalog.envelope(self.model_b, label).predicate,
                ]
            )
            for label in common
        ]
        # No common labels: contradictory models, the query is empty.
        return disjunction(parts)

    def describe(self) -> str:
        return f"{self.model_a}.prediction = {self.model_b}.prediction"


@dataclass(frozen=True)
class PredictionJoinColumn(MiningPredicate):
    """``model.prediction_column = T.column`` (e.g. cross-validation)."""

    model_name: str
    column: str

    def models(self) -> tuple[str, ...]:
        return (self.model_name,)

    def evaluate(self, row: Row, catalog: ModelCatalog) -> bool:
        return catalog.model(self.model_name).predict(row) == row[self.column]

    def evaluate_batch(
        self,
        batch: ColumnBatch,
        catalog: ModelCatalog,
        cache: BatchPredictionCache,
    ) -> np.ndarray:
        predictions = _batch_predictions(
            self.model_name, batch, catalog, cache
        )
        return np.asarray(
            predictions == batch.column(self.column), dtype=bool
        )

    def restricted_labels(
        self,
        catalog: ModelCatalog,
        relational_predicate: Predicate,
    ) -> tuple[Value, ...]:
        """Labels surviving transitivity against the relational predicate.

        If the query already constrains ``column`` to a finite set, only
        labels in that set can satisfy the join (Section 4.1's transitivity
        example).
        """
        labels = list(catalog.class_labels(self.model_name))
        restriction = allowed_values(relational_predicate, self.column)
        if restriction is not None:
            labels = [label for label in labels if label in restriction]
        return tuple(labels)

    def envelope(
        self,
        catalog: ModelCatalog,
        relational_predicate: Predicate = TRUE,
    ) -> Predicate:
        labels = self.restricted_labels(catalog, relational_predicate)
        parts = [
            conjunction(
                [
                    catalog.envelope(self.model_name, label).predicate,
                    equals(self.column, label),
                ]
            )
            for label in labels
        ]
        return disjunction(parts)

    def describe(self) -> str:
        return f"{self.model_name}.prediction = {self.column}"


def infer_mining_predicates(
    predicates: Sequence[MiningPredicate],
) -> list[MiningPredicate]:
    """Step-3 inference of Section 4.2: derive new mining predicates.

    Currently implements transitivity across prediction-join predicates:
    from ``M1.pred = M2.pred`` and ``M2.pred IN S`` (or ``= c``) infer
    ``M1.pred IN S``.  Returns only the *new* predicates (possibly empty);
    the optimizer loops until no more are inferred.
    """
    known = set(predicates)
    restrictions: dict[str, set[Value]] = {}
    for predicate in predicates:
        if isinstance(predicate, PredictionEquals):
            restrictions.setdefault(
                predicate.model_name, set()
            ).add(predicate.label)
        elif isinstance(predicate, PredictionIn):
            restrictions.setdefault(
                predicate.model_name, set()
            ).update(predicate.labels)
    inferred: list[MiningPredicate] = []
    for predicate in predicates:
        if not isinstance(predicate, PredictionJoinPrediction):
            continue
        for source, target in (
            (predicate.model_a, predicate.model_b),
            (predicate.model_b, predicate.model_a),
        ):
            if source in restrictions:
                labels = tuple(sorted(restrictions[source], key=str))
                new: MiningPredicate
                if len(labels) == 1:
                    new = PredictionEquals(target, labels[0])
                else:
                    new = PredictionIn(target, labels)
                if new not in known:
                    known.add(new)
                    inferred.append(new)
    return inferred
