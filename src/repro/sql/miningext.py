"""Mining-query execution over the relational store (PREDICTION JOIN).

This is the user-facing integration layer mirroring the systems of paper
Section 2: a :class:`PredictionJoinExecutor` applies registered mining
models to a table's rows, filtered by mining predicates, with two execution
strategies:

* **extract-and-mine** (Section 2.1) — evaluate only the relational
  predicate in SQL, fetch everything that survives, apply the model to each
  fetched row, and filter on the predicted label;
* **optimized** (Section 4) — inject upper envelopes into the WHERE clause
  so the engine can use indexed access paths (or a constant scan when an
  envelope is FALSE), then apply the model only to the rows the envelope
  admits.

Both strategies return the same rows (verified by the integration tests);
they differ in how many rows cross the SQL boundary and in the physical
plan, which is exactly the effect the paper measures.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.catalog import ModelCatalog
from repro.core.columns import ColumnBatch, RowSet
from repro.core.optimizer import (
    DEFAULT_MAX_DISJUNCTS,
    MiningQuery,
    OptimizedQuery,
    optimize,
)
from repro.core.predicates import (
    TRUE,
    Predicate,
    SelectivityEstimator,
    TruePredicate,
    Value,
)
from repro.core.rewrite import MiningPredicate
from repro.exceptions import ModelError
from repro.sql.compiler import select_statement
from repro.sql.database import Database
from repro.sql.planner import (
    FULL_SCAN_PLAN,
    Plan,
    capture_plan,
    capture_select_plan,
)
from repro.sql.calibration import CalibratedEstimator, CalibrationStore
from repro.sql.plancache import PlanCache
from repro.sql.stats import (
    TableStats,
    build_table_stats,
    record_estimator_accuracy,
)

#: Per-model predicted labels aligned positionally with a result row set.
PredictionStore = Mapping[str, tuple[Value, ...]]


@dataclass(frozen=True)
class ExecutionReport:
    """Everything observed while executing one mining query.

    ``rows_fetched`` counts rows crossing the SQL boundary; ``rows`` is the
    final result after residual model application — a columnar
    :class:`~repro.core.columns.RowSet` taken from the fetched table,
    which reads as a sequence of row dicts.  ``sql_seconds`` and
    ``model_seconds`` split the cost the way the paper's discussion does
    (its timings exclude model invocation; ours reports both).
    """

    strategy: str
    rows: RowSet
    rows_fetched: int
    sql_seconds: float
    model_seconds: float
    plan: Plan
    optimized: OptimizedQuery | None = None
    #: Model predictions memoized during the residual filter, keyed by
    #: model name and aligned with ``rows`` — so downstream consumers
    #: (e.g. :meth:`PredictionJoinExecutor.predictions`) never re-score
    #: rows the executor already scored.
    predictions: PredictionStore | None = None
    #: Selectivity of the final pushed predicate: the estimate the
    #: executor acted on (calibrated when a calibration store is wired)
    #: and the measured fraction — ``None`` on paths that never
    #: estimate (naive strategy, gate disabled without calibration).
    estimated_selectivity: float | None = None
    actual_selectivity: float | None = None

    @property
    def total_seconds(self) -> float:
        return self.sql_seconds + self.model_seconds

    @property
    def rows_returned(self) -> int:
        return len(self.rows)


class PredictionJoinExecutor:
    """Executes :class:`MiningQuery` objects against one database.

    ``selectivity_gate`` implements the paper's Section 4.2 mitigation
    ("simplification based on selectivity estimates"): an injected envelope
    whose estimated selectivity exceeds the gate is stripped before
    execution, because indexed access paths only pay off for selective
    predicates (the paper observes the optimizer "rarely selects indexes"
    above roughly 10% selectivity).  Set it to ``None`` to always push the
    envelope regardless of selectivity.

    The residual filter scores fetched rows in columnar batches of
    ``batch_size`` rows through each model's ``predict_batch``, memoizing
    predictions per (model, row); its result is what
    :meth:`MiningQuery.evaluate` (the reference semantics) returns row by
    row.
    """

    def __init__(
        self,
        db: Database,
        catalog: ModelCatalog,
        selectivity_gate: float | None = 0.2,
        stats_sample: int = 10_000,
        plan_cache: "PlanCache | None" = None,
        batch_size: int = 2048,
        stats_cache: "dict[str, TableStats] | None" = None,
        calibration: "CalibrationStore | None" = None,
    ) -> None:
        if batch_size < 1:
            raise ModelError(f"batch_size must be >= 1, got {batch_size}")
        self._db = db
        self._catalog = catalog
        self._selectivity_gate = selectivity_gate
        self._stats_sample = stats_sample
        # ``stats_cache`` may be shared between executors over the same
        # data (the serving layer passes one dict to every worker).  Stats
        # building is deterministic, so a racing double-build stores
        # identical values — wasted work at worst, never divergence.
        self._stats_cache: dict[str, TableStats] = (
            stats_cache if stats_cache is not None else {}
        )
        self._plan_cache = plan_cache
        self._batch_size = batch_size
        # The calibration store is shared the same way the stats cache
        # is: every executor over the same data feeds and reads one
        # store, so observations from any worker improve every worker's
        # estimates.  Calibration steers physical decisions only —
        # gating, operand ordering, plan reuse — never result rows.
        self._calibration = calibration

    @property
    def batch_size(self) -> int:
        """Rows per columnar batch of the residual filter."""
        return self._batch_size

    @property
    def calibration(self) -> "CalibrationStore | None":
        """The shared selectivity-calibration store (``None`` = open loop)."""
        return self._calibration

    def _table_stats(self, table: str) -> TableStats:
        if table not in self._stats_cache:
            sample = self._db.sample_rows(table, self._stats_sample)
            self._stats_cache[table] = build_table_stats(
                table, sample, row_count=self._db.row_count(table)
            )
        return self._stats_cache[table]

    # -- residual model application ---------------------------------------

    def _apply_mining_predicates(
        self,
        fetched: RowSet,
        predicates: Sequence[MiningPredicate],
        envelopes: Sequence[Predicate] | None = None,
        estimator: SelectivityEstimator | None = None,
    ) -> tuple[RowSet, dict[str, tuple[Value, ...]]]:
        """Rows of ``fetched`` satisfying every mining predicate, plus the
        per-model predictions memoized for the surviving rows.

        ``envelopes``, when given, holds each predicate's upper envelope
        (positionally aligned).  An envelope is a superset of its
        predicate, so rows failing it cannot pass the predicate — it is
        applied first as a cheap columnar prefilter before the model runs.
        The executor only passes envelopes that were *not* pushed into
        SQL; a pushed envelope has already filtered the fetch.

        Predictions are memoized per (model, row), so several predicates
        over one model score each row once.  The second return value
        surfaces those memos (model name -> labels aligned with the
        surviving rows) so callers that need prediction columns never
        invoke the models again.  The survivors are ``fetched.take(alive)``
        — ``fetched`` itself when every row survives — so no row object is
        built on the way out.
        """
        if not predicates:
            return fetched, {}
        alive_parts: list[np.ndarray] = []
        predictions: dict[str, list[Value]] | None = None
        step = self._batch_size
        for start in range(0, len(fetched), step):
            alive, batch_predictions = self._filter_batch(
                fetched[start : start + step],
                predicates,
                envelopes,
                estimator,
            )
            if alive.size == 0:
                continue
            alive_parts.append(alive + start)
            if predictions is None:
                predictions = batch_predictions
            else:
                # A model memoized in one chunk but not another (possible
                # only with exotic predicates that bypass the cache) cannot
                # be stitched back together; drop it and let callers
                # re-score.
                for name in list(predictions):
                    chunk_values = batch_predictions.get(name)
                    if chunk_values is None:
                        del predictions[name]
                    else:
                        predictions[name].extend(chunk_values)
        survivors = _survivors(
            fetched, np.concatenate(alive_parts) if alive_parts else []
        )
        if obs.enabled():
            obs.add_counter("executor.residual.rows_in", len(fetched))
            obs.add_counter("executor.residual.rows_out", len(survivors))
        store = {
            name: tuple(values)
            for name, values in (predictions or {}).items()
            if len(values) == len(survivors)
        }
        return survivors, store

    def _filter_batch(
        self,
        chunk: RowSet,
        predicates: Sequence[MiningPredicate],
        envelopes: Sequence[Predicate] | None,
        estimator: SelectivityEstimator | None,
    ) -> tuple[np.ndarray, dict[str, list[Value]]]:
        """Vectorized filter of one batch with short-circuit compaction.

        After each predicate, rows already ruled out are compacted away
        (``ColumnBatch.take``), and the per-model prediction memo is
        sliced in lockstep so cached predictions stay row-aligned.
        Returns the chunk positions still alive and the surviving slice
        of that memo.
        """
        batch = ColumnBatch(chunk)
        cache: dict[str, np.ndarray] = {}
        alive = np.arange(len(chunk))
        for index, predicate in enumerate(predicates):
            envelope = (
                envelopes[index] if envelopes is not None else None
            )
            if envelope is not None and not isinstance(
                envelope, TruePredicate
            ):
                mask = envelope.evaluate_batch(batch, estimator)
                batch, cache, alive = _compact(batch, cache, alive, mask)
                if len(batch) == 0:
                    return alive, {}
            mask = predicate.evaluate_batch(batch, self._catalog, cache)
            batch, cache, alive = _compact(batch, cache, alive, mask)
            if len(batch) == 0:
                return alive, {}
        # ``cache`` arrays were sliced in lockstep with every compaction,
        # so they are aligned with the surviving rows.
        return alive, {name: list(values) for name, values in cache.items()}

    def execute_naive(self, query: MiningQuery) -> ExecutionReport:
        """Extract-and-mine: SQL evaluates only the relational predicate."""
        with obs.span(
            "execute.naive", table=query.table
        ) as execute_span:
            select = capture_select_plan(
                self._db, query.table, query.relational_predicate
            )
            with obs.span("execute.sql", table=query.table) as sql_span:
                started = time.perf_counter()
                fetched = self._db.query_rows(select.sql)
                sql_seconds = time.perf_counter() - started
                sql_span.set("rows_fetched", len(fetched))

            with obs.span("execute.model", table=query.table) as model_span:
                started = time.perf_counter()
                rows, predictions = self._apply_mining_predicates(
                    fetched, query.mining_predicates
                )
                model_seconds = time.perf_counter() - started
                model_span.update(rows_in=len(fetched), rows_out=len(rows))
            execute_span.update(
                rows_fetched=len(fetched),
                rows_returned=len(rows),
                sql_seconds=sql_seconds,
                model_seconds=model_seconds,
            )
            return ExecutionReport(
                strategy="extract-and-mine",
                rows=rows,
                rows_fetched=len(fetched),
                sql_seconds=sql_seconds,
                model_seconds=model_seconds,
                plan=select.plan,
                predictions=predictions,
            )

    def execute_optimized(
        self,
        query: MiningQuery,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    ) -> ExecutionReport:
        """Envelope-injected execution (paper Section 4).

        The residual model application keeps semantics exact even for loose
        envelopes; a FALSE pushable predicate returns immediately with a
        constant-scan plan and zero data access.
        """
        with obs.span(
            "execute.optimized", table=query.table
        ) as execute_span:
            stats: TableStats | None = None
            estimator: CalibratedEstimator | None = None
            if (
                self._selectivity_gate is not None
                or self._calibration is not None
            ):
                stats = self._table_stats(query.table)
                estimator = CalibratedEstimator(stats, self._calibration)
            if self._plan_cache is not None:
                optimized = self._plan_cache.get_or_optimize(
                    query,
                    self._catalog,
                    calibrated=estimator,
                    max_disjuncts=max_disjuncts,
                )
            else:
                optimized = optimize(
                    query, self._catalog, max_disjuncts=max_disjuncts
                )
            if optimized.constant_false:
                execute_span.update(constant_false=True, rows_returned=0)
                return ExecutionReport(
                    strategy="optimized",
                    rows=RowSet((), ()),
                    rows_fetched=0,
                    sql_seconds=0.0,
                    model_seconds=0.0,
                    plan=capture_plan(
                        self._db, query.table, optimized.pushable_predicate
                    ),
                    optimized=optimized,
                    predictions={},
                )
            pushable = optimized.pushable_predicate
            envelopes: list[Predicate] | None = None
            acted_estimate: float | None = None
            if estimator is not None:
                acted_estimate = estimator(pushable)
                if self._plan_cache is not None:
                    # The estimate this plan is being executed under;
                    # later lookups compare it against the calibrated
                    # truth and recalibrate on divergence.
                    self._plan_cache.record_estimate(
                        query,
                        self._catalog,
                        acted_estimate,
                        max_disjuncts=max_disjuncts,
                    )
                if (
                    self._selectivity_gate is not None
                    and acted_estimate > self._selectivity_gate
                ):
                    # The envelope is too unselective to buy an index plan;
                    # strip it (paper Section 4.2: "the upper envelope can
                    # be removed at the end of the optimization").  It
                    # still holds as a predicate-level superset, so the
                    # residual filter reuses it as a columnar prefilter
                    # ahead of model scoring.  The first len(residual)
                    # injections align positionally with the residual
                    # predicates.
                    obs.event(
                        "execute.envelope_stripped",
                        table=query.table,
                        estimated=acted_estimate,
                        gate=self._selectivity_gate,
                    )
                    pushable = optimized.query.relational_predicate
                    envelopes = [
                        injection.envelope
                        for injection in optimized.injections[
                            : len(optimized.residual_predicates)
                        ]
                    ]
                    acted_estimate = estimator(pushable)
            select = capture_select_plan(self._db, query.table, pushable)
            sql, plan = select.sql, select.plan
            with obs.span("execute.sql", table=query.table) as sql_span:
                started = time.perf_counter()
                fetched = self._db.query_rows(sql)
                sql_seconds = time.perf_counter() - started
                sql_span.set("rows_fetched", len(fetched))
            actual: float | None = None
            if (
                estimator is not None
                and stats is not None
                and stats.row_count > 0
            ):
                # Estimator-accuracy feedback: the estimate the optimizer
                # acted on versus the measured selectivity of the same
                # (final) pushed predicate — recorded for the trace, and
                # fed back into the calibration store so the next
                # execution estimates from observation.
                actual = len(fetched) / stats.row_count
                if obs.enabled():
                    record_estimator_accuracy(
                        query.table,
                        pushable,
                        acted_estimate,
                        actual,
                        stats.row_count,
                        static_estimated=estimator.static(pushable),
                    )
                if self._calibration is not None:
                    self._calibration.observe(
                        query.table,
                        pushable,
                        acted_estimate,
                        actual,
                        stats.version,
                    )

            with obs.span("execute.model", table=query.table) as model_span:
                started = time.perf_counter()
                rows, predictions = self._apply_mining_predicates(
                    fetched,
                    optimized.residual_predicates,
                    envelopes=envelopes,
                    estimator=estimator,
                )
                model_seconds = time.perf_counter() - started
                model_span.update(rows_in=len(fetched), rows_out=len(rows))
            execute_span.update(
                rows_fetched=len(fetched),
                rows_returned=len(rows),
                sql_seconds=sql_seconds,
                model_seconds=model_seconds,
            )
            return ExecutionReport(
                strategy="optimized",
                rows=rows,
                rows_fetched=len(fetched),
                sql_seconds=sql_seconds,
                model_seconds=model_seconds,
                plan=plan,
                optimized=optimized,
                predictions=predictions,
                estimated_selectivity=acted_estimate,
                actual_selectivity=actual,
            )

    def execute(
        self, query: MiningQuery, optimize_query: bool = True
    ) -> ExecutionReport:
        """Dispatch on strategy; the default is the optimized path."""
        if optimize_query:
            return self.execute_optimized(query)
        return self.execute_naive(query)

    def predictions(
        self, query: MiningQuery, optimize_query: bool = True
    ) -> list[dict[str, Value]]:
        """Result rows augmented with each model's prediction column.

        This mirrors the shape of the paper's DMX example output
        (``SELECT D.Customer_ID, M.Risk ...``): every referenced model
        contributes its prediction column to the returned rows.

        The residual filter already scored (and memoized) every surviving
        row, so the labels come straight from the execution report; a
        model is re-scored only if its memo is unavailable (exotic
        predicates that bypass the prediction cache).
        """
        report = self.execute(query, optimize_query=optimize_query)
        model_names: list[str] = []
        for predicate in query.mining_predicates:
            for name in predicate.models():
                if name not in model_names:
                    model_names.append(name)
        augmented = [dict(row) for row in report.rows]
        memoized = report.predictions or {}
        for name in model_names:
            model = self._catalog.model(name)
            labels: Sequence[Value] | None = memoized.get(name)
            if labels is None or len(labels) != len(report.rows):
                labels = model.predict_many(report.rows)
            for enriched, label in zip(augmented, labels):
                enriched[model.prediction_column] = label
        return augmented


def _survivors(fetched: RowSet, alive: Sequence[int]) -> RowSet:
    """``fetched`` narrowed to the ``alive`` positions, uncopied if all are."""
    if len(alive) == len(fetched):
        return fetched
    return fetched.take(alive)


def _compact(
    batch: ColumnBatch,
    cache: dict[str, np.ndarray],
    alive: np.ndarray,
    mask: np.ndarray,
) -> tuple[ColumnBatch, dict[str, np.ndarray], np.ndarray]:
    """Narrow a batch to the rows where ``mask`` holds.

    Cached prediction arrays are sliced with the same index set so they
    stay aligned with the surviving rows; ``alive`` tracks positions in
    the original chunk.
    """
    if mask.all():
        return batch, cache, alive
    keep = np.flatnonzero(mask)
    batch = batch.take(keep)
    cache = {name: values[keep] for name, values in cache.items()}
    return batch, cache, alive[keep]


def baseline_full_scan(db: Database, table: str) -> ExecutionReport:
    """The paper's comparison query: ``SELECT * FROM T`` timed end-to-end."""
    count, seconds = db.timed_fetch(select_statement(table, TRUE))
    return ExecutionReport(
        strategy="full-scan",
        rows=RowSet((), ()),
        rows_fetched=count,
        sql_seconds=seconds,
        model_seconds=0.0,
        plan=FULL_SCAN_PLAN,
    )
