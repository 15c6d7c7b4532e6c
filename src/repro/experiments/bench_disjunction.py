"""Disjunction-execution benchmark (the ``disjunction-bench`` CLI artifact).

Measures what the interned-atom mask cache and plan-once operand
ordering buy on the predicates this repo exists for: wide upper
envelopes.  Naive Bayes and clustering envelopes are ORs of many
conjunctions drawn from a small per-feature bin vocabulary, so the same
atoms recur across disjuncts — exactly the sharing the
:class:`~repro.ir.batch.BatchLowering` cache exploits by lowering each
distinct atom once per batch at full width.

The **naive** baseline is the pre-cache strategy preserved here as
:class:`NaiveBatchLowering` / :func:`evaluate_batch_naive` (the oracle
lives beside its only caller, not in the product): per-visit operand
sorting and ``take`` compaction, re-lowering every atom occurrence.
**cached** runs the same predicates through ``evaluate_batch``.  Both
paths' masks are compared byte-for-byte on every batch — the speedup
is only reported if the answers are identical.

``run_disjunction_bench`` returns the JSON-ready payload written to
``BENCH_disjunction.json`` by ``python -m repro disjunction-bench``.
"""

from __future__ import annotations

import argparse
import time
from collections.abc import Iterable
from itertools import islice

import numpy as np

from repro import obs
from repro.core.columns import ColumnBatch
from repro.core.predicates import (
    And,
    Comparison,
    FalsePredicate,
    InSet,
    Interval,
    Not,
    Or,
    Predicate,
    SelectivityEstimator,
    TruePredicate,
    atom_count,
    disjunct_count,
)
from repro.exceptions import ReproError
from repro.experiments.benches import count_flag, row_batches
from repro.experiments.config import ExperimentConfig, SMOKE_CONFIG
from repro.experiments.harness import dataset_for, train_family
from repro.ir import intern
from repro.ir.batch import (
    BatchLowering,
    _comparison_mask,
    _has_override,
    _in_set_mask,
    _interval_mask,
    evaluate_batch,
    reset_plan_memo,
)
from repro.ir.visitor import PredicateVisitor
from repro.sql.stats import build_table_stats, estimate_selectivity
from repro.workload.measurement import (
    FAMILY_CLUSTERING,
    FAMILY_NAIVE_BAYES,
)

# ---------------------------------------------------------------------------
# Naive reference lowering (the pre-cache clause-by-clause strategy)
# ---------------------------------------------------------------------------


class NaiveBatchLowering(PredicateVisitor):
    """The previous short-circuit compaction strategy, kept as an oracle.

    Stateless — per-call context (batch, estimator) passes through the
    visitor's ``*args``.  Every connective re-sorts its operands per
    visit and re-evaluates every atom in every disjunct it appears in;
    the disjunction bench verifies the caching context byte-identical
    against this path and measures its speedup.
    """

    __slots__ = ()

    def _operand(
        self,
        operand: Predicate,
        batch: "ColumnBatch",
        estimator: SelectivityEstimator | None,
    ) -> np.ndarray:
        if _has_override(operand):
            return operand.evaluate_batch(batch, estimator)
        return self.visit(operand, batch, estimator)

    def visit_true(
        self,
        pred: TruePredicate,
        batch: "ColumnBatch",
        estimator: SelectivityEstimator | None,
    ) -> np.ndarray:
        return np.ones(len(batch), dtype=bool)

    def visit_false(
        self,
        pred: FalsePredicate,
        batch: "ColumnBatch",
        estimator: SelectivityEstimator | None,
    ) -> np.ndarray:
        return np.zeros(len(batch), dtype=bool)

    def visit_comparison(
        self,
        pred: Comparison,
        batch: "ColumnBatch",
        estimator: SelectivityEstimator | None,
    ) -> np.ndarray:
        return _comparison_mask(pred, batch)

    def visit_in_set(
        self,
        pred: InSet,
        batch: "ColumnBatch",
        estimator: SelectivityEstimator | None,
    ) -> np.ndarray:
        return _in_set_mask(pred, batch)

    def visit_interval(
        self,
        pred: Interval,
        batch: "ColumnBatch",
        estimator: SelectivityEstimator | None,
    ) -> np.ndarray:
        return _interval_mask(pred, batch)

    def visit_and(
        self,
        pred: And,
        batch: "ColumnBatch",
        estimator: SelectivityEstimator | None,
    ) -> np.ndarray:
        n = len(batch)
        if n == 0:
            return np.zeros(0, dtype=bool)
        operands: Iterable[Predicate] = pred.operands
        if estimator is not None:
            # Most-selective conjunct first: it eliminates the most rows,
            # so later (possibly expensive) conjuncts see the smallest
            # surviving batch.
            operands = sorted(pred.operands, key=estimator)
        alive: np.ndarray | None = None
        current = batch
        for operand in operands:
            mask = self._operand(operand, current, estimator)
            if mask.all():
                continue
            keep = np.flatnonzero(mask)
            alive = keep if alive is None else alive[keep]
            if keep.size == 0:
                break
            current = current.take(keep)
        if alive is None:
            return np.ones(n, dtype=bool)
        out = np.zeros(n, dtype=bool)
        out[alive] = True
        return out

    def visit_or(
        self,
        pred: Or,
        batch: "ColumnBatch",
        estimator: SelectivityEstimator | None,
    ) -> np.ndarray:
        n = len(batch)
        if n == 0:
            return np.zeros(0, dtype=bool)
        operands: Iterable[Predicate] = pred.operands
        if estimator is not None:
            # Most-admitting disjunct first: it settles the most rows to
            # TRUE, so later disjuncts run on the fewest undecided rows.
            operands = sorted(pred.operands, key=estimator, reverse=True)
        out = np.zeros(n, dtype=bool)
        pending: np.ndarray | None = None
        current = batch
        for operand in operands:
            mask = self._operand(operand, current, estimator)
            if pending is None:
                out |= mask
                pending = np.flatnonzero(~mask)
            else:
                out[pending[mask]] = True
                pending = pending[~mask]
            if pending.size == 0:
                break
            current = batch.take(pending)
        return out

    def visit_not(
        self,
        pred: Not,
        batch: "ColumnBatch",
        estimator: SelectivityEstimator | None,
    ) -> np.ndarray:
        return ~self._operand(pred.operand, batch, estimator)


#: Shared stateless reference instance behind :func:`evaluate_batch_naive`.
_NAIVE = NaiveBatchLowering()


def evaluate_batch_naive(
    pred: Predicate,
    batch: "ColumnBatch",
    estimator: SelectivityEstimator | None = None,
) -> np.ndarray:
    """Reference clause-by-clause evaluation (no mask cache, no plan memo)."""
    return _NAIVE.visit(pred, batch, estimator)


def widest_envelopes(
    config: ExperimentConfig, dataset_name: str
) -> tuple[list[dict], list[dict]]:
    """The widest NB and clustering envelope per family, interned.

    Returns ``(cases, source_rows)`` where each case carries the
    family, class label, interned predicate, and structural counts for
    the payload.  Width is the top-level disjunct count —
    the quantity the mask cache's per-disjunct sharing scales with.
    """
    dataset = dataset_for(config, dataset_name)
    cases: list[dict] = []
    for family in (FAMILY_NAIVE_BAYES, FAMILY_CLUSTERING):
        trained = train_family(dataset, family, config)
        label, envelope = max(
            trained.envelopes.items(),
            key=lambda kv: (disjunct_count(kv[1].predicate), str(kv[0])),
        )
        predicate = intern(envelope.predicate)
        cases.append(
            {
                "family": family,
                "label": str(label),
                "predicate": predicate,
                "disjuncts": disjunct_count(predicate),
                "atoms": atom_count(predicate),
            }
        )
    return cases, list(dataset.train_rows)


def _verify_identical(
    label: str,
    naive_masks: list[np.ndarray],
    cached_masks: list[np.ndarray],
) -> None:
    """Raise unless both strategies produced byte-identical masks."""
    mismatched = sum(
        1
        for naive, cached in zip(naive_masks, cached_masks)
        if naive.dtype != cached.dtype or not np.array_equal(naive, cached)
    )
    if mismatched:
        raise ReproError(
            f"disjunction-bench: {label}: {mismatched}/{len(naive_masks)} "
            "batches diverge between cached and naive evaluation"
        )


def _bench_envelope(
    case: dict,
    batches: list[ColumnBatch],
    estimator,
) -> dict:
    """Time naive vs cached evaluation of one envelope, verify, report."""
    predicate = case["predicate"]
    rows = sum(len(batch) for batch in batches)

    # Warm the column caches (and the plan memo for the cached path)
    # off the clock so neither side pays first-touch astype cost.
    warmup = next(islice(iter(batches), 1))
    evaluate_batch_naive(predicate, warmup, estimator)
    evaluate_batch(predicate, warmup, estimator)

    started = time.perf_counter()
    naive_masks = [
        evaluate_batch_naive(predicate, batch, estimator)
        for batch in batches
    ]
    naive_seconds = time.perf_counter() - started

    started = time.perf_counter()
    cached_masks = [
        evaluate_batch(predicate, batch, estimator) for batch in batches
    ]
    cached_seconds = time.perf_counter() - started

    _verify_identical(
        f"{case['family']}/{case['label']}", naive_masks, cached_masks
    )

    # One instrumented pass to report the cache's sharing structure
    # (stats collection is outside the timed loops on purpose).
    context = BatchLowering(batches[0], estimator)
    context.mask(predicate)
    stats = context.stats
    return {
        "family": case["family"],
        "label": case["label"],
        "disjuncts": case["disjuncts"],
        "atoms": case["atoms"],
        "naive_seconds": round(naive_seconds, 4),
        "cached_seconds": round(cached_seconds, 4),
        "speedup": round(naive_seconds / cached_seconds, 2),
        "rows_per_second": round(rows / cached_seconds, 1),
        "masks_identical": True,
        "masks_computed": stats.computed,
        "masks_shared": stats.shared,
        "share_ratio": round(stats.share_ratio, 4),
    }


def run_disjunction_bench(
    config: ExperimentConfig | None = None,
    dataset_name: str = "diabetes",
    rows: int = 16_384,
    batch_size: int = 512,
    seed: int = 11,
) -> dict:
    """The full benchmark: envelopes, naive vs cached."""
    config = config or SMOKE_CONFIG
    with obs.span("disjunction.bench", dataset=dataset_name, rows=rows):
        cases, source_rows = widest_envelopes(config, dataset_name)
        stats = build_table_stats("disjunction_bench", source_rows)

        def estimator(predicate: Predicate) -> float:
            return estimate_selectivity(stats, predicate)

        estimator.stats_version = stats.version

        reset_plan_memo()
        batches = row_batches(source_rows, rows, batch_size)
        envelope_reports = [
            _bench_envelope(case, batches, estimator) for case in cases
        ]
        naive_total = sum(r["naive_seconds"] for r in envelope_reports)
        cached_total = sum(r["cached_seconds"] for r in envelope_reports)
        return {
            "benchmark": "disjunction_execution",
            "dataset": dataset_name,
            "rows": rows,
            "batch_size": batch_size,
            "batches": len(batches),
            "seed": seed,
            "envelopes": envelope_reports,
            "overall": {
                "naive_seconds": round(naive_total, 4),
                "cached_seconds": round(cached_total, 4),
                "speedup": round(naive_total / cached_total, 2),
            },
        }


def add_arguments(parser: argparse.ArgumentParser) -> None:
    count_flag(parser, "--rows", 1, 8192, "rows streamed through evaluation")


def run(config: ExperimentConfig, args: argparse.Namespace) -> dict:
    return run_disjunction_bench(config, rows=args.rows)


def summary(report: dict) -> list[str]:
    return [
        f"{envelope['family']}/{envelope['label']}: "
        f"{envelope['disjuncts']} disjuncts, "
        f"naive {envelope['naive_seconds']:.3f}s, "
        f"cached {envelope['cached_seconds']:.3f}s "
        f"({envelope['speedup']:.2f}x, share ratio "
        f"{envelope['share_ratio']:.2f})"
        for envelope in report["envelopes"]
    ] + [
        f"overall speedup {report['overall']['speedup']:.2f}x",
    ]
