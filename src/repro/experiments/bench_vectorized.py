"""Scalar-vs-vectorized residual scoring benchmark.

The tentpole claim of the vectorized execution layer is that residual
model application — the hot path the paper identifies as the expensive
part of a mining query — gets dramatically cheaper when each model scores
fetched rows as one columnar batch instead of row-at-a-time, while the
result rows stay byte-identical.

This benchmark makes that claim measurable and checkable.  It loads one
benchmark dataset at the configuration's full table scale, trains a model
from **every** model family the library supports (decision tree, naive
Bayes, rules, k-means, GMM, grid-density), and runs the same
extract-and-mine query through two executors differing only in the
``vectorized`` knob.  Each query carries two mining predicates over the
same model, so the per-(model, batch) memoization is on the measured
path.  The report records per-family model-application timings, the
speedup, and an equality invariant verified on the serialized rows;
an invariant violation raises instead of reporting a number for a
broken execution.
"""

from __future__ import annotations

import argparse
import time

from repro.core.catalog import ModelCatalog
from repro.core.optimizer import MiningQuery
from repro.core.rewrite import PredictionEquals, PredictionIn
from repro.exceptions import WorkloadError
from repro.experiments.benches import count_flag, rows_digest
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.harness import dataset_for, numeric_feature_columns
from repro.mining.base import MiningModel
from repro.mining.decision_tree import DecisionTreeLearner
from repro.mining.density import DensityClusterLearner
from repro.mining.gmm import GaussianMixtureLearner
from repro.mining.kmeans import KMeansLearner
from repro.mining.naive_bayes import NaiveBayesLearner
from repro.mining.rules import RuleLearner
from repro.sql.miningext import ExecutionReport, PredictionJoinExecutor
from repro.workload.runner import load_dataset

#: Dataset used for the benchmark; present at every experiment scale.
BENCH_DATASET = "diabetes"


def _train_all_families(
    dataset, config: ExperimentConfig
) -> list[tuple[str, MiningModel]]:
    """One trained model per supported family, on the dataset's rows."""
    rows = dataset.train_rows
    features = dataset.feature_columns
    target = dataset.target_column
    numeric = numeric_feature_columns(dataset)
    models: list[tuple[str, MiningModel]] = [
        (
            "decision_tree",
            DecisionTreeLearner(
                features,
                target,
                max_depth=config.tree_max_depth,
                name="bench_tree",
            ).fit(rows),
        ),
        (
            "naive_bayes",
            NaiveBayesLearner(
                features, target, bins=config.nb_bins, name="bench_nb"
            ).fit(rows),
        ),
        (
            "rules",
            RuleLearner(features, target, name="bench_rules").fit(rows),
        ),
    ]
    if numeric:
        models.extend(
            [
                (
                    "kmeans",
                    KMeansLearner(
                        numeric, 3, seed=config.seed, name="bench_kmeans"
                    ).fit(rows),
                ),
                (
                    "gmm",
                    GaussianMixtureLearner(
                        numeric, 3, seed=config.seed, name="bench_gmm"
                    ).fit(rows),
                ),
                (
                    "density",
                    DensityClusterLearner(
                        numeric,
                        bins=config.cluster_bins,
                        name="bench_density",
                    ).fit(rows),
                ),
            ]
        )
    return models


def _query_for(model: MiningModel, table: str) -> MiningQuery:
    """A two-predicate query over one model (memoization on the hot path).

    The IN predicate admits every label (the model must still run to
    prove it) and the equality predicate narrows to one class, so both
    predicates need the same per-batch predictions.
    """
    labels = model.class_labels
    return MiningQuery(
        table,
        mining_predicates=(
            PredictionIn(model.name, labels),
            PredictionEquals(model.name, labels[0]),
        ),
    )


def _best_naive(
    executor: PredictionJoinExecutor, query: MiningQuery, repeats: int
) -> ExecutionReport:
    """The run with the lowest residual-scoring time."""
    best: ExecutionReport | None = None
    for _ in range(max(1, repeats)):
        report = executor.execute_naive(query)
        if best is None or report.model_seconds < best.model_seconds:
            best = report
    assert best is not None
    return best


def benchmark_vectorized_scoring(
    config: ExperimentConfig = DEFAULT_CONFIG,
    repeats: int = 3,
    scale: str | None = None,
    batch_size: int = 2048,
) -> dict:
    """Time scalar vs vectorized residual scoring; return the report.

    Raises :class:`~repro.exceptions.WorkloadError` if any family's
    vectorized rows differ from the scalar rows — the equality invariant
    is the point, the timings are only meaningful when it holds.
    """
    dataset = dataset_for(config, BENCH_DATASET)
    loaded = load_dataset(dataset, config.rows_target)
    started = time.perf_counter()
    models = _train_all_families(dataset, config)
    train_seconds = time.perf_counter() - started
    catalog = ModelCatalog()
    for _, model in models:
        # Envelopes are irrelevant to extract-and-mine scoring; skip the
        # derivation cost by registering empty envelope sets.
        catalog.register(model, envelopes={})
    scalar = PredictionJoinExecutor(
        loaded.db, catalog, selectivity_gate=None, vectorized=False
    )
    vectorized = PredictionJoinExecutor(
        loaded.db,
        catalog,
        selectivity_gate=None,
        vectorized=True,
        batch_size=batch_size,
    )
    families = []
    total_scalar = 0.0
    total_vectorized = 0.0
    try:
        for family, model in models:
            query = _query_for(model, loaded.table)
            scalar_report = _best_naive(scalar, query, repeats)
            vectorized_report = _best_naive(vectorized, query, repeats)
            identical = rows_digest([scalar_report.rows]) == rows_digest(
                [vectorized_report.rows]
            )
            if not identical:
                raise WorkloadError(
                    f"vectorized rows differ from scalar rows for "
                    f"{family} model {model.name!r}"
                )
            total_scalar += scalar_report.model_seconds
            total_vectorized += vectorized_report.model_seconds
            families.append(
                {
                    "family": family,
                    "model": model.name,
                    "rows_fetched": scalar_report.rows_fetched,
                    "rows_returned": scalar_report.rows_returned,
                    "scalar_model_seconds": scalar_report.model_seconds,
                    "vectorized_model_seconds": (
                        vectorized_report.model_seconds
                    ),
                    "speedup": (
                        scalar_report.model_seconds
                        / vectorized_report.model_seconds
                        if vectorized_report.model_seconds > 0
                        else None
                    ),
                    "rows_identical": identical,
                }
            )
    finally:
        loaded.db.close()
    return {
        "benchmark": "vectorized_scoring",
        "scale": scale,
        "dataset": BENCH_DATASET,
        "rows_in_table": loaded.rows_total,
        "batch_size": vectorized.batch_size,
        "repeats": repeats,
        "train_seconds": train_seconds,
        "families": families,
        "total_scalar_model_seconds": total_scalar,
        "total_vectorized_model_seconds": total_vectorized,
        "overall_speedup": (
            total_scalar / total_vectorized if total_vectorized > 0 else None
        ),
        "all_rows_identical": all(f["rows_identical"] for f in families),
    }


def add_arguments(parser: argparse.ArgumentParser) -> None:
    count_flag(parser, "--batch-size", 1, 2048, "rows per columnar batch")


def run(config: ExperimentConfig, args: argparse.Namespace) -> dict:
    return benchmark_vectorized_scoring(
        config, scale=args.scale, batch_size=args.batch_size
    )


def _times(speedup: float | None) -> str:
    return f"{speedup:.2f}x" if speedup is not None else "n/a"


def summary(report: dict) -> list[str]:
    lines = [
        f"{entry['family']}: scalar "
        f"{entry['scalar_model_seconds']:.3f}s, vectorized "
        f"{entry['vectorized_model_seconds']:.3f}s "
        f"(speedup {_times(entry['speedup'])}, rows identical: "
        f"{entry['rows_identical']})"
        for entry in report["families"]
    ]
    lines.append(
        f"overall speedup {_times(report['overall_speedup'])}; "
        f"all rows identical: {report['all_rows_identical']}"
    )
    return lines
