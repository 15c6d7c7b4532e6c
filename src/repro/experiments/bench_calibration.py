"""Calibration-loop benchmark (the ``calibration-bench`` CLI artifact).

Demonstrates the estimator feedback loop of :mod:`repro.sql.calibration`
end to end: the same mining workload is executed repeatedly through one
:class:`~repro.sql.miningext.PredictionJoinExecutor` wired to a shared
:class:`~repro.sql.calibration.CalibrationStore`.  The first pass
estimates from the static independence model; every pass feeds the
measured selectivity of each pushed predicate back into the store, so
later passes estimate from observation.  The payload records, per pass,
the absolute-error quantiles of ``|estimated - actual|`` over every
executed query — the headline claim is that the quantiles *strictly
shrink* between the first and last pass.

Two invariants are verified (the bench raises if either fails):

* **byte-identical results** — every query returns the same canonical
  row set on every pass, and the same set an *uncalibrated* executor
  returns.  Calibration steers physical decisions only (gating, operand
  order, plan reuse); semantics never move.
* **shrinking error** — the p50/p90/max absolute error of the last pass
  is strictly below the first pass's.

The plan cache runs with divergence-triggered invalidation enabled, so
the payload also reports how many cached plans were dropped for estimate
divergence (``recalibrations``) — the counter the ``trace-report``
Calibration section surfaces.

``run_calibration_bench`` returns the JSON-ready payload written to
``BENCH_calibration.json`` by ``python -m repro calibration-bench``.
"""

from __future__ import annotations

import argparse

from repro import obs
from repro.core.catalog import ModelCatalog
from repro.core.optimizer import MiningQuery
from repro.core.rewrite import PredictionEquals
from repro.exceptions import ReproError
from repro.experiments.benches import count_flag, rows_digest
from repro.experiments.config import ExperimentConfig, SMOKE_CONFIG
from repro.experiments.harness import dataset_for, train_family
from repro.obs.report import _quantile
from repro.sql.calibration import CalibrationStore
from repro.sql.miningext import PredictionJoinExecutor
from repro.sql.plancache import PlanCache
from repro.workload.runner import load_dataset

#: Divergence threshold for the bench's plan cache: tight enough that a
#: first-pass static estimate contradicted by measurement triggers a
#: recalibration on the second pass for typical envelope errors.
RECALIBRATION_THRESHOLD = 0.01


def _error_quantiles(errors: list[float]) -> dict[str, float]:
    ordered = sorted(errors)
    return {
        "p50": round(_quantile(ordered, 0.50), 6),
        "p90": round(_quantile(ordered, 0.90), 6),
        "max": round(ordered[-1] if ordered else 0.0, 6),
        "mean": round(sum(ordered) / len(ordered), 6) if ordered else 0.0,
    }


def _workload(
    config: ExperimentConfig, dataset_name: str
) -> tuple[ModelCatalog, list[MiningQuery], object]:
    """Train every configured family and build one query per class."""
    dataset = dataset_for(config, dataset_name)
    loaded = load_dataset(dataset, config.rows_target)
    catalog = ModelCatalog()
    queries: list[MiningQuery] = []
    for family in config.families:
        trained = train_family(dataset, family, config)
        catalog.register(trained.model, envelopes=trained.envelopes)
        for label in trained.model.class_labels:
            queries.append(
                MiningQuery(
                    loaded.table,
                    mining_predicates=(
                        PredictionEquals(trained.model.name, label),
                    ),
                )
            )
    return catalog, queries, loaded


def run_calibration_bench(
    config: ExperimentConfig | None = None,
    dataset_name: str = "diabetes",
    passes: int = 4,
) -> dict:
    """Repeated workload passes through one calibrated executor.

    The executor runs without the selectivity gate so every query pushes
    its envelope — the estimate under test is then the envelope's, whose
    static independence-model error is what calibration exists to fix.
    (Gate dynamics are exercised by the unit suite; here they would let
    stripped-to-TRUE queries report a trivially exact estimate and dilute
    the before/after comparison.)
    """
    if passes < 2:
        raise ReproError(f"calibration-bench needs >= 2 passes, got {passes}")
    config = config or SMOKE_CONFIG
    with obs.span(
        "calibration.bench", dataset=dataset_name, passes=passes
    ):
        catalog, queries, loaded = _workload(config, dataset_name)
        try:
            store = CalibrationStore()
            plan_cache = PlanCache(
                recalibration_threshold=RECALIBRATION_THRESHOLD
            )
            stats_cache: dict = {}
            executor = PredictionJoinExecutor(
                loaded.db,
                catalog,
                selectivity_gate=None,
                plan_cache=plan_cache,
                stats_cache=stats_cache,
                calibration=store,
            )
            # The open-loop control: same data, same settings, no store.
            baseline = PredictionJoinExecutor(
                loaded.db,
                catalog,
                selectivity_gate=None,
                plan_cache=PlanCache(),
                stats_cache=stats_cache,
            )
            # The pushed SQL differs between passes when calibration
            # moves the gate, which may permute fetch order; the result
            # *set* must not change, so digests are order-insensitive.
            baseline_digests = [
                rows_digest(
                    [baseline.execute_optimized(query).rows], ordered=False
                )
                for query in queries
            ]

            pass_reports: list[dict] = []
            digests: list[list[str]] = []
            previous_store = store.stats.snapshot()
            previous_recalibrations = 0
            for index in range(passes):
                errors: list[float] = []
                pass_digests: list[str] = []
                for query in queries:
                    report = executor.execute_optimized(query)
                    pass_digests.append(
                        rows_digest([report.rows], ordered=False)
                    )
                    if (
                        report.estimated_selectivity is not None
                        and report.actual_selectivity is not None
                    ):
                        errors.append(
                            abs(
                                report.estimated_selectivity
                                - report.actual_selectivity
                            )
                        )
                digests.append(pass_digests)
                snapshot = store.stats.snapshot()
                recalibrations = plan_cache.stats.recalibrations
                pass_reports.append(
                    {
                        "pass": index + 1,
                        "records": len(errors),
                        "abs_error": _error_quantiles(errors),
                        "observations": snapshot["observations"]
                        - previous_store["observations"],
                        "overlay_lookups": snapshot["lookups"]
                        - previous_store["lookups"],
                        "overlay_hits": snapshot["hits"]
                        - previous_store["hits"],
                        "recalibrations": recalibrations
                        - previous_recalibrations,
                    }
                )
                previous_store = snapshot
                previous_recalibrations = recalibrations

            first, last = pass_reports[0], pass_reports[-1]
            shrunk = all(
                last["abs_error"][q] < first["abs_error"][q]
                for q in ("p50", "p90", "max")
            )
            if not shrunk:
                raise ReproError(
                    "calibration-bench: absolute-error quantiles did not "
                    f"strictly shrink (first {first['abs_error']} vs last "
                    f"{last['abs_error']})"
                )
            rows_stable = all(
                pass_digests == digests[0] for pass_digests in digests
            )
            rows_match_baseline = digests[0] == baseline_digests
            if not (rows_stable and rows_match_baseline):
                raise ReproError(
                    "calibration-bench: calibration changed result rows "
                    f"(stable across passes: {rows_stable}, identical to "
                    f"uncalibrated: {rows_match_baseline})"
                )
            return {
                "benchmark": "calibration_feedback",
                "dataset": dataset_name,
                "queries": len(queries),
                "passes": passes,
                "selectivity_gate": None,
                "recalibration_threshold": RECALIBRATION_THRESHOLD,
                "pass_reports": pass_reports,
                "first_vs_last": {
                    "first": first["abs_error"],
                    "last": last["abs_error"],
                    "strictly_shrunk": True,
                },
                "rows_identical_across_passes": True,
                "rows_identical_to_uncalibrated": True,
                "store": {
                    "entries": len(store),
                    "generation": store.generation,
                    **store.stats.snapshot(),
                },
                "plan_cache": {
                    "hits": plan_cache.stats.hits,
                    "misses": plan_cache.stats.misses,
                    "invalidations": plan_cache.stats.invalidations,
                    "recalibrations": plan_cache.stats.recalibrations,
                },
            }
        finally:
            loaded.db.close()


def add_arguments(parser: argparse.ArgumentParser) -> None:
    count_flag(
        parser, "--passes", 2, 4, "passes through the calibrated executor"
    )


def run(config: ExperimentConfig, args: argparse.Namespace) -> dict:
    return run_calibration_bench(config, passes=args.passes)


def summary(report: dict) -> list[str]:
    lines = []
    for entry in report["pass_reports"]:
        error = entry["abs_error"]
        lines.append(
            f"pass {entry['pass']}: |est-actual| "
            f"p50={error['p50']:.4f} p90={error['p90']:.4f} "
            f"max={error['max']:.4f} "
            f"(overlay hits {entry['overlay_hits']}/"
            f"{entry['overlay_lookups']}, "
            f"recalibrations {entry['recalibrations']})"
        )
    lines.append(
        "error quantiles strictly shrunk: "
        f"{report['first_vs_last']['strictly_shrunk']}; rows identical "
        f"across passes: {report['rows_identical_across_passes']}, "
        f"vs uncalibrated: {report['rows_identical_to_uncalibrated']}"
    )
    return lines
