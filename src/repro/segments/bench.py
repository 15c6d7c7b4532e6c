"""Segment-matching benchmark (the ``segment-bench`` CLI artifact).

Measures what the shared-mask cache buys over naive per-segment
evaluation on the workload the segments package exists for: a large
catalog (≥1000 segments by default) matched against a stream of row
batches.  The catalog mixes the two registration paths — model-backed
segments derived as upper envelopes of trained families, and
hand-written segments drawn from a seeded pool of a few hundred shared
atoms (threshold comparisons and intervals over the dataset's feature
columns), composed into shared conjuncts and then ORs of conjuncts.
That pool structure mirrors production segment catalogs, where
campaigns and alerts are assembled from a common vocabulary of
qualifying conditions, so subtree overlap across segments is the norm.

The **naive** baseline evaluates every segment independently through
the standard batch lowering (``evaluate_batch`` per segment per batch);
**shared** runs the same batches through one
:class:`~repro.segments.evaluator.PredicateSetEvaluator`.  Both paths'
row memberships are compared for exact equality on every batch — the
speedup is only reported if the answers are byte-identical.

``run_segment_bench`` returns the JSON-ready payload written to
``BENCH_segment_matching.json`` by ``python -m repro segment-bench``.
"""

from __future__ import annotations

import argparse
import time
from itertools import islice

import numpy as np

from repro import obs
from repro.core.columns import ColumnBatch
from repro.core.predicates import (
    And,
    Comparison,
    FalsePredicate,
    Interval,
    Op,
    Or,
    Predicate,
    TruePredicate,
)
from repro.exceptions import ReproError
from repro.experiments.benches import count_flag, row_batches
from repro.experiments.config import ExperimentConfig, SMOKE_CONFIG
from repro.experiments.harness import (
    dataset_for,
    numeric_feature_columns,
    train_family,
)
from repro.ir.batch import evaluate_batch
from repro.segments.catalog import SegmentCatalog
from repro.segments.evaluator import PredicateSetEvaluator, _memberships
from repro.workload.measurement import (
    FAMILY_DECISION_TREE,
    FAMILY_NAIVE_BAYES,
)

#: Shared vocabulary sizes: distinct atoms, conjuncts built from them.
ATOM_POOL = 200
CONJUNCT_POOL = 400


def build_atom_pool(
    columns: tuple[str, ...],
    rows: list[dict],
    size: int,
    rng: np.random.Generator,
) -> list[Predicate]:
    """``size`` distinct threshold/interval atoms over real quantiles.

    Cut points come from the observed per-column distributions so the
    atoms have non-degenerate selectivities, and every atom is a plain
    IR object — catalog registration interns them, which is what turns
    pool reuse into pointer-identical subtrees across segments.
    """
    per_column = {
        column: np.quantile(
            np.asarray([float(row[column]) for row in rows]),
            np.linspace(0.05, 0.95, 19),
        )
        for column in columns
    }
    atoms: list[Predicate] = []
    while len(atoms) < size:
        column = columns[int(rng.integers(len(columns)))]
        cuts = per_column[column]
        kind = int(rng.integers(3))
        if kind == 0:
            value = float(cuts[int(rng.integers(len(cuts)))])
            atoms.append(Comparison(column, Op.GE, value))
        elif kind == 1:
            value = float(cuts[int(rng.integers(len(cuts)))])
            atoms.append(Comparison(column, Op.LT, value))
        else:
            lo, hi = sorted(
                float(cuts[int(i)])
                for i in rng.integers(len(cuts), size=2)
            )
            if lo == hi:
                continue
            atoms.append(Interval(column, lo, hi, True, False))
    return atoms


def build_catalog(
    config: ExperimentConfig,
    dataset_name: str,
    segments: int,
    rng: np.random.Generator,
) -> tuple[SegmentCatalog, list[dict], dict]:
    """A mixed catalog: model-backed envelopes + pooled hand-written.

    Returns the catalog, the dataset's training rows (the row stream
    source), and build metadata for the payload.
    """
    dataset = dataset_for(config, dataset_name)
    catalog = SegmentCatalog(max_nodes=config.max_nodes, bins=config.nb_bins)

    model_segments = 0
    for family in (FAMILY_DECISION_TREE, FAMILY_NAIVE_BAYES):
        trained = train_family(dataset, family, config)
        for label in sorted(trained.envelopes, key=str):
            catalog.register_envelope(
                f"{trained.model.name}/{label}", trained.envelopes[label]
            )
            model_segments += 1

    columns = numeric_feature_columns(dataset)
    if not columns:
        raise ReproError(
            f"dataset {dataset_name!r} has no numeric feature columns"
        )
    rows = list(dataset.train_rows)
    atoms = build_atom_pool(columns, rows, ATOM_POOL, rng)
    conjuncts: list[Predicate] = []
    for _ in range(CONJUNCT_POOL):
        width = int(rng.integers(2, 4))
        picked = rng.choice(len(atoms), size=width, replace=False)
        conjuncts.append(And(tuple(atoms[int(i)] for i in picked)))
    hand_written = segments - model_segments
    for index in range(hand_written):
        width = int(rng.integers(2, 5))
        picked = rng.choice(len(conjuncts), size=width, replace=False)
        catalog.register(
            f"pool/{index:04d}",
            Or(tuple(conjuncts[int(i)] for i in picked)),
        )
    meta = {
        "dataset": dataset.name,
        "model_segments": model_segments,
        "hand_written_segments": hand_written,
        "atom_pool": ATOM_POOL,
        "conjunct_pool": CONJUNCT_POOL,
        "feature_columns": list(columns),
    }
    return catalog, rows, meta


def _naive_match(
    evaluator: PredicateSetEvaluator, batch: ColumnBatch
) -> tuple[tuple[str, ...], ...]:
    """Per-segment independent evaluation: the no-sharing baseline."""
    n = len(batch)
    masks = []
    for definition in evaluator.definitions:
        predicate = definition.predicate
        if isinstance(predicate, TruePredicate):
            masks.append(np.ones(n, dtype=bool))
        elif isinstance(predicate, FalsePredicate):
            masks.append(np.zeros(n, dtype=bool))
        else:
            masks.append(evaluate_batch(predicate, batch))
    return _memberships(evaluator.names, tuple(masks), n)


def run_segment_bench(
    config: ExperimentConfig | None = None,
    dataset_name: str = "diabetes",
    segments: int = 1000,
    rows: int = 8192,
    batch_size: int = 512,
    seed: int = 7,
) -> dict:
    """The full benchmark: build, naive baseline, shared run, verify."""
    config = config or SMOKE_CONFIG
    rng = np.random.default_rng(seed)
    with obs.span(
        "segments.bench", segments=segments, rows=rows
    ):
        catalog, source_rows, meta = build_catalog(
            config, dataset_name, segments, rng
        )
        evaluator = PredicateSetEvaluator(catalog)
        batches = row_batches(source_rows, rows, batch_size)

        # Warm both paths' column caches off the clock, on a throwaway
        # batch, so neither side pays the first-touch astype cost.
        warmup = next(islice(iter(batches), 1))
        _naive_match(evaluator, warmup)
        evaluator.match(warmup)

        started = time.perf_counter()
        naive_results = [
            _naive_match(evaluator, batch) for batch in batches
        ]
        naive_seconds = time.perf_counter() - started

        started = time.perf_counter()
        shared_results = [evaluator.match(batch) for batch in batches]
        shared_seconds = time.perf_counter() - started

        mismatched = sum(
            1
            for naive, shared in zip(naive_results, shared_results)
            if naive != shared.memberships
        )
        if mismatched:
            raise ReproError(
                f"segment-bench: {mismatched}/{len(batches)} batches "
                "diverge between shared-mask and naive evaluation"
            )

        computed = sum(r.stats.computed for r in shared_results)
        shared_hits = sum(r.stats.shared for r in shared_results)
        structure = evaluator.sharing_stats()
        return {
            "benchmark": "segment_matching",
            **meta,
            "segments": len(catalog),
            "rows": rows,
            "batch_size": batch_size,
            "batches": len(batches),
            "seed": seed,
            "naive": {
                "seconds": round(naive_seconds, 4),
                "rows_per_second": round(rows / naive_seconds, 1),
            },
            "shared": {
                "seconds": round(shared_seconds, 4),
                "rows_per_second": round(rows / shared_seconds, 1),
                "masks_computed": computed,
                "masks_shared": shared_hits,
                "share_ratio": round(
                    shared_hits / (computed + shared_hits), 4
                ),
            },
            "speedup": round(naive_seconds / shared_seconds, 3),
            "structure": structure,
            "memberships_identical": True,
        }


def add_arguments(parser: argparse.ArgumentParser) -> None:
    count_flag(parser, "--segments", 1, 1000, "catalog size")
    count_flag(parser, "--rows", 1, 8192, "rows streamed through matching")


def run(config: ExperimentConfig, args: argparse.Namespace) -> dict:
    return run_segment_bench(config, segments=args.segments, rows=args.rows)


def summary(report: dict) -> list[str]:
    naive, shared = report["naive"], report["shared"]
    return [
        f"catalog: {report['segments']} segments "
        f"({report['model_segments']} model-backed, "
        f"{report['hand_written_segments']} hand-written), "
        f"{report['rows']} rows in {report['batches']} batches",
        f"naive:  {naive['seconds']:.2f}s "
        f"({naive['rows_per_second']:.0f} rows/s)",
        f"shared: {shared['seconds']:.2f}s "
        f"({shared['rows_per_second']:.0f} rows/s, "
        f"{shared['masks_computed']} masks computed, "
        f"{shared['masks_shared']} shared, "
        f"share ratio {shared['share_ratio']:.2f})",
        f"speedup {report['speedup']:.2f}x; memberships identical: "
        f"{report['memberships_identical']}",
    ]
