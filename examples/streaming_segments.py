"""Streaming segment matching: which segments does each event belong to?

The inverse of the paper's workload: instead of one mining predicate
filtering a big table, a *stream* of row batches is matched against a
whole catalog of named segment definitions — some hand-written in
predicate IR, some derived as upper envelopes of a trained model (the
Section 3 machinery powering a serving feature).  The catalog interns
every predicate, so the evaluator computes each distinct subtree's mask
once per batch and shares it across all segments.

Run:  python examples/streaming_segments.py
"""

from __future__ import annotations

import numpy as np

from repro import Comparison, Database, DecisionTreeLearner, Op, load_table
from repro.core.predicates import And, Interval, Or
from repro.segments import SegmentCatalog
from repro.serve import MatchRequest, ModelRegistry, ServeEngine

FEATURES = ("age", "income", "visits")


def make_events(n: int, seed: int) -> list[dict]:
    """Synthetic customer events with a learnable churn label."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        age = int(rng.integers(18, 80))
        income = float(rng.uniform(10_000, 120_000))
        visits = int(rng.integers(0, 30))
        churn = (
            "yes" if visits < 5 and income < 40_000 or age > 70 else "no"
        )
        if rng.random() < 0.05:
            churn = "yes" if churn == "no" else "no"
        rows.append(
            {"age": age, "income": income, "visits": visits, "churn": churn}
        )
    return rows


def main() -> None:
    training = make_events(2_000, seed=3)

    # Hand-written segments, assembled from a shared atom vocabulary —
    # the catalog interns them, so overlapping subtrees are evaluated
    # once per batch no matter how many segments reuse them.
    young = Comparison("age", Op.LT, 30)
    affluent = Comparison("income", Op.GE, 75_000.0)
    frequent = Comparison("visits", Op.GE, 10)
    mid_income = Interval("income", 40_000.0, 75_000.0, True, False)

    catalog = SegmentCatalog()
    catalog.register("young-affluent", And((young, affluent)))
    catalog.register("engaged", Or((frequent, And((young, mid_income)))))
    catalog.register("upsell-pool", And((affluent, frequent)))

    # Model-backed segments: one upper envelope per predicted class.
    tree = DecisionTreeLearner(
        FEATURES, "churn", max_depth=5, name="churn_tree"
    ).fit(training)
    for definition in catalog.register_model(tree):
        print(
            f"registered {definition.name!r} from model "
            f"{definition.model_name!r} ({definition.n_atoms} atoms, "
            f"exact={definition.exact})"
        )
    print(
        f"catalog: {len(catalog)} segments, version {catalog.version}"
    )

    # Matching runs through the serving engine: same admission control,
    # collapsing, and batching the prediction-join traffic uses.
    db = Database()
    load_table(db, "events", [dict(row) for row in training[:1]])
    with ServeEngine(
        db, ModelRegistry(), workers=2, segment_catalog=catalog
    ) as engine:
        total = np.zeros(len(catalog.names()), dtype=int)
        stream = make_events(4_096, seed=11)
        for start in range(0, len(stream), 512):
            batch = [
                {k: row[k] for k in FEATURES}
                for row in stream[start : start + 512]
            ]
            result = engine.execute(MatchRequest(batch))
            for i, name in enumerate(result.segment_names):
                total[i] += sum(
                    1 for row in result.memberships if name in row
                )
            stats = result.mask_stats
            print(
                f"batch {start // 512}: {len(batch)} rows, "
                f"{result.rows_matched} matched >=1 segment "
                f"(masks: {stats.computed} computed, "
                f"{stats.shared} shared)"
            )
        print()
        print("segment totals over the stream:")
        for name, count in zip(catalog.names(), total):
            print(f"  {name:<18} {int(count):>5} rows")
    db.close()


if __name__ == "__main__":
    main()
