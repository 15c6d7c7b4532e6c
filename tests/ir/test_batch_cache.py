"""The interned-node mask cache and plan-once operand ordering.

``BatchLowering`` lowers each distinct (pointer-identical) node once
per batch; ``_planned_operands`` sorts a connective's operands once per
(node, statistics version).  Both must stay byte-identical to the naive
clause-by-clause reference (``evaluate_batch_naive``).
"""

import numpy as np
import pytest

from repro.core.columns import ColumnBatch
from repro.core.predicates import (
    And,
    Comparison,
    InSet,
    Interval,
    Not,
    Op,
    Or,
    equals,
)
from repro.exceptions import PredicateError
from repro.ir import intern
from repro.ir import batch as batch_lowering
from repro.experiments.bench_disjunction import evaluate_batch_naive
from repro.ir.batch import BatchLowering, evaluate_batch, reset_plan_memo

ROWS = [{"x": float(i), "y": float(i % 7), "city": c}
        for i, c in enumerate("paris rome berlin oslo".split() * 8)]


@pytest.fixture(autouse=True)
def fresh_plan_memo():
    reset_plan_memo()
    yield
    reset_plan_memo()


def scalar_masks(pred, rows):
    return np.array([bool(pred.evaluate(row)) for row in rows])


class TestMaskCache:
    def test_shared_atom_lowered_once(self):
        # Structurally equal atoms across disjuncts intern to one node:
        # Or, 2 Ands, and 3 distinct atoms = 6 computed; the fourth
        # atom occurrence (the shared `x >= 8`) is a cache hit.
        pred = intern(Or((
            And((Comparison("x", Op.GE, 8.0), Comparison("y", Op.LT, 3.0))),
            And((Comparison("x", Op.GE, 8.0), Comparison("y", Op.GE, 5.0))),
        )))
        context = BatchLowering(ColumnBatch(ROWS))
        mask = context.mask(pred)
        assert context.stats.computed == 6
        assert context.stats.shared == 1
        assert context.stats.share_ratio == pytest.approx(1 / 7)
        assert np.array_equal(mask, scalar_masks(pred, ROWS))

    def test_cache_returns_the_same_array(self):
        atom = Comparison("x", Op.LT, 10.0)
        context = BatchLowering(ColumnBatch(ROWS))
        assert context.mask(atom) is context.mask(atom)

    def test_connective_results_are_private_copies(self):
        # Connectives combine cached masks in place on a *copy*; the
        # cached operand mask must come back unclobbered.
        atom = Comparison("x", Op.LT, 10.0)
        other = Comparison("y", Op.LT, 3.0)
        pred = And((atom, other))
        context = BatchLowering(ColumnBatch(ROWS))
        before = context.mask(atom).copy()
        context.mask(pred)
        assert np.array_equal(context.mask(atom), before)

    def test_matches_naive_byte_for_byte(self):
        pred = intern(Or((
            And((Comparison("x", Op.GE, 4.0), Comparison("y", Op.LT, 5.0))),
            And((Comparison("x", Op.GE, 4.0), equals("city", "rome"))),
            Not(InSet("city", ("paris", "oslo"))),
            Interval("x", 10.0, 20.0, True, False),
        )))
        batch = ColumnBatch(ROWS)
        cached = evaluate_batch(pred, batch)
        naive = evaluate_batch_naive(pred, batch)
        assert cached.dtype == naive.dtype == np.bool_
        assert np.array_equal(cached, naive)
        assert np.array_equal(cached, scalar_masks(pred, ROWS))


def make_estimator(version=None):
    calls = []

    def estimator(pred):
        calls.append(pred)
        return (hash(repr(pred)) % 89) / 89.0

    if version is not None:
        estimator.stats_version = version
    estimator.calls = calls
    return estimator


PLANNED = intern(Or((
    And((Comparison("x", Op.GE, 8.0), Comparison("y", Op.LT, 3.0))),
    And((Comparison("x", Op.LT, 4.0), Comparison("y", Op.GE, 5.0))),
)))


class TestPlanMemo:
    def test_order_planned_once_per_stats_version(self):
        estimator = make_estimator(version=1)
        first = BatchLowering(ColumnBatch(ROWS[:16]), estimator)
        first.mask(PLANNED)
        # One OR and two ANDs: three connectives planned, none reused.
        assert first.stats.plan_misses == 3
        assert first.stats.plan_hits == 0

        second = BatchLowering(ColumnBatch(ROWS[16:]), estimator)
        second.mask(PLANNED)
        assert second.stats.plan_misses == 0
        assert second.stats.plan_hits == 3

    def test_same_version_shares_across_estimator_instances(self):
        BatchLowering(ColumnBatch(ROWS), make_estimator(version=7)).mask(
            PLANNED
        )
        twin = make_estimator(version=7)
        context = BatchLowering(ColumnBatch(ROWS), twin)
        context.mask(PLANNED)
        assert context.stats.plan_hits == 3
        # The memo answered every ordering: the twin never ran.
        assert twin.calls == []

    def test_new_stats_version_replans(self):
        BatchLowering(ColumnBatch(ROWS), make_estimator(version=1)).mask(
            PLANNED
        )
        bumped = make_estimator(version=2)
        context = BatchLowering(ColumnBatch(ROWS), bumped)
        context.mask(PLANNED)
        assert context.stats.plan_misses == 3
        assert bumped.calls != []

    def test_versionless_estimator_keys_by_identity(self):
        plain = make_estimator()
        BatchLowering(ColumnBatch(ROWS), plain).mask(PLANNED)
        context = BatchLowering(ColumnBatch(ROWS), plain)
        context.mask(PLANNED)
        assert context.stats.plan_hits == 3
        other = make_estimator()
        replanned = BatchLowering(ColumnBatch(ROWS), other)
        replanned.mask(PLANNED)
        assert replanned.stats.plan_misses == 3

    def test_reset_plan_memo_forces_replanning(self):
        estimator = make_estimator(version=1)
        BatchLowering(ColumnBatch(ROWS), estimator).mask(PLANNED)
        reset_plan_memo()
        context = BatchLowering(ColumnBatch(ROWS), estimator)
        context.mask(PLANNED)
        assert context.stats.plan_misses == 3

    def test_memoized_order_matches_fresh_sort(self):
        estimator = make_estimator(version=3)
        batch = ColumnBatch(ROWS)
        baseline = evaluate_batch_naive(PLANNED, batch, estimator)
        for _ in range(3):
            assert np.array_equal(
                evaluate_batch(PLANNED, batch, estimator), baseline
            )


class TestInSetVectorization:
    def test_numeric_fast_path_matches_scalar(self):
        pred = InSet("x", (1, 4.0, 30))
        batch = ColumnBatch(ROWS)
        assert np.array_equal(
            evaluate_batch(pred, batch), scalar_masks(pred, ROWS)
        )

    def test_big_ints_fall_back_to_exact_membership(self):
        # 2**53 and 2**53 + 1 collide in float64; the fast path must
        # refuse and the object path must keep them distinct.
        rows = [{"n": 2**53}, {"n": 2**53 + 1}, {"n": 3}]
        pred = InSet("n", (2**53 + 1,))
        mask = evaluate_batch(pred, ColumnBatch(rows))
        assert mask.tolist() == [False, True, False]
        assert np.array_equal(mask, scalar_masks(pred, rows))

    def test_mixed_values_on_object_column(self):
        rows = [{"c": "paris"}, {"c": 3}, {"c": None}, {"c": "rome"}]
        pred = InSet("c", ("paris", 3))
        mask = evaluate_batch(pred, ColumnBatch(rows))
        assert mask.tolist() == [True, True, False, False]
        assert np.array_equal(mask, scalar_masks(pred, rows))

    def test_none_cells_never_match(self):
        rows = [{"n": None}, {"n": 5}]
        pred = InSet("n", (5,))
        mask = evaluate_batch(pred, ColumnBatch(rows))
        assert mask.tolist() == [False, True]


class TestIntervalSingleFetch:
    def test_two_sided_interval_resolves_the_column_once(self, monkeypatch):
        calls = []
        original = batch_lowering._ordered_column

        def counting(batch, column, value):
            calls.append((column, value))
            return original(batch, column, value)

        monkeypatch.setattr(batch_lowering, "_ordered_column", counting)
        pred = Interval("x", 4.0, 20.0, True, False)
        batch = ColumnBatch(ROWS)
        mask = evaluate_batch(pred, batch)
        assert len(calls) == 1
        assert np.array_equal(mask, scalar_masks(pred, ROWS))

    def test_half_open_intervals_match_scalar(self):
        batch = ColumnBatch(ROWS)
        for pred in (
            Interval("x", None, 9.0, False, True),
            Interval("x", 9.0, None, False, False),
            Interval("city", "b", "p", True, False),
        ):
            assert np.array_equal(
                evaluate_batch(pred, batch), scalar_masks(pred, ROWS)
            )

    def test_interval_on_wrong_kind_raises_like_scalar(self):
        pred = Interval("city", 1.0, 5.0, True, True)
        with pytest.raises(PredicateError):
            evaluate_batch(pred, ColumnBatch(ROWS))
        with pytest.raises(PredicateError):
            pred.evaluate(ROWS[0])
