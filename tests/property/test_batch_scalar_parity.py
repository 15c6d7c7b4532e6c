"""Property suite: ``evaluate_batch`` ≡ row-wise ``evaluate``, raises included.

The scalar ``Predicate.evaluate`` is the semantics; the batch lowering
is only allowed to be faster.  That contract has two halves this suite
pins down over adversarial payloads (None, bools, integers beyond the
float64-exact bound 2**53, mixed-type columns):

* **value parity** — when every row evaluates cleanly, the batch mask
  equals the scalar loop element-wise, and
* **raise parity** — when the scalar loop raises
  :class:`~repro.exceptions.PredicateError` for some row (a None in an
  ordered comparison, a string compared to a number), the batch call
  raises too, instead of inventing an answer via NaN casts.

Raise parity is stated *without* an estimator: reordering connectives
by selectivity legitimately changes which operand sees a poisoned row
first (scalar short-circuit would do the same under that order).  With
an estimator, value parity is asserted whenever no atom raises on any
row, where ordering provably cannot matter.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columns import ColumnBatch
from repro.core.predicates import (
    Comparison,
    InSet,
    Interval,
    Not,
    Op,
    Or,
    Predicate,
    conjunction,
    disjunction,
)
from repro.exceptions import PredicateError
from repro.ir import intern
from repro.experiments.bench_disjunction import evaluate_batch_naive
from repro.ir.batch import BatchLowering

COLUMNS = ("a", "b", "c")

#: Constants spanning the float64-exact integer bound: equality at or
#: above 2**53 must not be answered through a lossy float cast.
BOUNDARY = 2**53
INT_CONSTANTS = (
    0,
    1,
    7,
    BOUNDARY - 1,
    BOUNDARY,
    BOUNDARY + 1,
    -BOUNDARY,
    -(BOUNDARY + 1),
)


def cell_values():
    """One row cell: the full zoo the scalar algebra accepts."""
    return st.one_of(
        st.none(),
        st.booleans(),
        st.sampled_from(INT_CONSTANTS),
        st.integers(-10, 10),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.sampled_from(("north", "south", "x")),
    )


@st.composite
def rows(draw):
    return {c: draw(cell_values()) for c in COLUMNS}


@st.composite
def atoms(draw) -> Predicate:
    column = draw(st.sampled_from(COLUMNS))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        op = draw(st.sampled_from(list(Op)))
        value = draw(
            st.one_of(
                st.sampled_from(INT_CONSTANTS),
                st.integers(-10, 10),
                st.floats(-100, 100, allow_nan=False),
                st.sampled_from(("north", "south")),
            )
        )
        return Comparison(column, op, value)
    if kind == 1:
        values = draw(
            st.lists(
                st.one_of(
                    st.sampled_from(INT_CONSTANTS),
                    st.integers(-10, 10),
                    st.sampled_from(("north", "x")),
                ),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        return InSet(column, tuple(values))
    low = draw(st.integers(-5, 8))
    high = draw(st.integers(low, 12))
    return Interval(
        column,
        low,
        high,
        low_closed=draw(st.booleans()),
        high_closed=draw(st.booleans()),
    )


def predicates():
    return st.recursive(
        atoms(),
        lambda children: st.one_of(
            st.builds(
                lambda xs: conjunction(xs),
                st.lists(children, min_size=2, max_size=3),
            ),
            st.builds(
                lambda xs: disjunction(xs),
                st.lists(children, min_size=2, max_size=3),
            ),
            st.builds(Not, children),
        ),
        max_leaves=6,
    )


def scalar_oracle(pred: Predicate, sample: list[dict]):
    """``(values, None)`` on clean evaluation, ``(None, error)`` on raise."""
    try:
        return [pred.evaluate(row) for row in sample], None
    except PredicateError as error:
        return None, error


def _all_atoms(pred: Predicate):
    children = pred.children()
    if not children:
        yield pred
        return
    for child in children:
        yield from _all_atoms(child)


def _every_atom_clean(pred: Predicate, sample: list[dict]) -> bool:
    try:
        for atom in _all_atoms(pred):
            for row in sample:
                atom.evaluate(row)
    except PredicateError:
        return False
    return True


def _fake_estimator(pred: Predicate) -> float:
    return (hash(pred) % 89) / 89.0


class TestBatchScalarParity:
    @given(predicates(), st.lists(rows(), min_size=0, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_values_and_raises_match_scalar(self, pred, sample):
        expected, error = scalar_oracle(pred, sample)
        batch = ColumnBatch(sample)
        if error is not None:
            with pytest.raises(PredicateError):
                pred.evaluate_batch(batch)
        else:
            assert list(pred.evaluate_batch(batch)) == expected

    @given(predicates(), st.lists(rows(), min_size=0, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_estimator_reordering_matches_on_clean_rows(
        self, pred, sample
    ):
        if not _every_atom_clean(pred, sample):
            # Reordering may legally change which operand raises first;
            # raise parity is only stated for the unordered contract.
            return
        expected = [pred.evaluate(row) for row in sample]
        mask = pred.evaluate_batch(
            ColumnBatch(sample), estimator=_fake_estimator
        )
        assert list(mask) == expected

    @given(st.lists(rows(), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_big_integer_equality_is_exact(self, sample):
        # The regression the float64 fast path must never reintroduce:
        # EQ/NE/IN against constants at or beyond 2**53 decided through
        # a lossy float cast.
        for value in (BOUNDARY, BOUNDARY + 1, -(BOUNDARY + 1)):
            for pred in (
                Comparison("a", Op.EQ, value),
                Comparison("a", Op.NE, value),
                InSet("a", (value,)),
            ):
                expected, error = scalar_oracle(pred, sample)
                assert error is None
                got = list(pred.evaluate_batch(ColumnBatch(sample)))
                assert got == expected, (pred, sample)

    def test_regression_eq_at_exact_float_bound(self):
        # 2**53 and 2**53 + 1 collapse to the same float64; equality
        # decided on the float view returned [True, True].
        sample = [{"a": BOUNDARY}, {"a": BOUNDARY + 1}]
        pred = Comparison("a", Op.EQ, BOUNDARY)
        assert list(pred.evaluate_batch(ColumnBatch(sample))) == [
            True,
            False,
        ]
        assert list(
            Comparison("a", Op.NE, BOUNDARY).evaluate_batch(
                ColumnBatch(sample)
            )
        ) == [False, True]
        assert list(
            InSet("a", (BOUNDARY,)).evaluate_batch(ColumnBatch(sample))
        ) == [True, False]

    def test_regression_ordered_comparison_at_exact_float_bound(self):
        # Found by the reordering property: float64 rounds
        # -(2**53 + 1) to -2**53, so `c < -(2**53)` decided on the
        # float view answered False where the scalar algebra says True.
        # Ordered comparisons and interval bounds at or past ±2**53
        # must fall back to exact object-view ordering.
        sample = [
            {"c": -(BOUNDARY + 1)},
            {"c": -BOUNDARY},
            {"c": BOUNDARY},
            {"c": BOUNDARY + 1},
            {"c": 7},
        ]
        preds = [
            Comparison("c", Op.LT, -BOUNDARY),
            Comparison("c", Op.LE, -(BOUNDARY + 1)),
            Comparison("c", Op.GT, BOUNDARY),
            Comparison("c", Op.GE, BOUNDARY + 1),
            Interval("c", -BOUNDARY, BOUNDARY, False, False),
            Interval("c", BOUNDARY + 1, None, True, True),
        ]
        for pred in preds:
            expected, error = scalar_oracle(pred, sample)
            assert error is None
            got = list(pred.evaluate_batch(ColumnBatch(sample)))
            assert got == expected, (pred, got, expected)

    def test_regression_none_ordered_comparison_raises_like_scalar(self):
        # Scalar raises PredicateError on `None < 5`; the batch path
        # NaN-cast the column and returned [True, False] instead.
        sample = [{"a": 1}, {"a": None}]
        pred = Comparison("a", Op.LT, 5)
        with pytest.raises(PredicateError):
            [pred.evaluate(row) for row in sample]
        with pytest.raises(PredicateError):
            pred.evaluate_batch(ColumnBatch(sample))

    def test_regression_none_vs_string_raises_typed_error(self):
        # Found by the property suite: `None >= "north"` leaked a raw
        # TypeError out of the scalar path (``_comparable`` only checked
        # numericness parity, and None vs str looked "comparable"),
        # while the batch path raised PredicateError.  Both must raise
        # the typed error.
        sample = [{"a": None}]
        for op in (Op.LT, Op.LE, Op.GT, Op.GE):
            pred = Comparison("a", op, "north")
            with pytest.raises(PredicateError):
                pred.evaluate(sample[0])
            with pytest.raises(PredicateError):
                pred.evaluate_batch(ColumnBatch(sample))

    def test_none_equality_matches_scalar_without_raising(self):
        # EQ/NE over a None-bearing column is *not* an error in the
        # scalar algebra — None simply compares unequal to numbers.
        sample = [{"a": 1}, {"a": None}]
        for pred in (
            Comparison("a", Op.EQ, 1),
            Comparison("a", Op.NE, 1),
            InSet("a", (1, 2)),
        ):
            expected = [pred.evaluate(row) for row in sample]
            got = list(pred.evaluate_batch(ColumnBatch(sample)))
            assert got == expected


@st.composite
def or_of_ands(draw) -> Predicate:
    """Interned deep ORs of ANDs drawn from a small shared atom pool.

    Sampling disjunct members *with replacement* from a pool of 2–5
    atoms makes duplicate atoms across disjuncts the common case —
    exactly the envelope shape the mask cache exists for — and
    ``intern`` turns that duplication into the pointer identity the
    cache keys on.
    """
    pool = draw(st.lists(atoms(), min_size=2, max_size=5, unique_by=repr))
    disjuncts = []
    for _ in range(draw(st.integers(2, 5))):
        width = draw(st.integers(1, 3))
        members = [draw(st.sampled_from(pool)) for _ in range(width)]
        disjuncts.append(conjunction(members))
    return intern(disjunction(disjuncts))


class TestDisjunctionCompactionParity:
    """OR pending-compaction and the mask cache against the scalar loop."""

    @given(or_of_ands(), st.lists(rows(), min_size=0, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_deep_or_of_ands_matches_scalar(self, pred, sample):
        # Value parity on clean rows, raise-for-raise otherwise — the
        # cached full-width strategy must fall back to pending-row
        # compaction precisely when the scalar short-circuit loop
        # would have dodged the poisoned rows.
        expected, error = scalar_oracle(pred, sample)
        batch = ColumnBatch(sample)
        if error is not None:
            with pytest.raises(PredicateError):
                pred.evaluate_batch(batch)
        else:
            assert list(pred.evaluate_batch(batch)) == expected

    @given(or_of_ands(), st.lists(rows(), min_size=0, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_cached_matches_naive_byte_for_byte(self, pred, sample):
        batch = ColumnBatch(sample)
        try:
            naive = evaluate_batch_naive(pred, batch)
        except PredicateError:
            with pytest.raises(PredicateError):
                pred.evaluate_batch(batch)
            return
        cached = pred.evaluate_batch(batch)
        assert cached.dtype == naive.dtype
        assert np.array_equal(cached, naive)

    def test_duplicate_atom_across_disjuncts_hits_the_cache(self):
        shared = Comparison("a", Op.GE, 3)
        pred = intern(Or((
            conjunction([shared, Comparison("b", Op.LT, 5)]),
            conjunction([shared, Comparison("c", Op.GE, 0)]),
        )))
        sample = [{"a": i, "b": i % 4, "c": i - 5} for i in range(8)]
        context = BatchLowering(ColumnBatch(sample))
        mask = context.mask(pred)
        assert context.stats.shared >= 1
        assert list(mask) == [pred.evaluate(row) for row in sample]

    def test_raising_operand_skipped_when_rows_already_settled(self):
        # Canonical operand order puts `a >= 5` first; it accepts every
        # row, so the scalar loop never orders None against 5.  The
        # full-width lowering of `b < 5` raises — the fallback must
        # notice there are no pending rows and answer without raising.
        pred = Or((Comparison("a", Op.GE, 5), Comparison("b", Op.LT, 5)))
        sample = [{"a": 10, "b": None}, {"a": 7, "b": 1}]
        assert [pred.evaluate(row) for row in sample] == [True, True]
        assert list(pred.evaluate_batch(ColumnBatch(sample))) == [
            True,
            True,
        ]

    def test_raising_operand_mid_disjunct_raises_for_raise(self):
        # One undecided row carries the poison: the scalar loop reaches
        # `b < 5` on it and raises, so the batch fallback must too.
        pred = Or((Comparison("a", Op.GE, 5), Comparison("b", Op.LT, 5)))
        sample = [{"a": 10, "b": None}, {"a": 0, "b": None}]
        with pytest.raises(PredicateError):
            [pred.evaluate(row) for row in sample]
        with pytest.raises(PredicateError):
            pred.evaluate_batch(ColumnBatch(sample))

    def test_empty_pending_skips_expensive_operands_entirely(self):
        calls = []

        class Counting(Comparison):
            def evaluate_batch(self, batch, estimator=None):
                calls.append(len(batch))
                return super().evaluate_batch(batch, estimator)

        # `a >= -1000` sorts first canonically and settles every row;
        # the overriding operand must never run on an empty remainder.
        pred = Or((
            Comparison("a", Op.GE, -1000),
            Counting("b", Op.LT, 5),
        ))
        sample = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        assert list(pred.evaluate_batch(ColumnBatch(sample))) == [
            True,
            True,
        ]
        assert calls == []
