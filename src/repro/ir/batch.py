"""Vectorized (columnar) evaluation as a lowering from the predicate IR.

This module holds the batch kernels behind
:meth:`repro.core.predicates.Predicate.evaluate_batch`: a boolean mask
per batch row, bit-identical to a loop of scalar ``evaluate`` calls.
Structuring them as a :class:`~repro.ir.visitor.PredicateVisitor` makes
batch evaluation one more *lowering* of the same IR that the SQL
compiler lowers to text — one dispatch mechanism, two targets.

Disjunction-aware strategy
--------------------------

Machine-derived envelopes are wide ORs-of-ANDs built from a small atom
vocabulary, so the same atom (often the same whole conjunct) recurs in
many disjuncts.  Because published predicates are interned
(:mod:`repro.ir.interning`), that repetition is visible as *pointer
identity*, and :class:`BatchLowering` is an **evaluation context** that
exploits it: a per-batch mask cache keyed on ``id(node)`` lowers each
distinct subtree once, at full batch width, and connectives combine the
cached masks with ``&``/``|``/``~``.  Full-width masks are what makes
them shareable — a short-circuit-compacted mask is relative to a
sub-batch and could not be reused by the next disjunct containing the
same atom.  Compaction (``ColumnBatch.take``) is reserved for operands
that *override* ``evaluate_batch`` (model/residual predicates,
instrumentation wrappers): those are expensive and identity-unique, so
restricting them to still-undecided rows is the win, exactly as before.

Operand order is planned **once** per ``(connective node,
estimator-stats version)`` and memoized in a bounded module-level table:
``sorted(operands, key=estimator)`` used to run on every visit — every
batch, and again on every recursive sub-batch evaluation — for an
ordering that only changes when the statistics do.

Raise parity with the scalar algebra is preserved.  Evaluating a later
operand at full width can touch rows the scalar loop would have
short-circuited past (and raise on a ``None`` it never sees); when a
cached full-width evaluation raises :class:`~repro.exceptions.\
PredicateError`, the connective falls back to evaluating that operand on
the still-undecided rows only — precisely the rows the scalar loop
evaluates — so the call raises if and only if the scalar loop raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.predicates import (
    And,
    Comparison,
    FalsePredicate,
    InSet,
    Interval,
    Not,
    Op,
    Or,
    Predicate,
    SelectivityEstimator,
    TruePredicate,
    Value,
)
from repro.exceptions import PredicateError
from repro.ir.visitor import PredicateVisitor

if TYPE_CHECKING:
    from repro.core.columns import ColumnBatch


#: Equality against a constant of magnitude below 2**53 may use the
#: float64 column view: every int in that range casts exactly, and any
#: int outside it casts to a float of magnitude >= 2**53, which can
#: never equal a strictly smaller constant.  At or above the bound the
#: cast rounds neighbouring ints together (float64(2**53 + 1) ==
#: float64(2**53)) and equality must fall back to the exact object view.
_EXACT_FLOAT_BOUND = 2.0**53


@dataclass
class MaskCacheStats:
    """Per-evaluation cache traffic (also mirrored as obs counters).

    One stats type serves both the single-predicate lowering
    (``ir.batch.mask.*`` counters) and the segment-set evaluator
    (``segments.mask.*``): ``computed`` counts distinct node
    evaluations, ``shared`` counts evaluations answered from the cache,
    ``constants_skipped`` counts TRUE/FALSE segment envelopes answered
    without touching the cache at all.  ``plan_hits``/``plan_misses``
    track the plan-once operand-ordering memo.
    """

    computed: int = 0
    shared: int = 0
    constants_skipped: int = 0
    plan_hits: int = 0
    plan_misses: int = 0

    @property
    def share_ratio(self) -> float:
        """Fraction of node evaluations answered from the cache."""
        total = self.computed + self.shared
        return self.shared / total if total else 0.0


def _equality_column(
    batch: "ColumnBatch", column: str, value: Value
) -> np.ndarray:
    """The column view whose ``==`` matches scalar equality exactly.

    The object view is always exact (Python's ``==`` between ints and
    floats compares true values, and ``None == v`` is ``False`` just as
    in scalar ``evaluate``); the float64 view is used only when it is
    provably equivalent and therefore free to share with the ordered
    kernels' cache.
    """
    if (
        not isinstance(value, str)
        and abs(value) < _EXACT_FLOAT_BOUND
        and batch.is_numeric(column)
    ):
        return batch.numeric(column)
    return batch.column(column)


def _ordered_column(
    batch: "ColumnBatch", column: str, value: Value
) -> np.ndarray:
    """The column view to use for an ordered comparison against ``value``.

    Mirrors the scalar comparability rule: strings order only against
    string columns, numbers only against numeric columns; anything else is
    schema drift and raises :class:`~repro.exceptions.PredicateError`.
    """
    kind = batch.kind(column)
    if isinstance(value, str):
        if kind != "string":
            raise PredicateError(
                f"cannot order column {column!r} values against {value!r}"
            )
        return batch.column(column)
    if kind != "numeric":
        raise PredicateError(
            f"cannot order column {column!r} values against {value!r}"
        )
    return batch.numeric(column)


# ---------------------------------------------------------------------------
# Atom kernels (shared by the caching context and the disjunction bench's
# clause-by-clause oracle)
# ---------------------------------------------------------------------------


def _exact_bound_view(
    batch: "ColumnBatch", column: str, actual: np.ndarray, bound: Value
) -> np.ndarray:
    """The view to order against ``bound`` without float64 rounding.

    Ordering through the float64 view is exact whenever ``|bound| <
    2**53``: a cell inside the exact range casts losslessly, and a cell
    outside it rounds while staying on its side of the (strictly
    smaller) bound.  At or past the bound, rounding can cross it —
    ``float64(-(2**53 + 1)) == -2.0**53`` turns a true ``< -(2**53)``
    into False — so those comparisons fall back to the object view,
    where NumPy applies Python's exact int/float ordering elementwise.
    The kind check in :func:`_ordered_column` already ran, so every
    cell here is a real number and the exact compare cannot raise.
    """
    if not isinstance(bound, str) and abs(bound) >= _EXACT_FLOAT_BOUND:
        return batch.column(column)
    return actual


def _comparison_mask(pred: Comparison, batch: "ColumnBatch") -> np.ndarray:
    if len(batch) == 0:
        return np.zeros(0, dtype=bool)
    if pred.op is Op.EQ or pred.op is Op.NE:
        actual = _equality_column(batch, pred.column, pred.value)
        mask = actual == pred.value
        return mask if pred.op is Op.EQ else ~mask
    actual = _ordered_column(batch, pred.column, pred.value)
    actual = _exact_bound_view(batch, pred.column, actual, pred.value)
    if pred.op is Op.LT:
        return actual < pred.value
    if pred.op is Op.LE:
        return actual <= pred.value
    if pred.op is Op.GT:
        return actual > pred.value
    return actual >= pred.value


def _in_set_mask(pred: InSet, batch: "ColumnBatch") -> np.ndarray:
    """Membership mask in one vectorized pass instead of k comparisons.

    Numeric fast path: when every IN value is a float64-exact number and
    the column is numeric, one ``np.isin`` over the float view decides
    membership (a value outside the exact range, or a string, can still
    match only via the object view).  Otherwise a single hashed-set pass
    over the object view replaces the old per-value ``==`` scans —
    ``x in set`` agrees with the scalar tuple containment for every
    value the algebra admits (hash/eq-consistent ints, floats, strings,
    bools and None cells).
    """
    n = len(batch)
    if n == 0:
        return np.zeros(0, dtype=bool)
    values = pred.values
    if batch.is_numeric(pred.column) and all(
        not isinstance(value, str) and abs(value) < _EXACT_FLOAT_BOUND
        for value in values
    ):
        targets = np.fromiter(
            (float(value) for value in values),
            dtype=np.float64,
            count=len(values),
        )
        return np.isin(batch.numeric(pred.column), targets)
    lookup = frozenset(values)
    return np.fromiter(
        (cell in lookup for cell in batch.column(pred.column)),
        dtype=bool,
        count=n,
    )


def _interval_mask(pred: Interval, batch: "ColumnBatch") -> np.ndarray:
    n = len(batch)
    if n == 0:
        return np.zeros(0, dtype=bool)
    low, high = pred.low, pred.high
    if (
        low is not None
        and high is not None
        and isinstance(low, str) == isinstance(high, str)
    ):
        # Same-kind bounds resolve the ordered view once; the raise
        # behaviour of the second fetch would be identical.
        actual = _ordered_column(batch, pred.column, low)
        lo_view = _exact_bound_view(batch, pred.column, actual, low)
        hi_view = _exact_bound_view(batch, pred.column, actual, high)
        mask = (lo_view >= low) if pred.low_closed else (lo_view > low)
        if pred.high_closed:
            mask &= hi_view <= high
        else:
            mask &= hi_view < high
        return mask
    mask = np.ones(n, dtype=bool)
    if low is not None:
        actual = _ordered_column(batch, pred.column, low)
        actual = _exact_bound_view(batch, pred.column, actual, low)
        if pred.low_closed:
            mask &= actual >= low
        else:
            mask &= actual > low
    if high is not None:
        actual = _ordered_column(batch, pred.column, high)
        actual = _exact_bound_view(batch, pred.column, actual, high)
        if pred.high_closed:
            mask &= actual <= high
        else:
            mask &= actual < high
    return mask


# ---------------------------------------------------------------------------
# Plan-once operand ordering
# ---------------------------------------------------------------------------

#: ``(id(connective), stats token) -> (connective, estimator anchor,
#: ordered operands)``.  The strong reference to the connective keeps its
#: ``id`` from being reused while the entry lives; estimators without a
#: ``stats_version`` are keyed (and anchored) by identity for the same
#: reason.  Estimators *with* a ``stats_version`` share plans across
#: instances: the version names the statistics snapshot, which is the
#: only input the ordering depends on.
_PLAN_MEMO: dict[
    tuple[int, object],
    tuple[Predicate, object, tuple[Predicate, ...]],
] = {}

#: Leak backstop, mirroring the intern table: planning is cheap enough
#: that wholesale clearing beats bookkeeping an LRU.
_PLAN_MEMO_LIMIT = 4096


def reset_plan_memo() -> None:
    """Drop all memoized operand orderings (tests and leak backstop)."""
    _PLAN_MEMO.clear()


def _planned_operands(
    pred: And | Or,
    estimator: SelectivityEstimator | None,
    reverse: bool,
    stats: MaskCacheStats,
) -> tuple[Predicate, ...]:
    """Estimator-ordered operands, computed once per (node, stats version)."""
    if estimator is None:
        return pred.operands
    token = getattr(estimator, "stats_version", None)
    anchor: object = None
    if token is None:
        token = id(estimator)
        anchor = estimator
    key = (id(pred), token)
    entry = _PLAN_MEMO.get(key)
    if entry is not None and entry[0] is pred:
        stats.plan_hits += 1
        return entry[2]
    ordered = tuple(sorted(pred.operands, key=estimator, reverse=reverse))
    if len(_PLAN_MEMO) >= _PLAN_MEMO_LIMIT:
        _PLAN_MEMO.clear()
    _PLAN_MEMO[key] = (pred, anchor, ordered)
    stats.plan_misses += 1
    return ordered


def _has_override(operand: Predicate) -> bool:
    """Whether ``operand`` carries a custom ``evaluate_batch``.

    Subclasses outside the closed IR algebra (model/residual predicates,
    instrumentation wrappers in the tests) may override
    ``evaluate_batch``; the lowering must honor those overrides, and it
    treats them as expensive non-cacheable operands — evaluated on
    compacted still-undecided rows instead of at full width.
    """
    return type(operand).evaluate_batch is not Predicate.evaluate_batch


# ---------------------------------------------------------------------------
# The caching evaluation context
# ---------------------------------------------------------------------------


class BatchLowering(PredicateVisitor):
    """Per-batch evaluation context with an interned-node mask cache.

    One context serves one ``ColumnBatch``: :meth:`mask` memoizes the
    full-width truth vector of every node it lowers by ``id(node)``, so
    a subtree shared (via interning) across disjuncts — or across the
    many predicates of a segment catalog — is evaluated once.  ``id``
    keys are stable because the cache holds no node alive longer than
    the caller does and a fresh batch gets a fresh context.

    Cached arrays are shared: callers combine them with allocating NumPy
    ops (or copy first) and never mutate them in place.
    """

    __slots__ = ("batch", "estimator", "stats", "_cache")

    def __init__(
        self,
        batch: "ColumnBatch",
        estimator: SelectivityEstimator | None = None,
        stats: MaskCacheStats | None = None,
    ) -> None:
        self.batch = batch
        self.estimator = estimator
        self.stats = stats if stats is not None else MaskCacheStats()
        self._cache: dict[int, np.ndarray] = {}

    # -- cache entry point -------------------------------------------------

    def mask(self, pred: Predicate) -> np.ndarray:
        """Full-batch truth mask of one node, memoized by identity."""
        key = id(pred)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.shared += 1
            return cached
        result = self.visit(pred)
        self.stats.computed += 1
        self._cache[key] = result
        return result

    # -- atoms and constants ----------------------------------------------

    def visit_true(self, pred: TruePredicate) -> np.ndarray:
        return np.ones(len(self.batch), dtype=bool)

    def visit_false(self, pred: FalsePredicate) -> np.ndarray:
        return np.zeros(len(self.batch), dtype=bool)

    def visit_comparison(self, pred: Comparison) -> np.ndarray:
        return _comparison_mask(pred, self.batch)

    def visit_in_set(self, pred: InSet) -> np.ndarray:
        return _in_set_mask(pred, self.batch)

    def visit_interval(self, pred: Interval) -> np.ndarray:
        return _interval_mask(pred, self.batch)

    # -- connectives -------------------------------------------------------

    def _restrict_and(
        self, operand: Predicate, result: np.ndarray | None
    ) -> np.ndarray:
        """Evaluate ``operand`` on still-alive rows only (compaction).

        ``result`` is the private running conjunction; rows already
        False cannot be resurrected, so the operand — an override, or a
        cacheable node whose full-width evaluation raised — runs on the
        compacted alive rows, exactly the rows a scalar short-circuit
        loop would evaluate it on.
        """
        if result is None:
            return np.array(
                operand.evaluate_batch(self.batch, self.estimator),
                dtype=bool,
            )
        alive = np.flatnonzero(result)
        if alive.size:
            sub = operand.evaluate_batch(
                self.batch.take(alive), self.estimator
            )
            result[alive[~np.asarray(sub, dtype=bool)]] = False
        return result

    def _restrict_or(
        self, operand: Predicate, result: np.ndarray | None
    ) -> np.ndarray:
        """Evaluate ``operand`` on still-pending rows only (compaction)."""
        if result is None:
            return np.array(
                operand.evaluate_batch(self.batch, self.estimator),
                dtype=bool,
            )
        pending = np.flatnonzero(~result)
        if pending.size:
            sub = operand.evaluate_batch(
                self.batch.take(pending), self.estimator
            )
            result[pending[np.asarray(sub, dtype=bool)]] = True
        return result

    def visit_and(self, pred: And) -> np.ndarray:
        result: np.ndarray | None = None
        for operand in _planned_operands(
            pred, self.estimator, False, self.stats
        ):
            if _has_override(operand):
                result = self._restrict_and(operand, result)
                continue
            try:
                mask = self.mask(operand)
            except PredicateError:
                if result is None:
                    # The first operand sees every row in the scalar
                    # loop too: the raise is genuine.
                    raise
                result = self._restrict_and(operand, result)
                continue
            if result is None:
                result = np.array(mask)
            else:
                result &= mask
        if result is None:
            return np.ones(len(self.batch), dtype=bool)
        return result

    def visit_or(self, pred: Or) -> np.ndarray:
        result: np.ndarray | None = None
        for operand in _planned_operands(
            pred, self.estimator, True, self.stats
        ):
            if _has_override(operand):
                result = self._restrict_or(operand, result)
                continue
            try:
                mask = self.mask(operand)
            except PredicateError:
                if result is None:
                    raise
                result = self._restrict_or(operand, result)
                continue
            if result is None:
                result = np.array(mask)
            else:
                result |= mask
        if result is None:
            return np.zeros(len(self.batch), dtype=bool)
        return result

    def visit_not(self, pred: Not) -> np.ndarray:
        operand = pred.operand
        if _has_override(operand):
            return ~np.asarray(
                operand.evaluate_batch(self.batch, self.estimator),
                dtype=bool,
            )
        return ~self.mask(operand)


def evaluate_batch(
    pred: Predicate,
    batch: "ColumnBatch",
    estimator: SelectivityEstimator | None = None,
) -> np.ndarray:
    """Boolean mask of ``pred`` over ``batch`` (the IR batch lowering).

    Builds a fresh :class:`BatchLowering` context per call, so mask
    sharing spans one predicate tree; callers that evaluate many
    predicates against the same batch (the segment evaluator) hold one
    context across all of them instead.
    """
    context = BatchLowering(batch, estimator)
    result = context.mask(pred)
    if obs.enabled():
        stats = context.stats
        if stats.computed:
            obs.add_counter("ir.batch.mask.computed", stats.computed)
        if stats.shared:
            obs.add_counter("ir.batch.mask.shared", stats.shared)
        if stats.plan_hits:
            obs.add_counter("ir.batch.plan.hit", stats.plan_hits)
        if stats.plan_misses:
            obs.add_counter("ir.batch.plan.miss", stats.plan_misses)
    return result
