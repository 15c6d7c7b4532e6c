"""Cross-request coalescing of segment-match calls.

The serving micro-batcher idiom applied to predicate-set evaluation
(both stand on :class:`repro.core.coalesce.Coalescer`): concurrent
``match_segments`` requests against the *same* evaluator snapshot
enqueue their rows, a single evaluator thread drains whatever is
pending, concatenates the rows into one :class:`ColumnBatch`, runs
**one** shared-mask match, and slices each request its own memberships
back.  The win compounds with the evaluator's own sharing: the fixed
per-batch cost (one kernel dispatch per *distinct* interned node) is
paid once for the whole coalesced group instead of once per request.

Correctness: predicate evaluation is row-independent — a row's segment
memberships cannot depend on which other rows share its batch — so
concatenate-match-slice is bit-identical to matching each request alone
(regression-tested in ``tests/segments/test_service_match.py``).

Requests coalesce only when they agree on the *group key*: the catalog
version and the requested segment-name tuple.  Mixing snapshots would
silently answer one request from another's segment set; mixing name
subsets would mislabel slices.  Counters mirror the serving batcher:
``segments.batch.requests``, ``segments.batch.calls``,
``segments.batch.rows``, ``segments.batch.coalesced``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro import obs
from repro.core.coalesce import Coalescer
from repro.core.columns import ColumnBatch, concat_rows
from repro.segments.catalog import SegmentCatalog
from repro.segments.evaluator import PredicateSetEvaluator, SegmentMatches

if TYPE_CHECKING:
    from repro.mining.base import Row

#: Group key: (catalog version, requested names or None for "all").
_GroupKey = tuple[int, "tuple[str, ...] | None"]

#: Evaluator snapshots kept, least recently used dropped first.  The
#: name tuple in the key is client-supplied, so without a bound a client
#: cycling through subsets would pin one snapshot per subset.
_MAX_SNAPSHOTS = 8


class MatchBatcher(Coalescer):
    """Coalesces concurrent segment-match calls per catalog snapshot.

    One evaluator thread serializes all matching.  Evaluator snapshots
    are cached per group key, which carries the catalog version: a
    register/retire between batches is picked up on the next drain, and
    snapshots of older versions age out of the ``_MAX_SNAPSHOTS``
    kept.  Stop via :meth:`stop` (idempotent); stopping fails all
    waiters with :class:`~repro.exceptions.ServiceStoppedError`.
    """

    def __init__(self, catalog: SegmentCatalog) -> None:
        self._catalog = catalog
        self._evaluators: "OrderedDict[_GroupKey, PredicateSetEvaluator]" = (
            OrderedDict()
        )
        super().__init__(
            self._match_group,
            _slice_matches,
            name="segment-batcher",
            counters="segments.batch",
        )

    def match(
        self,
        rows: "Sequence[Row]",
        names: "Sequence[str] | None" = None,
    ) -> tuple[SegmentMatches, bool]:
        """Memberships for ``rows`` — possibly via a shared evaluation.

        Returns ``(matches, coalesced)`` where ``coalesced`` reports
        whether this request shared its evaluation with others.  Blocks
        until the evaluator thread has produced this request's slice;
        evaluation errors propagate unchanged.
        """
        key: _GroupKey = (
            self._catalog.version,
            tuple(names) if names is not None else None,
        )
        return self.submit(key, rows)

    def _evaluator(self, key: _GroupKey) -> PredicateSetEvaluator:
        cached = self._evaluators.get(key)
        if cached is not None and cached.catalog_version == key[0]:
            self._evaluators.move_to_end(key)
            return cached
        # If the catalog moved between enqueue and drain, the group
        # evaluates against the now-current snapshot — still consistent
        # (every request in the group sees the same definitions, and the
        # name tuple in the key rules out slice mislabeling), just at a
        # point after the catalog change.
        evaluator = PredicateSetEvaluator(self._catalog, key[1])
        self._evaluators[key] = evaluator
        self._evaluators.move_to_end(key)
        while len(self._evaluators) > _MAX_SNAPSHOTS:
            self._evaluators.popitem(last=False)
        return evaluator

    def _match_group(
        self, key: _GroupKey, requests: "Sequence[Sequence[Row]]"
    ) -> SegmentMatches:
        evaluator = self._evaluator(key)
        rows = requests[0] if len(requests) == 1 else concat_rows(requests)
        with obs.span(
            "segments.batch.match",
            requests=len(requests),
            rows=len(rows),
            segments=len(evaluator),
        ):
            return evaluator.match(ColumnBatch(rows))


def _slice_matches(
    matches: SegmentMatches, start: int, stop: int
) -> SegmentMatches:
    """One request's rows of a shared evaluation."""
    return SegmentMatches(
        names=matches.names,
        masks=tuple(mask[start:stop] for mask in matches.masks),
        memberships=matches.memberships[start:stop],
        stats=matches.stats,
        catalog_version=matches.catalog_version,
    )
