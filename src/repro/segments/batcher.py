"""Cross-request coalescing of segment-match calls.

The serving micro-batcher idiom applied to predicate-set evaluation:
concurrent ``match_segments`` requests against the *same* evaluator
snapshot enqueue their rows, a single evaluator thread drains whatever
is pending, concatenates the rows into one :class:`ColumnBatch`, runs
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

import threading
import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro import obs
from repro.core.columns import ColumnBatch, concat_rows
from repro.exceptions import ServiceStoppedError
from repro.segments.catalog import SegmentCatalog
from repro.segments.evaluator import PredicateSetEvaluator, SegmentMatches

if TYPE_CHECKING:
    from repro.mining.base import Row

#: Group key: (catalog version, requested names or None for "all").
_GroupKey = tuple[int, "tuple[str, ...] | None"]


class _Pending:
    """One request's match work: rows in, a memberships slice out."""

    __slots__ = ("rows", "done", "result", "error", "coalesced")

    def __init__(self, rows: "Sequence[Row]") -> None:
        self.rows = rows
        self.done = threading.Event()
        self.result: SegmentMatches | None = None
        self.error: BaseException | None = None
        self.coalesced = False


class MatchBatcher:
    """Coalesces concurrent segment-match calls per catalog snapshot.

    One evaluator thread serializes all matching.  Evaluator snapshots
    are cached per group key and dropped the moment the catalog version
    moves, so a register/retire between batches is picked up on the next
    drain.  Stop via :meth:`stop` (idempotent); stopping fails all
    waiters with :class:`~repro.exceptions.ServiceStoppedError`.
    """

    def __init__(
        self, catalog: SegmentCatalog, window: float = 0.0
    ) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self._catalog = catalog
        self._window = window
        self._cond = threading.Condition()
        self._pending: dict[_GroupKey, list[_Pending]] = {}
        self._evaluators: dict[_GroupKey, PredicateSetEvaluator] = {}
        self._stopped = False
        #: Lifetime totals, mirrored as ``segments.batch.*`` counters.
        self.calls = 0
        self.requests = 0
        self.rows_matched = 0
        self.coalesced = 0
        self._thread = threading.Thread(
            target=self._loop, name="repro-segment-batcher", daemon=True
        )
        self._thread.start()

    # -- request side ------------------------------------------------------

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
        item = _Pending(rows)
        with self._cond:
            if self._stopped:
                raise ServiceStoppedError("segment batcher is stopped")
            self._pending.setdefault(key, []).append(item)
            self._cond.notify()
        item.done.wait()
        if item.error is not None:
            raise item.error
        assert item.result is not None
        return item.result, item.coalesced

    # -- evaluator side ----------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopped:
                    self._cond.wait()
                if not self._stopped and self._window > 0:
                    # Bounded accumulation window, as in MicroBatcher:
                    # wait (lock released) so nearby arrivals join this
                    # drain; the deadline caps the added latency.
                    deadline = time.monotonic() + self._window
                    while not self._stopped:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                if self._stopped:
                    work = self._pending
                    self._pending = {}
                    for items in work.values():
                        for item in items:
                            item.error = ServiceStoppedError(
                                "segment batcher stopped before matching"
                            )
                            item.done.set()
                    return
                work, self._pending = self._pending, {}
            for key, items in work.items():
                self._match_group(key, items)

    def _evaluator(self, key: _GroupKey) -> PredicateSetEvaluator:
        cached = self._evaluators.get(key)
        if cached is not None and cached.catalog_version == key[0]:
            return cached
        # If the catalog moved between enqueue and drain, the group
        # evaluates against the now-current snapshot — still consistent
        # (every request in the group sees the same definitions, and the
        # name tuple in the key rules out slice mislabeling), just at a
        # point after the catalog change.
        evaluator = PredicateSetEvaluator(self._catalog, key[1])
        live = evaluator.catalog_version
        # Keep only snapshots of the live version; stale ones can never
        # satisfy a future lookup (the version check above rejects them).
        self._evaluators = {
            k: v
            for k, v in self._evaluators.items()
            if v.catalog_version == live
        }
        self._evaluators[key] = evaluator
        return evaluator

    def _match_group(
        self, key: _GroupKey, items: "list[_Pending]"
    ) -> None:
        try:
            evaluator = self._evaluator(key)
            if len(items) == 1:
                rows: Sequence = items[0].rows
            else:
                rows = concat_rows([item.rows for item in items])
            with obs.span(
                "segments.batch.match",
                requests=len(items),
                rows=len(rows),
                segments=len(evaluator),
            ):
                matches = evaluator.match(ColumnBatch(rows))
            offset = 0
            for item in items:
                width = len(item.rows)
                if len(items) == 1:
                    item.result = matches
                else:
                    item.result = SegmentMatches(
                        names=matches.names,
                        masks=tuple(
                            mask[offset : offset + width]
                            for mask in matches.masks
                        ),
                        memberships=matches.memberships[
                            offset : offset + width
                        ],
                        stats=matches.stats,
                        catalog_version=matches.catalog_version,
                    )
                    item.coalesced = True
                offset += width
            self.calls += 1
            self.requests += len(items)
            self.rows_matched += len(rows)
            obs.add_counter("segments.batch.requests", len(items))
            obs.add_counter("segments.batch.calls")
            obs.add_counter("segments.batch.rows", len(rows))
            if len(items) > 1:
                self.coalesced += len(items)
                obs.add_counter("segments.batch.coalesced", len(items))
        except BaseException as error:  # propagate to every waiter
            for item in items:
                item.error = error
        finally:
            for item in items:
                item.done.set()

    def stop(self) -> None:
        """Stop the evaluator; pending and future requests fail typed."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._cond.notify_all()
        self._thread.join()

    def __enter__(self) -> "MatchBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
