"""Plan caching with model-version invalidation (paper Section 4.2).

"Such information is different from the traditional statistical information
about tables because the correctness of our optimization is impacted if the
mining model is changed.  In such cases, we need to invalidate an execution
plan (if cached or persisted) in case it had exploited upper envelopes."

:class:`PlanCache` stores optimized queries keyed by a structural
fingerprint of the mining query *plus the versions of every referenced
model* (from the catalog).  Re-registering a model bumps its version, so a
cached plan built against stale envelopes can never be replayed —
correctness, not just staleness, is at stake, exactly as the paper notes.

The relational predicate enters the key through
:func:`repro.ir.fingerprint` — a digest of predicate *structure*, under
which commutative-equivalent predicates (``And(a, b)`` vs ``And(b, a)``)
share one entry.  The previous ``repr``-text key missed on such logically
identical queries and re-optimized them from scratch.

Beyond model versions, entries carry the selectivity estimate the plan
was executed under (:meth:`PlanCache.record_estimate`).  When a lookup
supplies a calibrated estimator (:mod:`repro.sql.calibration`), a hit
whose recorded estimate has drifted from the calibrated truth beyond the
recalibration threshold is dropped and re-optimized — the feedback-loop
analogue of the paper's version-based invalidation, for plans whose
*selectivity* assumptions (not their envelopes) went stale.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import obs
from repro.core.catalog import ModelCatalog
from repro.core.optimizer import (
    DEFAULT_MAX_DISJUNCTS,
    MiningQuery,
    OptimizedQuery,
    optimize,
)
from repro.core.predicates import SelectivityEstimator
from repro.ir import fingerprint as ir_fingerprint


@dataclass
class PlanCacheStats:
    """Hit/miss/invalidation/eviction/recalibration counters."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    #: Cached plans dropped because their recorded selectivity estimate
    #: diverged from the calibrated truth beyond the threshold.
    recalibrations: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get_or_optimize`` calls (every lookup hits or misses)."""
        return self.hits + self.misses


class PlanCache:
    """A bounded LRU cache of optimized mining queries.

    All operations are thread-safe: the serving layer shares one cache
    across every worker thread.  A cache miss releases the lock while the
    optimizer runs (optimization is the expensive part and needs no shared
    state), so concurrent misses on *different* queries optimize in
    parallel; concurrent misses on the *same* query may both optimize, and
    the second insert wins — wasted work, never a wrong plan.  The
    hit/miss/invalidation/eviction counters are updated under the lock, so
    ``hits + misses`` always equals the number of lookups.
    """

    def __init__(
        self,
        capacity: int = 128,
        recalibration_threshold: float = 0.05,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if recalibration_threshold <= 0:
            raise ValueError(
                "recalibration_threshold must be > 0, got "
                f"{recalibration_threshold}"
            )
        self._capacity = capacity
        self._recalibration_threshold = recalibration_threshold
        #: key -> (model versions, plan, estimate the plan was kept
        #: under — ``None`` until the executor records one).
        self._entries: OrderedDict[
            tuple,
            tuple[
                tuple[tuple[str, int], ...], OptimizedQuery, float | None
            ],
        ] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = PlanCacheStats()

    @staticmethod
    def _fingerprint(query: MiningQuery, max_disjuncts: int) -> tuple:
        # The disjunct threshold is part of the plan's identity: a query
        # optimized under one must not be replayed for a call with another.
        return (
            query.table,
            ir_fingerprint(query.relational_predicate),
            tuple(
                predicate.describe() for predicate in query.mining_predicates
            ),
            max_disjuncts,
        )

    @staticmethod
    def _model_versions(
        query: MiningQuery, catalog: ModelCatalog
    ) -> tuple[tuple[str, int], ...]:
        names: list[str] = []
        for predicate in query.mining_predicates:
            for name in predicate.models():
                if name not in names:
                    names.append(name)
        return tuple(
            (name, catalog.entry(name).version) for name in names
        )

    def get_or_optimize(
        self,
        query: MiningQuery,
        catalog: ModelCatalog,
        calibrated: "SelectivityEstimator | None" = None,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    ) -> OptimizedQuery:
        """Return a cached plan if every referenced model is unchanged.

        A version mismatch counts as an *invalidation* (the stale entry is
        evicted) and the query is re-optimized against the current
        envelopes.  ``max_disjuncts`` is folded into the cache key, so
        the same query under a different threshold is a *miss*
        (re-optimized), never a silent replay of a plan built with
        another.

        ``calibrated``, when given, enables divergence-triggered
        invalidation: a hit whose recorded estimate (see
        :meth:`record_estimate`) diverges from
        ``calibrated(plan.pushable_predicate)`` by more than the
        recalibration threshold is dropped and re-optimized — the plan
        was kept under selectivity assumptions the measured traffic has
        since contradicted.  Counted as ``plan_cache.recalibration``.
        """
        key = self._fingerprint(query, max_disjuncts)
        versions = self._model_versions(query, catalog)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                cached_versions, plan, estimate = cached
                if cached_versions != versions:
                    del self._entries[key]
                    self.stats.invalidations += 1
                    obs.add_counter("plan_cache.invalidation")
                elif self._diverged(plan, estimate, calibrated):
                    del self._entries[key]
                    self.stats.recalibrations += 1
                    obs.add_counter("plan_cache.recalibration")
                else:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    obs.add_counter("plan_cache.hit")
                    return plan
            self.stats.misses += 1
            obs.add_counter("plan_cache.miss")
        # Optimize outside the lock: misses on different queries must not
        # serialize behind each other in the serving path.
        plan = optimize(query, catalog, max_disjuncts=max_disjuncts)
        with self._lock:
            self._entries[key] = (versions, plan, None)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                obs.add_counter("plan_cache.evict")
        return plan

    def _diverged(
        self,
        plan: OptimizedQuery,
        estimate: float | None,
        calibrated: "SelectivityEstimator | None",
    ) -> bool:
        """Whether a cached plan's recorded estimate is no longer credible."""
        if calibrated is None or estimate is None:
            return False
        try:
            current = calibrated(plan.pushable_predicate)
        except Exception:
            # A calibration overlay must never turn a cache hit into a
            # crash; an unestimable predicate simply keeps the plan.
            return False
        return abs(float(current) - estimate) > self._recalibration_threshold

    def record_estimate(
        self,
        query: MiningQuery,
        catalog: ModelCatalog,
        estimate: float,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    ) -> None:
        """Attach the selectivity estimate a cached plan was executed under.

        The executor calls this after computing the pushable predicate's
        estimated selectivity; the recorded value is what later lookups
        compare the calibrated truth against.  A no-op when the entry
        has since been evicted or replaced by a different-version plan.
        """
        key = self._fingerprint(query, max_disjuncts)
        versions = self._model_versions(query, catalog)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None and cached[0] == versions:
                self._entries[key] = (cached[0], cached[1], float(estimate))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
