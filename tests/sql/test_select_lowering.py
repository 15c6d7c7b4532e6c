"""The SELECT the executor issues: one flat ``WHERE``, planned as run.

``capture_select_plan`` renders ``SELECT * FROM T WHERE <pushable>``
once and EXPLAINs that same text; the access path is SQLite's choice
over whatever indexes exist.  These tests pin that the statement stays
flat in every planner regime, and that over an index-tuned table the
optimized executor returns exactly the reference rows.
"""

from collections import Counter

import pytest

from repro.core.catalog import ModelCatalog
from repro.core.optimizer import MiningQuery
from repro.core.predicates import (
    And,
    Comparison,
    FalsePredicate,
    Op,
    Or,
    equals,
)
from repro.core.rewrite import PredictionEquals
from repro.mining.decision_tree import DecisionTreeLearner
from repro.mining.naive_bayes import NaiveBayesLearner
from repro.sql.advisor import tune_for_workload
from repro.sql.compiler import select_statement
from repro.sql.database import Database, load_table
from repro.sql.miningext import PredictionJoinExecutor
from repro.sql.planner import (
    AccessPath,
    CONSTANT_SCAN_PLAN,
    capture_select_plan,
)

from tests.conftest import (
    CUSTOMER_FEATURES,
    make_customer_rows,
    reference_rows,
)
from tests.sql.test_null_parity import OR_PARITY_CASES, ROWS


def _low_cardinality_db(rows=1500, segments=4):
    """Indexed low-cardinality equality disjuncts whose flat OR SQLite
    prices above one sequential scan."""
    db = Database()
    load_table(
        db,
        "t",
        [{"seg": i % segments, "x": float(i % 100)} for i in range(rows)],
    )
    db.create_index("t", ["seg"])
    db.analyze()
    pred = Or(tuple(
        And((equals("seg", k), Comparison("x", Op.LT, 40.0 + k)))
        for k in range(segments)
    ))
    return db, pred


class TestCaptureSelectPlan:
    def test_low_cardinality_or_keeps_flat_sql(self):
        # SQLite prices a scan as cheaper here; that choice stands.
        db, pred = _low_cardinality_db()
        select = capture_select_plan(db, "t", pred)
        assert select.sql == select_statement("t", pred)
        assert select.plan.access_path is AccessPath.FULL_SCAN

    def test_keeps_flat_when_multi_index_or_fires(self):
        # High-cardinality equality disjuncts: SQLite's own multi-index
        # OR seeks the index from the flat statement.
        db = Database()
        load_table(
            db,
            "t",
            [{"b": i, "x": float(i % 100)} for i in range(3000)],
        )
        db.create_index("t", ["b"])
        db.analyze()
        pred = Or(tuple(
            And((equals("b", k * 7), Comparison("x", Op.LT, 50.0)))
            for k in range(4)
        ))
        select = capture_select_plan(db, "t", pred)
        assert select.sql == select_statement("t", pred)
        assert select.plan.access_path is AccessPath.INDEX_SEARCH

    def test_keeps_flat_without_an_index(self):
        db = Database()
        load_table(
            db,
            "t",
            [{"seg": i % 4, "x": float(i)} for i in range(500)],
        )
        pred = Or(tuple(
            And((equals("seg", k), Comparison("x", Op.LT, 100.0)))
            for k in range(4)
        ))
        select = capture_select_plan(db, "t", pred)
        assert select.sql == select_statement("t", pred)
        assert select.plan.access_path is AccessPath.FULL_SCAN

    def test_false_predicate_is_a_constant_scan(self):
        # Planned without asking the engine, yet the statement still
        # runs (and returns nothing) if issued.
        db, _ = _low_cardinality_db(rows=10)
        select = capture_select_plan(db, "t", FalsePredicate())
        assert select.plan == CONSTANT_SCAN_PLAN
        assert select.sql == select_statement("t", FalsePredicate())
        assert len(db.query_rows(select.sql)) == 0


@pytest.fixture(scope="module")
def nullable_db():
    """The NULL-parity ``ROWS`` with both columns indexed and no ANALYZE, so
    SQLite answers some of the ORs with a multi-index OR of seeks."""
    db = Database()
    load_table(
        db,
        "t",
        [{"id": i, "city": c, "n": n} for i, c, n in ROWS],
    )
    db.create_index("t", ["city"])
    db.create_index("t", ["n"])
    return db


class TestIssuedSqlNullParity:
    """NULL parity and bag semantics hold for the statement the
    executor issues, whether SQLite scans or seeks it."""

    @pytest.mark.parametrize(
        "pred", OR_PARITY_CASES, ids=[repr(p) for p in OR_PARITY_CASES]
    )
    def test_issued_sql_matches_evaluate(self, nullable_db, pred):
        select = capture_select_plan(nullable_db, "t", pred)
        got = sorted(row["id"] for row in nullable_db.query_rows(select.sql))
        want = sorted(
            i
            for i, c, n in ROWS
            if pred.evaluate({"id": i, "city": c, "n": n})
        )
        assert got == want

    def test_some_cases_seek(self, nullable_db):
        assert any(
            capture_select_plan(nullable_db, "t", pred).plan.uses_index
            for pred in OR_PARITY_CASES
        )


@pytest.fixture(scope="module")
def customers():
    return make_customer_rows(1500, seed=5)


@pytest.fixture(scope="module")
def catalog(customers):
    catalog = ModelCatalog()
    catalog.register(
        DecisionTreeLearner(
            CUSTOMER_FEATURES, "risk", max_depth=6, name="s_tree"
        ).fit(customers)
    )
    catalog.register(
        NaiveBayesLearner(
            CUSTOMER_FEATURES, "risk", bins=5, name="s_nb"
        ).fit(customers)
    )
    return catalog


@pytest.fixture(scope="module")
def tuned_db(customers, catalog):
    db = Database()
    load_table(db, "customers", customers)
    tune_for_workload(
        db,
        "customers",
        [
            catalog.envelope(name, label).predicate
            for name in catalog.model_names()
            for label in catalog.class_labels(name)
        ],
    )
    return db


def _multiset(rows):
    return Counter(tuple(sorted(row.items())) for row in rows)


class TestTunedTableParity:
    """Over the indexes the tuning wizard picked, index-driven fetches
    return the reference rows, whatever order they arrive in."""

    @pytest.mark.parametrize("model", ["s_tree", "s_nb"])
    def test_rows_match_reference(self, tuned_db, catalog, model):
        executor = PredictionJoinExecutor(tuned_db, catalog)
        index_plans = 0
        for label in catalog.class_labels(model):
            query = MiningQuery(
                "customers",
                mining_predicates=(PredictionEquals(model, label),),
            )
            report = executor.execute_optimized(query)
            assert _multiset(report.rows) == _multiset(
                reference_rows(tuned_db, catalog, query)
            ), label
            index_plans += report.plan.uses_index
        # The tuning must have produced at least one seek, or this
        # compares scans with scans.
        assert index_plans > 0
