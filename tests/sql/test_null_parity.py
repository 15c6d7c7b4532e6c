"""NULL-handling parity between ``Predicate.evaluate`` and the SQL lowering.

``Predicate.evaluate`` is two-valued: ``None`` is a value that equals
nothing, so ``!=`` and ``NOT IN`` hold on NULL rows while ``=`` and ``IN``
do not.  SQL's three-valued logic would silently drop those rows from
negated atoms.  These tests run both sides against the same SQLite table
(with NULLs present) and require identical row sets — the truth-parity
contract documented in :mod:`repro.sql.compiler`.
"""

import sqlite3

import pytest

from repro.core.predicates import (
    And,
    Comparison,
    InSet,
    Not,
    Op,
    Or,
    equals,
)
from repro.exceptions import PredicateError
from repro.sql.compiler import compile_predicate

ROWS = [
    (1, "paris", 10),
    (2, "rome", None),
    (3, None, 30),
    (4, "berlin", None),
    (5, None, None),
    (6, "paris", 60),
    # Row 6's payload again under a new id: both copies must come back.
    (7, "paris", 60),
]


@pytest.fixture(scope="module")
def connection():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (id INTEGER, city TEXT, n INTEGER)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
    yield connection
    connection.close()


def sql_ids(connection, pred):
    sql = f"SELECT id FROM t WHERE {compile_predicate(pred)}"
    return {row[0] for row in connection.execute(sql)}


def eval_ids(pred):
    return {
        id_
        for id_, city, n in ROWS
        if pred.evaluate({"id": id_, "city": city, "n": n})
    }


#: The disjunctions, shared with the tests of the SELECT the executor
#: issues (``test_select_lowering``).
OR_PARITY_CASES = [
    Or((equals("city", "rome"), Comparison("n", Op.NE, 10))),
    Or((Not(InSet("city", ("paris",))), equals("n", 60))),
    Or((equals("city", "paris"), equals("city", "rome"), equals("n", 30))),
    Or((
        And((equals("city", "paris"), Comparison("n", Op.NE, 60))),
        And((Comparison("city", Op.NE, "paris"), InSet("n", (30, 60)))),
    )),
    # Overlapping disjuncts: rows satisfying both must appear once.
    Or((equals("city", "paris"), Comparison("n", Op.NE, 10))),
]

PARITY_CASES = [
    equals("city", "paris"),
    Comparison("city", Op.NE, "paris"),
    Comparison("n", Op.NE, 10),
    InSet("city", ("paris", "rome")),
    Not(InSet("city", ("paris", "rome"))),
    Not(equals("city", "paris")),
    Not(Not(equals("city", "paris"))),
    And((Comparison("city", Op.NE, "paris"), Comparison("n", Op.NE, 10))),
    Not(And((equals("city", "paris"), equals("n", 10)))),
    Not(Or((InSet("city", ("rome",)), equals("n", 30)))),
    *OR_PARITY_CASES,
]


class TestNullParity:
    @pytest.mark.parametrize(
        "pred", PARITY_CASES, ids=[repr(p) for p in PARITY_CASES]
    )
    def test_sql_matches_evaluate(self, connection, pred):
        assert sql_ids(connection, pred) == eval_ids(pred)

    @pytest.mark.parametrize(
        "pred", OR_PARITY_CASES, ids=[repr(p) for p in OR_PARITY_CASES]
    )
    def test_or_returns_each_row_once(self, connection, pred):
        # Sorted lists, not sets: a row matching several disjuncts comes
        # back once, and rows 6 and 7 (one payload) both come back.
        sql = f"SELECT id FROM t WHERE {compile_predicate(pred)}"
        got = sorted(row[0] for row in connection.execute(sql))
        assert got == sorted(eval_ids(pred))

    def test_ne_keeps_null_rows(self, connection):
        pred = Comparison("city", Op.NE, "paris")
        assert sql_ids(connection, pred) == {2, 3, 4, 5}

    def test_not_in_keeps_null_rows(self, connection):
        pred = Not(InSet("city", ("paris", "rome")))
        assert sql_ids(connection, pred) == {3, 4, 5}

    def test_generic_not_keeps_unknown_rows(self, connection):
        # NOT over a conjunction whose inner result is unknown on NULL
        # rows: IS NOT TRUE maps unknown to true, matching evaluate().
        pred = Not(And((equals("city", "paris"), equals("n", 10))))
        assert sql_ids(connection, pred) == {2, 3, 4, 5, 6, 7}

    def test_ordered_comparison_on_none_raises(self):
        # Ordered comparisons are exempt from the parity contract:
        # evaluate() refuses to order None against a bound.
        with pytest.raises(PredicateError):
            Comparison("n", Op.LT, 10).evaluate({"n": None})
