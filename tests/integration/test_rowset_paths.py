"""One row representation on every path: executor identities over a
NULL- and bool-bearing table.

The table carries the model's feature columns plus three the models
never read: ``vip`` (inserted as Python bools), ``note`` (TEXT with
NULLs) and ``score`` (REAL with NULLs).  Whatever path produces the
result — naive or envelope-rewritten, the scalar reference semantics or
the vectorized executor at any batch size, executor or serving engine —
the rows must be the same
:class:`~repro.core.columns.RowSet` content, column order and exact
value types included.
"""

from __future__ import annotations

import pytest

from repro.core.columns import RowSet
from repro.core.optimizer import MiningQuery
from repro.core.predicates import Comparison, Op
from repro.core.rewrite import PredictionEquals, PredictionIn
from repro.serve import ModelRegistry, QueryRequest, ServeEngine
from repro.serve.transport import LoopbackTransport, serve_socketpair
from repro.sql.database import Database
from repro.sql.miningext import PredictionJoinExecutor
from repro.sql.schema import Column, ColumnType, TableSchema

from tests.conftest import CUSTOMER_FEATURES, reference_rows

EXTRA = (
    Column("vip", ColumnType.INTEGER),
    Column("note", ColumnType.TEXT),
    Column("score", ColumnType.REAL),
)


@pytest.fixture(scope="module")
def db(customer_rows):
    database = Database()
    first = customer_rows[0]
    features = tuple(
        Column(name, ColumnType.for_value(first[name]))
        for name in CUSTOMER_FEATURES
    )
    database.create_table(TableSchema("customers", features + EXTRA))
    database.insert_rows(
        "customers",
        [
            {
                **{name: row[name] for name in CUSTOMER_FEATURES},
                "vip": i % 3 == 0,
                "note": None if i % 4 else f"n{i}",
                "score": None if i % 5 == 0 else i / 8,
            }
            for i, row in enumerate(customer_rows)
        ],
    )
    yield database
    database.close()


@pytest.fixture(scope="module")
def registry(customer_tree, customer_nb):
    registry = ModelRegistry(max_nodes=150)
    registry.register(customer_tree, deploy=True)
    registry.register(customer_nb, deploy=True)
    return registry


QUERIES = [
    MiningQuery(
        "customers",
        mining_predicates=(PredictionEquals("risk_tree", "high"),),
    ),
    MiningQuery(
        "customers",
        relational_predicate=Comparison("age", Op.LT, 50),
        mining_predicates=(PredictionIn("risk_nb", ("low", "medium")),),
    ),
    MiningQuery(
        "customers",
        mining_predicates=(
            PredictionEquals("risk_tree", "low"),
            PredictionEquals("risk_nb", "low"),
        ),
    ),
    # No mining predicate: the fetched table itself is the result.
    MiningQuery("customers", relational_predicate=Comparison("age", Op.GE, 40)),
]


def exact(rows) -> list[list[tuple]]:
    """Rows as (column, type name, value) triples, order included."""
    return [
        [(name, type(value).__name__, value) for name, value in row.items()]
        for row in rows
    ]


@pytest.mark.parametrize("query", QUERIES, ids=range(len(QUERIES)))
def test_optimized_naive_scalar_vectorized_agree(db, registry, query):
    reports = [
        PredictionJoinExecutor(
            db, registry.catalog, batch_size=batch_size
        ).execute(query, optimize_query=optimize)
        for batch_size in (1, 99, db.row_count("customers"))
        for optimize in (True, False)
    ]
    # The scalar side: MiningQuery.evaluate over the relational fetch.
    reference = reference_rows(db, registry.catalog, query)
    assert len(reference) > 0
    assert tuple(reference[0]) == CUSTOMER_FEATURES + ("vip", "note", "score")
    # The NULLs and the 0/1 the bools were stored as come back as such.
    assert {type(row["vip"]) for row in reference} == {int}
    assert None in {row["note"] for row in reference}
    assert None in {row["score"] for row in reference}
    for report in reports:
        assert isinstance(report.rows, RowSet)
        # No index: every path scans in rowid order, so equality is exact.
        assert report.rows == reference
        assert exact(report.rows) == exact(reference)
        for name, labels in (report.predictions or {}).items():
            assert len(labels) == len(report.rows), name


def test_all_rows_surviving_returns_the_fetched_table_uncopied(
    db, registry, monkeypatch
):
    every_label = tuple(registry.catalog.model("risk_tree").class_labels)
    query = MiningQuery(
        "customers", mining_predicates=(PredictionIn("risk_tree", every_label),)
    )
    fetched = []
    query_rows = db.query_rows

    def spy(sql):
        fetched.append(query_rows(sql))
        return fetched[-1]

    monkeypatch.setattr(db, "query_rows", spy)
    report = PredictionJoinExecutor(db, registry.catalog).execute_naive(query)
    assert report.rows_fetched == db.row_count("customers")
    assert report.rows is fetched[-1]


def test_served_rows_are_the_reports_own_rowset(db, registry):
    with ServeEngine(db, registry, workers=2) as engine:
        loopback = LoopbackTransport(engine)
        client, server = serve_socketpair(engine)
        try:
            for query in QUERIES:
                local = loopback.request(QueryRequest(query))
                assert local.rows is local.report.rows
                assert isinstance(local.rows, RowSet)
                wired = client.request(QueryRequest(query))
                assert isinstance(wired.rows, RowSet)
                assert wired.rows == local.rows
                assert exact(wired.rows) == exact(local.rows)
        finally:
            client.close()
            server.close()
