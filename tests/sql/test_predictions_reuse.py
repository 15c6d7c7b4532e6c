"""Each model scores a given row at most once end-to-end.

The optimized path's residual filter already scores (and memoizes) every
surviving row; :meth:`PredictionJoinExecutor.predictions` must surface
those memos instead of re-scoring the result rows with ``predict_many``.
What comes out is checked against the reference semantics: the rows
whose scalar ``predict`` gives the queried label, carrying that label.

Each test runs with the table in one batch and in 99-row batches
stitched back together.
"""

import pytest

from repro.core.catalog import ModelCatalog
from repro.core.derive import derive_envelopes
from repro.core.optimizer import MiningQuery
from repro.core.rewrite import PredictionEquals, PredictionIn
from repro.mining.base import MiningModel
from repro.mining.decision_tree import DecisionTreeLearner
from repro.sql.database import Database, load_table
from repro.sql.miningext import PredictionJoinExecutor

from tests.conftest import CUSTOMER_FEATURES, make_customer_rows


class CountingModel(MiningModel):
    """Delegates to a trained model, counting scores per row id."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.prediction_column = inner.prediction_column
        self.row_counts: dict = {}

    @property
    def kind(self):
        return self.inner.kind

    @property
    def feature_columns(self):
        return self.inner.feature_columns

    @property
    def class_labels(self):
        return self.inner.class_labels

    def _count(self, rows):
        for row in rows:
            key = row["row_id"]
            self.row_counts[key] = self.row_counts.get(key, 0) + 1

    def predict(self, row):
        self._count([row])
        return self.inner.predict(row)

    def predict_batch(self, batch):
        self._count(batch.rows())
        return self.inner.predict_batch(batch)

    def predict_many(self, rows):
        rows = list(rows)
        self._count(rows)
        return self.inner.predict_many(rows)


@pytest.fixture(scope="module")
def trained():
    rows = make_customer_rows()
    inner = DecisionTreeLearner(
        CUSTOMER_FEATURES, "risk", max_depth=6, name="risk_tree"
    ).fit(rows)
    envelopes = derive_envelopes(inner)
    feature_rows = [
        {"row_id": i, **{c: row[c] for c in CUSTOMER_FEATURES}}
        for i, row in enumerate(rows)
    ]
    return inner, envelopes, feature_rows


def build_executor(trained, one_batch):
    inner, envelopes, feature_rows = trained
    model = CountingModel(inner)
    catalog = ModelCatalog()
    catalog.register(model, envelopes=envelopes)
    db = Database()
    load_table(db, "customers", feature_rows)
    assert len(feature_rows) > 2 * 99  # 99-row batches really do stitch
    batch_size = len(feature_rows) if one_batch else 99
    executor = PredictionJoinExecutor(db, catalog, batch_size=batch_size)
    return db, executor, model


@pytest.mark.parametrize("one_batch", [True, False])
@pytest.mark.parametrize("optimize_query", [True, False])
def test_each_row_scored_at_most_once(trained, one_batch, optimize_query):
    db, executor, model = build_executor(trained, one_batch)
    try:
        query = MiningQuery(
            "customers",
            mining_predicates=(PredictionEquals("risk_tree", "high"),),
        )
        enriched = executor.predictions(
            query, optimize_query=optimize_query
        )
        assert enriched  # the class exists in the data
        assert model.row_counts, "the model was never consulted"
        over_scored = {
            key: n for key, n in model.row_counts.items() if n > 1
        }
        assert over_scored == {}
    finally:
        db.close()


@pytest.mark.parametrize("one_batch", [True, False])
def test_prediction_column_matches_model(trained, one_batch):
    inner, _, feature_rows = trained
    db, executor, model = build_executor(trained, one_batch)
    try:
        query = MiningQuery(
            "customers",
            mining_predicates=(PredictionEquals("risk_tree", "high"),),
        )
        want = [
            {**row, inner.prediction_column: "high"}
            for row in feature_rows
            if inner.predict(row) == "high"
        ]
        assert want
        assert executor.predictions(query, optimize_query=False) == want
        by_id = sorted(executor.predictions(query), key=lambda r: r["row_id"])
        assert by_id == want  # index-driven fetch order may differ
    finally:
        db.close()


@pytest.mark.parametrize("one_batch", [True, False])
def test_two_predicates_on_one_model_share_scores(trained, one_batch):
    db, executor, model = build_executor(trained, one_batch)
    try:
        query = MiningQuery(
            "customers",
            mining_predicates=(
                PredictionIn("risk_tree", ("low", "medium", "high")),
                PredictionEquals("risk_tree", "high"),
            ),
        )
        executor.predictions(query)
        assert max(model.row_counts.values()) == 1
    finally:
        db.close()


@pytest.mark.parametrize("one_batch", [True, False])
def test_report_predictions_align_with_rows(trained, one_batch):
    inner, _, _ = trained
    db, executor, model = build_executor(trained, one_batch)
    try:
        query = MiningQuery(
            "customers",
            mining_predicates=(PredictionEquals("risk_tree", "high"),),
        )
        report = executor.execute_optimized(query)
        assert report.predictions is not None
        labels = report.predictions["risk_tree"]
        assert len(labels) == len(report.rows)
        for row, label in zip(report.rows, labels):
            assert label == "high"
            assert inner.predict(row) == "high"
    finally:
        db.close()
