"""Vectorized residual filtering: identity with the scalar reference
semantics (``MiningQuery.evaluate``, one ``predict`` per row), the
batch-size knob, memoization, and the stripped-envelope columnar
prefilter."""

import pytest

from repro.core.catalog import ModelCatalog
from repro.core.columns import ColumnBatch
from repro.core.optimizer import MiningQuery
from repro.core.predicates import Comparison, Op
from repro.core.rewrite import (
    PredictionEquals,
    PredictionIn,
    PredictionJoinColumn,
    PredictionJoinPrediction,
)
from repro.exceptions import ModelError
from repro.mining.base import MiningModel
from repro.mining.decision_tree import DecisionTreeLearner
from repro.mining.kmeans import KMeansLearner
from repro.mining.naive_bayes import NaiveBayesLearner
from repro.sql.database import Database, load_table
from repro.sql.miningext import PredictionJoinExecutor

from tests.conftest import (
    CUSTOMER_FEATURES,
    make_customer_rows,
    reference_rows,
)


@pytest.fixture(scope="module")
def rows():
    return make_customer_rows(500, seed=13)


@pytest.fixture(scope="module")
def catalog(rows):
    catalog = ModelCatalog()
    catalog.register(
        DecisionTreeLearner(
            CUSTOMER_FEATURES, "risk", max_depth=6, name="v_tree"
        ).fit(rows)
    )
    catalog.register(
        NaiveBayesLearner(
            CUSTOMER_FEATURES, "risk", bins=5, name="v_nb"
        ).fit(rows)
    )
    catalog.register(
        KMeansLearner(("age", "income"), 3, name="v_kmeans").fit(rows),
        rows=rows,
    )
    return catalog


@pytest.fixture(scope="module")
def db(rows):
    db = Database()
    # The table keeps 'risk' so PredictionJoinColumn queries work too.
    load_table(db, "customers", rows)
    yield db
    db.close()


QUERIES = {
    "equals": MiningQuery(
        "customers", mining_predicates=(PredictionEquals("v_tree", "high"),)
    ),
    "in": MiningQuery(
        "customers",
        mining_predicates=(PredictionIn("v_nb", ("low", "high")),),
    ),
    "join_models": MiningQuery(
        "customers",
        mining_predicates=(PredictionJoinPrediction("v_tree", "v_nb"),),
    ),
    "join_column": MiningQuery(
        "customers",
        mining_predicates=(PredictionJoinColumn("v_tree", "risk"),),
    ),
    "multi": MiningQuery(
        "customers",
        relational_predicate=Comparison("age", Op.LT, 60),
        mining_predicates=(
            PredictionIn("v_tree", ("low", "medium", "high")),
            PredictionEquals("v_nb", "medium"),
            PredictionEquals("v_kmeans", "cluster_0"),
        ),
    ),
}


def _executor(db, catalog, **kwargs):
    return PredictionJoinExecutor(db, catalog, **kwargs)


class TestScalarVectorizedIdentity:
    """The columnar residual filter returns exactly the rows of the
    scalar reference semantics, whatever the batch size."""

    # 1 = a batch per row, 7 and 99 = batches stitched back together
    # (99 leaves a short last one), 2048 = the whole 500-row table in one.
    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    @pytest.mark.parametrize("gate", [0.2, None])
    @pytest.mark.parametrize("batch_size", [1, 7, 99, 2048])
    def test_identical_rows(self, db, catalog, query_name, gate, batch_size):
        query = QUERIES[query_name]
        want = reference_rows(db, catalog, query)
        executor = _executor(
            db, catalog, selectivity_gate=gate, batch_size=batch_size
        )
        for execute in ("execute_naive", "execute_optimized"):
            got = getattr(executor, execute)(query).rows
            # Exact equality: same rows, same (scan) order — the table
            # has no index, so the optimized fetch scans too.
            assert got == want

    def test_stripped_envelope_prefilter_identity(self, db, catalog):
        # A tiny gate strips every envelope from the SQL, which routes
        # them through the columnar prefilter ahead of model scoring.
        query = QUERIES["multi"]
        executor = _executor(db, catalog, selectivity_gate=1e-9)
        naive = executor.execute_naive(query)
        optimized = executor.execute_optimized(query)
        assert optimized.rows == reference_rows(db, catalog, query)
        assert sorted(
            tuple(sorted(r.items())) for r in optimized.rows
        ) == sorted(tuple(sorted(r.items())) for r in naive.rows)

    def test_empty_fetch(self, db, catalog):
        query = MiningQuery(
            "customers",
            relational_predicate=Comparison("age", Op.LT, -100),
            mining_predicates=(PredictionEquals("v_tree", "high"),),
        )
        executor = _executor(db, catalog)
        assert executor.execute_naive(query).rows == ()
        assert executor.execute_optimized(query).rows == ()


class TestKnobs:
    def test_knob_properties(self, db, catalog):
        assert _executor(db, catalog, batch_size=99).batch_size == 99
        assert _executor(db, catalog).batch_size == 2048

    @pytest.mark.parametrize("bad", [0, -3])
    def test_bad_batch_size_rejected(self, db, catalog, bad):
        with pytest.raises(ModelError):
            _executor(db, catalog, batch_size=bad)


class _CountingModel(MiningModel):
    """Delegates to a wrapped model, counting prediction entry points."""

    def __init__(self, inner: MiningModel, name: str) -> None:
        self.inner = inner
        self.name = name
        self.prediction_column = inner.prediction_column
        self.predict_calls = 0
        self.batch_calls = 0

    @property
    def kind(self):
        return self.inner.kind

    @property
    def feature_columns(self):
        return self.inner.feature_columns

    @property
    def class_labels(self):
        return self.inner.class_labels

    def predict(self, row):
        self.predict_calls += 1
        return self.inner.predict(row)

    def predict_batch(self, batch):
        self.batch_calls += 1
        return self.inner.predict_batch(batch)

    def to_dict(self):
        return self.inner.to_dict()


class TestMemoization:
    """Several predicates over one model must score each row once."""

    def _counting_setup(self, rows):
        inner = DecisionTreeLearner(
            CUSTOMER_FEATURES, "risk", max_depth=6, name="inner"
        ).fit(rows)
        counting = _CountingModel(inner, "counted")
        catalog = ModelCatalog()
        catalog.register(counting, envelopes={})
        query = MiningQuery(
            "customers",
            mining_predicates=(
                PredictionIn("counted", ("low", "medium", "high")),
                PredictionEquals("counted", "high"),
            ),
        )
        return counting, catalog, query

    def test_vectorized_one_batch_call_per_chunk(self, db, rows):
        counting, catalog, query = self._counting_setup(rows)
        executor = _executor(db, catalog, batch_size=len(rows))
        report = executor.execute_naive(query)
        assert report.rows_fetched == len(rows)
        # Two predicates, one chunk: the memo limits scoring to one call.
        assert counting.batch_calls == 1
        assert counting.predict_calls == 0

    def test_vectorized_chunking_counts(self, db, rows):
        counting, catalog, query = self._counting_setup(rows)
        executor = _executor(db, catalog, batch_size=100)
        executor.execute_naive(query)
        expected_chunks = -(-len(rows) // 100)
        assert counting.batch_calls == expected_chunks
        assert counting.predict_calls == 0

    def test_scalar_fallback_model_via_base_batch(self, db, rows):
        """A model without a vectorized kernel still works in batches."""

        class ScalarOnly(MiningModel):
            def __init__(self, inner):
                self.inner = inner
                self.name = "scalar_only"
                self.prediction_column = inner.prediction_column

            @property
            def kind(self):
                return self.inner.kind

            @property
            def feature_columns(self):
                return self.inner.feature_columns

            @property
            def class_labels(self):
                return self.inner.class_labels

            def predict(self, row):
                return self.inner.predict(row)

            def to_dict(self):
                return self.inner.to_dict()

        inner = NaiveBayesLearner(
            CUSTOMER_FEATURES, "risk", bins=5, name="nb_inner"
        ).fit(rows)
        model = ScalarOnly(inner)
        assert not model.supports_batch()
        batch = ColumnBatch(rows[:50])
        got = model.predict_batch(batch)
        assert list(got) == [model.predict(r) for r in rows[:50]]
        # predict_many routes through the scalar loop without error.
        assert model.predict_many(rows[:10]) == [
            model.predict(r) for r in rows[:10]
        ]

        catalog = ModelCatalog()
        catalog.register(model, envelopes={})
        query = MiningQuery(
            "customers",
            mining_predicates=(PredictionEquals("scalar_only", "high"),),
        )
        want = reference_rows(db, catalog, query)
        assert 0 < len(want) < len(rows)
        for batch_size in (1, 99, len(rows)):
            executor = _executor(db, catalog, batch_size=batch_size)
            assert executor.execute_naive(query).rows == want


class TestReportSemantics:
    def test_time_split_preserved(self, db, catalog):
        executor = _executor(db, catalog)
        report = executor.execute_optimized(QUERIES["equals"])
        assert report.sql_seconds >= 0.0
        assert report.model_seconds >= 0.0
        assert report.total_seconds == pytest.approx(
            report.sql_seconds + report.model_seconds
        )
        assert report.rows_returned == len(report.rows)

    def test_predictions_augmented_identically(self, db, catalog, rows):
        query = QUERIES["equals"]
        tree = catalog.model("v_tree")
        # The reference: each surviving row plus one scalar ``predict``.
        want = [
            {**row, tree.prediction_column: tree.predict(row)}
            for row in reference_rows(db, catalog, query)
        ]
        assert want and all(r["predicted_risk"] == "high" for r in want)
        for batch_size in (1, 99, len(rows)):
            executor = _executor(db, catalog, batch_size=batch_size)
            assert executor.predictions(query) == want
