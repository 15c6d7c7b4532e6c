"""Set-up of one workload: data, table, models, deployment, engine.

``build`` times each stage apart, because ``setup_s`` and ``deploy_s``
are end-to-end metrics and the stages are per-layer ones.  Every knob of
the library stays at its default except the constants a ``Sizing``
names; the envelope cache points at the empty directory the caller
hands in, so every deployment is cold.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro import (
    Database,
    DecisionTreeLearner,
    KMeansLearner,
    NaiveBayesLearner,
    PlanCache,
    PredictionJoinExecutor,
    clustering_space,
    expand_rows,
    generate,
    load_table,
    tune_for_workload,
)
from repro.mining import DiscretizedClusterModel
from repro.segments import SegmentCatalog
from repro.serve import LoopbackTransport, ModelRegistry, ServeEngine, serve_socketpair

from benchlib import mix

#: Generated data never depends on ``--seed``.
DATA_SEED = 0
TREE_MAX_DEPTH = 10
ENGINE_WORKERS = 2
PLAN_CACHE_ENTRIES = 256


@dataclass(frozen=True)
class Sizing:
    """The committed sizes of one workload's data and models."""

    dataset: str
    #: Rows generated; the first ``train_rows`` of them train the models.
    generated_rows: int
    train_rows: int
    #: The table holds the generated rows doubled until past this count.
    table_target: int
    #: Naive Bayes and the discretized k-means use the first
    #: ``model_features`` feature columns and these bin counts; envelope
    #: derivation time grows steeply with both.
    model_features: int
    nb_bins: int
    cluster_bins: int
    families: tuple[str, ...] = ("tree", "nb", "cluster")
    #: ``tune_for_workload`` budget; 0 leaves the table without indexes.
    index_budget: int = 0
    #: Segment catalog size; 0 builds none.
    segments: int = 0
    #: ``engine`` is ``"none"`` (bare executor), ``"loopback"`` or ``"wire"``.
    engine: str = "none"


@dataclass
class Fixture:
    sizing: Sizing
    table: str
    rows: list[dict]
    columns: dict[str, list[float]]
    db: Database
    registry: ModelRegistry
    deployed: list[tuple[str, tuple]]
    timings: dict[str, float]
    derive_seconds: dict[str, float]
    envelope_disjuncts: int
    envelope_atoms: int
    executor: PredictionJoinExecutor | None = None
    plan_cache: PlanCache | None = None
    engine: ServeEngine | None = None
    client: object | None = None
    server: object | None = None
    catalog: SegmentCatalog | None = None
    #: Closes client, server, engine and database, in that order.
    resources: ExitStack = field(default_factory=ExitStack)

    def close(self) -> None:
        self.resources.close()


def _atoms(predicate) -> int:
    children = predicate.children()
    return 1 if not children else sum(_atoms(child) for child in children)


def _train(sizing: Sizing, dataset, rows) -> dict[str, object]:
    features, target = dataset.feature_columns, dataset.target_column
    narrow = features[: sizing.model_features]
    models: dict[str, object] = {}
    if "tree" in sizing.families:
        models["tree"] = DecisionTreeLearner(
            features, target, max_depth=TREE_MAX_DEPTH, name="tree"
        ).fit(rows)
    if "nb" in sizing.families:
        models["nb"] = NaiveBayesLearner(
            narrow, target, bins=sizing.nb_bins, name="nb"
        ).fit(rows)
    if "cluster" in sizing.families:
        kmeans = KMeansLearner(
            narrow, dataset.spec.n_clusters, seed=DATA_SEED,
            weighting="kurtosis", name="cluster",
        ).fit(rows)
        models["cluster"] = DiscretizedClusterModel(
            kmeans, clustering_space(kmeans, rows, bins=sizing.cluster_bins)
        )
    return models


def build(sizing: Sizing, cache_dir: str, seed: int) -> Fixture:
    """Run every set-up stage once and return the live fixture."""
    timings: dict[str, float] = {}
    clock = time.perf_counter

    started = clock()
    dataset = generate(sizing.dataset, train_size=sizing.generated_rows, seed=DATA_SEED)
    features = dataset.feature_columns
    train_rows = dataset.train_rows[: sizing.train_rows]
    # The table stores features only: predictions come from the model.
    rows = [
        {c: row[c] for c in features}
        for row in expand_rows(dataset.train_rows, sizing.table_target)
    ]
    timings["data.generate_s"] = clock() - started

    started = clock()
    models = _train(sizing, dataset, train_rows)
    timings["mining.train_s"] = clock() - started

    started = clock()
    db = Database()
    load_table(db, sizing.dataset, rows)
    timings["sql.load_table_s"] = clock() - started

    started = clock()
    registry = ModelRegistry(cache_dir=cache_dir)
    deployed: list[tuple[str, tuple]] = []
    derive_seconds: dict[str, float] = {}
    disjuncts = atoms = 0
    for family, model in models.items():
        version = registry.register(model, deploy=True)
        derive_seconds[family] = version.derive_seconds
        deployed.append((version.name, tuple(sorted(version.envelopes, key=str))))
        for envelope in version.envelopes.values():
            disjuncts += envelope.n_disjuncts
            atoms += _atoms(envelope.predicate)
    timings["serve.registry.deploy_s"] = clock() - started

    numeric = tuple(c for c in features if not isinstance(rows[0][c], str))
    columns = mix.sorted_columns(rows[: sizing.generated_rows], numeric)
    fixture = Fixture(
        sizing=sizing, table=sizing.dataset, rows=rows, columns=columns, db=db,
        registry=registry, deployed=deployed, timings=timings,
        derive_seconds=derive_seconds, envelope_disjuncts=disjuncts,
        envelope_atoms=atoms,
    )
    fixture.resources.callback(db.close)

    started = clock()
    if sizing.index_budget:
        workload = [
            registry.catalog.envelope(name, label).predicate
            for name, labels in deployed
            for label in labels
        ]
        tune_for_workload(db, fixture.table, workload, budget=sizing.index_budget)
    timings["sql.tune_indexes_s"] = clock() - started

    started = clock()
    if sizing.segments:
        envelopes = [
            (f"{name}/{label}", registry.catalog.envelope(name, label))
            for name, labels in deployed
            if name in ("tree", "nb")
            for label in labels
        ]
        fixture.catalog = mix.build_segment_catalog(
            sizing.segments, columns, envelopes, seed
        )
    timings["segments.catalog_build_s"] = clock() - started

    started = clock()
    if sizing.engine == "none":
        fixture.plan_cache = PlanCache(PLAN_CACHE_ENTRIES)
        fixture.executor = PredictionJoinExecutor(
            db, registry.catalog, plan_cache=fixture.plan_cache
        )
    else:
        fixture.engine = ServeEngine(
            db, registry, workers=ENGINE_WORKERS, segment_catalog=fixture.catalog
        )
        fixture.resources.callback(fixture.engine.shutdown)
        if sizing.engine == "wire":
            fixture.client, fixture.server = serve_socketpair(fixture.engine)
            fixture.resources.callback(fixture.server.close)
            fixture.resources.callback(fixture.client.close)
        else:
            fixture.client = LoopbackTransport(fixture.engine)
    timings["serve.engine.start_s"] = clock() - started
    return fixture


def median_cutoffs(fixture: Fixture, count: int = 2) -> list[tuple[str, float]]:
    """``column <= median`` cut-offs on the first numeric feature columns."""
    return [
        (column, mix.column_quantile(fixture.columns[column], 0.5))
        for column in list(fixture.columns)[:count]
    ]
