"""Reproduction of *Efficient Evaluation of Queries with Mining Predicates*
(Chaudhuri, Narasayya, Sarawagi — ICDE 2002).

The library derives **upper envelopes** — ordinary AND/OR predicates over
data columns — from the internal structure of mining models (decision
trees, rule sets, naive Bayes, and clustering), and uses them to rewrite
queries with mining predicates so a relational engine can pick indexed
access paths.

Quickstart::

    from repro import (
        DecisionTreeLearner, ModelCatalog, MiningQuery, PredictionEquals,
        Database, load_table, PredictionJoinExecutor,
    )

    tree = DecisionTreeLearner(features, "risk").fit(rows)
    catalog = ModelCatalog()
    catalog.register(tree)

    db = Database()
    load_table(db, "customers", rows)

    query = MiningQuery(
        "customers", mining_predicates=(PredictionEquals(tree.name, "low"),)
    )
    report = PredictionJoinExecutor(db, catalog).execute(query)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.core import (
    FALSE,
    TRUE,
    And,
    AttributeSpace,
    BinnedDimension,
    CategoricalDimension,
    Comparison,
    Dimension,
    EnvelopeResult,
    InSet,
    Interval,
    Not,
    Op,
    Or,
    OrdinalDimension,
    Predicate,
    Region,
    RegionBounds,
    RegionStatus,
    ScoreTable,
    Value,
    allowed_values,
    conjunction,
    cover_cells,
    derive_envelope,
    disjunction,
    equals,
    in_set,
    merge_regions,
    regions_to_predicate,
    simplify,
    to_dnf,
    to_nnf,
)
from repro.core.catalog import CatalogEntry, ModelCatalog
from repro.core.cluster_envelope import (
    clustering_envelopes,
    clustering_space,
    density_envelopes,
    gmm_score_table,
    kmeans_score_table,
)
from repro.core.derive import (
    derive_envelopes,
    naive_bayes_envelopes,
    score_table_from_naive_bayes,
)
from repro.core.envelope import UpperEnvelope
from repro.core.optimizer import (
    DEFAULT_MAX_DISJUNCTS,
    MiningQuery,
    OptimizedQuery,
    execute_reference,
    optimize,
)
from repro.core.regression_envelope import (
    PredictionBetween,
    register_regression_model,
    regression_range_envelope,
)
from repro.core.rewrite import (
    MiningPredicate,
    PredictionEquals,
    PredictionIn,
    PredictionJoinColumn,
    PredictionJoinPrediction,
)
from repro.core.rule_envelope import rule_envelope, rule_envelopes
from repro.core.tree_envelope import tree_envelope, tree_envelopes
from repro.ir import (
    PassPipeline,
    PredicateTransformer,
    PredicateVisitor,
    default_pipeline,
    fingerprint,
    intern,
    intern_stats,
    simplify_pipeline,
)
from repro.data import (
    DATASETS,
    Dataset,
    DatasetSpec,
    dataset_spec,
    expand_rows,
    generate,
    generate_all,
)
from repro.mining.regression_tree import (
    RegressionTreeLearner,
    RegressionTreeModel,
)
from repro.mining import (
    AgglomerativeClusterLearner,
    FuzzyCMeansLearner,
    DecisionTreeLearner,
    DecisionTreeModel,
    DensityClusterLearner,
    DensityClusterModel,
    GaussianMixtureLearner,
    GaussianMixtureModel,
    KMeansLearner,
    KMeansModel,
    MiningModel,
    ModelKind,
    NaiveBayesLearner,
    NaiveBayesModel,
    RuleLearner,
    RuleSetModel,
    load_model,
    model_from_dict,
    naive_bayes_from_tables,
    save_model,
)
from repro.sql.dmx import parse_dmx
from repro.sql import (
    Database,
    PlanCache,
    ExecutionReport,
    Plan,
    PredictionJoinExecutor,
    TableSchema,
    baseline_full_scan,
    capture_plan,
    compile_predicate,
    load_table,
    select_statement,
    tune_for_workload,
)

__version__ = "1.1.0"

__all__ = [
    "AgglomerativeClusterLearner",
    "And",
    "AttributeSpace",
    "BinnedDimension",
    "CatalogEntry",
    "CategoricalDimension",
    "Comparison",
    "DATASETS",
    "DEFAULT_MAX_DISJUNCTS",
    "Database",
    "Dataset",
    "DatasetSpec",
    "DecisionTreeLearner",
    "DecisionTreeModel",
    "DensityClusterLearner",
    "DensityClusterModel",
    "Dimension",
    "EnvelopeResult",
    "ExecutionReport",
    "FALSE",
    "FuzzyCMeansLearner",
    "GaussianMixtureLearner",
    "GaussianMixtureModel",
    "InSet",
    "Interval",
    "KMeansLearner",
    "KMeansModel",
    "MiningModel",
    "MiningPredicate",
    "MiningQuery",
    "ModelCatalog",
    "ModelKind",
    "NaiveBayesLearner",
    "NaiveBayesModel",
    "Not",
    "Op",
    "OptimizedQuery",
    "Or",
    "OrdinalDimension",
    "PassPipeline",
    "Plan",
    "PlanCache",
    "PredictionBetween",
    "Predicate",
    "PredictionEquals",
    "PredictionIn",
    "PredictionJoinColumn",
    "PredictionJoinExecutor",
    "PredictionJoinPrediction",
    "PredicateTransformer",
    "PredicateVisitor",
    "Region",
    "RegressionTreeLearner",
    "RegressionTreeModel",
    "RegionBounds",
    "RegionStatus",
    "RuleLearner",
    "RuleSetModel",
    "ScoreTable",
    "TRUE",
    "TableSchema",
    "UpperEnvelope",
    "Value",
    "allowed_values",
    "baseline_full_scan",
    "capture_plan",
    "clustering_envelopes",
    "clustering_space",
    "compile_predicate",
    "conjunction",
    "cover_cells",
    "dataset_spec",
    "default_pipeline",
    "density_envelopes",
    "derive_envelope",
    "derive_envelopes",
    "disjunction",
    "equals",
    "execute_reference",
    "expand_rows",
    "fingerprint",
    "generate",
    "generate_all",
    "gmm_score_table",
    "in_set",
    "intern",
    "intern_stats",
    "kmeans_score_table",
    "load_model",
    "load_table",
    "merge_regions",
    "model_from_dict",
    "naive_bayes_envelopes",
    "naive_bayes_from_tables",
    "optimize",
    "parse_dmx",
    "regions_to_predicate",
    "register_regression_model",
    "regression_range_envelope",
    "rule_envelope",
    "rule_envelopes",
    "save_model",
    "score_table_from_naive_bayes",
    "select_statement",
    "simplify",
    "simplify_pipeline",
    "to_dnf",
    "to_nnf",
    "tree_envelope",
    "tree_envelopes",
    "tune_for_workload",
]
