"""Unified envelope derivation: one entry point for every model family.

``derive_envelopes(model, ...)`` dispatches to the model-specific algorithm
(Section 3.1 for trees and rules, Section 3.2 for naive Bayes, Section 3.3
for clustering) and returns the per-class atomic envelopes that the paper
precomputes at training time (Section 4.2).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import obs
from repro.core.cluster_envelope import (
    clustering_envelopes,
    density_envelopes,
    discretized_cluster_envelopes,
)
from repro.core.envelope import UpperEnvelope, top_down_envelopes
from repro.core.nb_envelope import DEFAULT_MAX_NODES
from repro.core.predicates import Value, atom_count, disjunct_count
from repro.core.rule_envelope import rule_envelopes
from repro.core.score_model import ScoreTable
from repro.core.tree_envelope import tree_envelopes
from repro.exceptions import EnvelopeError
from repro.mining.base import MiningModel, Row
from repro.mining.decision_tree import DecisionTreeModel
from repro.mining.density import DensityClusterModel
from repro.mining.discretized_cluster import DiscretizedClusterModel
from repro.mining.gmm import GaussianMixtureModel
from repro.mining.kmeans import KMeansModel
from repro.mining.naive_bayes import NaiveBayesModel
from repro.mining.rules import RuleSetModel


def score_table_from_naive_bayes(model: NaiveBayesModel) -> ScoreTable:
    """Exact score table of a trained naive Bayes model."""
    lo = [table.copy() for table in model.log_conditionals]
    hi = [table.copy() for table in model.log_conditionals]
    tie_ranks = [model.tie_rank(k) for k in range(model.n_classes)]
    return ScoreTable(
        model.space,
        model.class_labels,
        model.log_priors.copy(),
        lo,
        hi,
        tie_ranks=tie_ranks,
    )


def naive_bayes_envelopes(
    model: NaiveBayesModel,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> dict[Value, UpperEnvelope]:
    """Top-down envelopes (Algorithm 1) for every class of an NB model."""
    return top_down_envelopes(
        model, score_table_from_naive_bayes(model), max_nodes
    )


def derive_envelopes(
    model: MiningModel,
    rows: Sequence[Row] | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
    bins: int = 8,
    tighten_rules: bool = False,
) -> dict[Value, UpperEnvelope]:
    """Per-class atomic upper envelopes for any supported model.

    ``rows`` (training data) are required only for centroid/model-based
    clustering, whose continuous features must be discretized to define the
    region grid; every other family derives straight from model content.
    """
    with obs.span(
        "derive.envelopes",
        model=model.name,
        family=model.kind.value,
        max_nodes=max_nodes,
    ) as sp:
        envelopes = _dispatch_derivation(
            model,
            rows=rows,
            max_nodes=max_nodes,
            bins=bins,
            tighten_rules=tighten_rules,
        )
        if obs.enabled():
            predicates = [e.predicate for e in envelopes.values()]
            sp.update(
                classes=len(envelopes),
                atoms_total=sum(atom_count(p) for p in predicates),
                clauses_total=sum(disjunct_count(p) for p in predicates),
                exact=sum(1 for e in envelopes.values() if e.exact),
                false_envelopes=sum(
                    1 for e in envelopes.values() if e.is_false
                ),
            )
        return envelopes


def _dispatch_derivation(
    model: MiningModel,
    rows: Sequence[Row] | None,
    max_nodes: int,
    bins: int,
    tighten_rules: bool,
) -> dict[Value, UpperEnvelope]:
    """Family dispatch for :func:`derive_envelopes`."""
    if isinstance(model, DecisionTreeModel):
        return tree_envelopes(model)
    if isinstance(model, RuleSetModel):
        return rule_envelopes(model, tighten=tighten_rules)
    if isinstance(model, NaiveBayesModel):
        return naive_bayes_envelopes(model, max_nodes=max_nodes)
    if isinstance(model, DiscretizedClusterModel):
        return discretized_cluster_envelopes(model, max_nodes=max_nodes)
    if isinstance(model, (KMeansModel, GaussianMixtureModel)):
        return clustering_envelopes(
            model, rows=rows, bins=bins, max_nodes=max_nodes
        )
    if isinstance(model, DensityClusterModel):
        return density_envelopes(model)
    raise EnvelopeError(
        f"no envelope derivation registered for {type(model).__name__}"
    )
