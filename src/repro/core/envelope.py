"""The :class:`UpperEnvelope` value object.

An upper envelope of class ``c`` under model ``M`` is a propositional
predicate ``M_c(x)`` over data columns such that ``predict(x) = c`` implies
``M_c(x)`` (paper Section 1).  This module defines the common result type
produced by every model-specific derivation in this package, independent of
whether the derivation went through path extraction (trees, rules) or
region refinement (naive Bayes, clustering).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.nb_envelope import derive_envelope
from repro.core.predicates import (
    FalsePredicate,
    Predicate,
    Value,
    atom_count,
    disjunct_count,
)
from repro.core.score_model import ScoreTable
from repro.mining.base import MiningModel, ModelKind, Row


@dataclass(frozen=True)
class UpperEnvelope:
    """A derived upper envelope for one class of one model.

    * ``exact`` — whether the envelope accepts *only* rows predicted as the
      class (always true for decision trees, Section 3.1),
    * ``seconds`` — derivation wall-clock time (the Section 5 overhead
      experiment shows this is negligible next to training),
    * ``derivation`` — short tag of the algorithm used (``"tree-paths"``,
      ``"top-down"``, ``"enumeration"``, ``"rule-bodies"``,
      ``"rectangle-cover"``).
    """

    model_name: str
    model_kind: ModelKind
    class_label: Value
    predicate: Predicate
    exact: bool
    seconds: float
    derivation: str

    @property
    def is_false(self) -> bool:
        """True when the class is unreachable — the constant-scan case."""
        return isinstance(self.predicate, FalsePredicate)

    @property
    def n_disjuncts(self) -> int:
        """Top-level disjunct count (the paper's complexity concern)."""
        return disjunct_count(self.predicate)

    @property
    def n_atoms(self) -> int:
        """Total atom count of the predicate."""
        return atom_count(self.predicate)

    def admits(self, row: Row) -> bool:
        """Whether the envelope accepts ``row``."""
        return self.predicate.evaluate(row)


def top_down_envelopes(
    model: MiningModel, table: ScoreTable, max_nodes: int
) -> dict[Value, UpperEnvelope]:
    """Algorithm 1 for every class of a model reduced to ``table``."""
    envelopes: dict[Value, UpperEnvelope] = {}
    for label in model.class_labels:
        result = derive_envelope(table, label, max_nodes=max_nodes)
        envelopes[label] = UpperEnvelope(
            model_name=model.name,
            model_kind=model.kind,
            class_label=label,
            predicate=result.predicate,
            exact=result.exact,
            seconds=result.seconds,
            derivation="top-down",
        )
    return envelopes
