"""Core contribution: predicate algebra, regions, and envelope search.

Only the foundation modules — the ones with no dependency on
:mod:`repro.mining` — are re-exported here, so that mining models can import
the predicate/region algebra without creating an import cycle.  The complete
public API (including model-specific envelope derivation, the catalog, and
the optimizer) is re-exported at the top level: ``import repro``.
"""

from repro.core.covering import cover_cells
from repro.core.nb_bounds import RegionBounds, RegionStatus
from repro.core.nb_envelope import (
    DEFAULT_MAX_NODES,
    EnvelopeResult,
    derive_envelope,
)
from repro.core.normalize import allowed_values, simplify, to_dnf, to_nnf
from repro.core.predicates import (
    FALSE,
    TRUE,
    And,
    Comparison,
    InSet,
    Interval,
    Not,
    Op,
    Or,
    Predicate,
    Value,
    atom_count,
    conjunction,
    disjunct_count,
    disjunction,
    equals,
    in_set,
    negate,
)
from repro.core.regions import (
    AttributeSpace,
    BinnedDimension,
    CategoricalDimension,
    Dimension,
    OrdinalDimension,
    Region,
    coarsen_regions,
    merge_regions,
    regions_to_predicate,
)
from repro.core.score_model import ScoreTable

__all__ = [
    "And",
    "AttributeSpace",
    "BinnedDimension",
    "CategoricalDimension",
    "Comparison",
    "DEFAULT_MAX_NODES",
    "Dimension",
    "EnvelopeResult",
    "FALSE",
    "InSet",
    "Interval",
    "Not",
    "Op",
    "Or",
    "OrdinalDimension",
    "Predicate",
    "Region",
    "RegionBounds",
    "RegionStatus",
    "ScoreTable",
    "TRUE",
    "Value",
    "allowed_values",
    "atom_count",
    "coarsen_regions",
    "conjunction",
    "cover_cells",
    "derive_envelope",
    "disjunct_count",
    "disjunction",
    "equals",
    "in_set",
    "merge_regions",
    "negate",
    "regions_to_predicate",
    "simplify",
    "to_dnf",
    "to_nnf",
]
