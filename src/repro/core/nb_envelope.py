"""Top-down upper-envelope derivation (paper Algorithm 1).

:func:`derive_envelope` refines a tree of regions, classifying each against
the target class with the bounds of :mod:`repro.core.nb_bounds`:

* MUST_WIN regions become disjuncts of the envelope,
* MUST_LOSE regions are discarded,
* AMBIGUOUS regions are shrunk, then split along the entropy-selected
  dimension, until a node budget (the paper's *Threshold*) is exhausted;
  leftover ambiguous regions are *kept* — including them can only loosen the
  envelope, never break it.

The generic enumerate-and-cover algorithm it replaces (Section 3.2.2's first
paragraph) lives beside ablation A3, its one caller, in
:mod:`repro.experiments.ablation`.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.covering import cover_cells
from repro.core.normalize import simplify
from repro.core.predicates import Predicate, Value, atom_count
from repro.core.regions import (
    AttributeSpace,
    Region,
    coarsen_regions,
    merge_regions,
    regions_to_predicate,
)
from repro.core.nb_bounds import (
    RegionBounds,
    RegionStatus,
    entropy_split,
    shrink_region,
)
from repro.core.score_model import ScoreTable
from repro.exceptions import EnvelopeError
from repro.ir import intern

#: Default node-expansion budget (the paper's *Threshold* input).
DEFAULT_MAX_NODES = 512

#: Ambiguous regions of at most this many cells are resolved exactly by
#: per-cell prediction and rectangle covering.
LEAF_ENUMERATION_CELLS = 128


@dataclass(frozen=True)
class EnvelopeResult:
    """Outcome of an envelope derivation.

    ``exact`` is True when no ambiguous region had to be kept, i.e. the
    envelope contains the target cells and nothing else; ``seconds`` is the
    wall-clock derivation time (the Section 5 overhead experiment).
    """

    class_label: Value
    regions: tuple[Region, ...]
    predicate: Predicate
    nodes_expanded: int
    ambiguous_kept: int
    exact: bool
    seconds: float

    @property
    def is_empty(self) -> bool:
        """True when the class is unreachable (envelope is FALSE).

        The optimizer answers such queries with a constant scan, never
        touching the data (paper Section 5.2.1, plan-change case (b)).
        """
        return not self.regions


def derive_envelope(
    table: ScoreTable,
    class_label: Value,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_regions: int | None = 48,
    max_constrained_dims: int | None = 5,
    bounds: type[RegionBounds] = RegionBounds,
) -> EnvelopeResult:
    """Derive the upper envelope of ``class_label`` (paper Algorithm 1).

    ``max_nodes`` bounds the number of split expansions;
    ``max_regions`` caps the number of disjuncts by sound, mass-aware
    bounding-box coarsening (the Section 4.2 disjunct threshold) — ``None``
    disables it; ``max_constrained_dims`` keeps only each region's most
    selective dimension constraints — dropping a conjunct can only widen a
    region, so this is the paper's "retain only a subset of relevant upper
    envelope for evaluation as filter conditions" (Section 4.2), trading a
    little tightness for far fewer predicate atoms; ``bounds`` is the class
    that classifies regions (the pairwise-difference bounds unless an
    ablation substitutes the paper's own).

    Ambiguous regions of at most :data:`LEAF_ENUMERATION_CELLS` cells are
    resolved *exactly* by per-cell prediction and rectangle covering (a
    hybrid of the paper's two algorithms: top-down carving with the generic
    enumerate-and-cover at the leaves, where it is cheap), and the result
    goes through the bottom-up/non-sibling merge pass.
    """
    if max_nodes < 0:
        raise EnvelopeError("max_nodes must be >= 0")
    started = time.perf_counter()
    target = table.class_index(class_label)

    wins: list[Region] = []
    kept: list[Region] = []
    # Highest-probability-mass-first frontier: under a node budget, the
    # regions left ambiguous at exhaustion are *included* in the envelope,
    # so the search should resolve the regions carrying the most data
    # first.  The mass estimate comes from the model's own distribution
    # (for naive Bayes, exactly the model's probability of the region), so
    # derivation still uses model content only, as the paper requires.
    counter = itertools.count()
    frontier: list[tuple[float, int, Region]] = []
    root = Region.full(table.space)
    heapq.heappush(
        frontier, (-_region_mass(table, root), next(counter), root)
    )
    expanded = 0

    while frontier:
        _, _, region = heapq.heappop(frontier)
        status = bounds(table, region, target).status()
        if status is RegionStatus.MUST_LOSE:
            continue
        if status is RegionStatus.MUST_WIN:
            wins.append(region)
            continue
        shrunk = shrink_region(table, region, target, bounds=bounds)
        if shrunk is None:
            continue
        if shrunk is not region:
            status = bounds(table, shrunk, target).status()
            if status is RegionStatus.MUST_LOSE:
                continue
            if status is RegionStatus.MUST_WIN:
                wins.append(shrunk)
                continue
            region = shrunk
        if region.is_cell():
            # A single cell with exact scores resolves by direct prediction;
            # interval tables (clustering on bins) keep the ambiguous cell,
            # which is sound.
            if table.is_exact():
                if table.predict_cell(
                    tuple(m[0] for m in region.members)
                ) == target:
                    wins.append(region)
                continue
            kept.append(region)
            continue
        if (
            table.is_exact()
            and region.cell_count() <= LEAF_ENUMERATION_CELLS
        ):
            # Small ambiguous region: resolve exactly by enumeration —
            # the generic algorithm applied where it is cheap.
            winning = [
                cell
                for cell in region.iter_cells()
                if table.predict_cell(cell) == target
            ]
            wins.extend(cover_cells(table.space, winning, merge=False))
            continue
        if expanded >= max_nodes:
            kept.append(region)
            continue
        split = entropy_split(table, region, target)
        if split is None:
            kept.append(region)
            continue
        dim, left_members = split
        left, right = region.split(dim, left_members)
        heapq.heappush(
            frontier, (-_region_mass(table, left), next(counter), left)
        )
        heapq.heappush(
            frontier, (-_region_mass(table, right), next(counter), right)
        )
        expanded += 1

    regions = merge_regions(wins + kept)
    coarsened = False
    weights = _member_weights(table)
    if max_regions is not None and len(regions) > max_regions:
        regions = coarsen_regions(
            regions, max_regions, member_weights=weights
        )
        regions = merge_regions(regions)
        coarsened = True
    if max_constrained_dims is not None:
        pruned = [
            _prune_weak_dims(
                region, table.space, weights, max_constrained_dims
            )
            for region in regions
        ]
        if pruned != regions:
            coarsened = True
            regions = merge_regions(pruned)
    # Simplification folds redundant range atoms and hoists atoms common to
    # every disjunct, which is what lets the relational optimizer drive an
    # index from a shared selective condition (see normalize.simplify).
    # DNF normalization can also *expand* per-dimension member unions into
    # many conjuncts; the factored form is preferred (it is what enables
    # indexed plans) unless its evaluation cost blows up.
    raw = regions_to_predicate(regions, table.space)
    simplified = simplify(raw, max_terms=512)
    if atom_count(simplified) <= 2 * atom_count(raw) + 32:
        predicate = simplified
    else:
        predicate = raw
    predicate = intern(predicate)
    return EnvelopeResult(
        class_label=class_label,
        regions=tuple(regions),
        predicate=predicate,
        nodes_expanded=expanded,
        ambiguous_kept=len(kept),
        exact=not kept and not coarsened,
        seconds=time.perf_counter() - started,
    )


def _prune_weak_dims(
    region: Region,
    space: AttributeSpace,
    weights: list,
    max_constrained_dims: int,
) -> Region:
    """Keep only the region's ``max_constrained_dims`` strongest constraints.

    A constraint's strength is the model-mass fraction it excludes from its
    dimension; weak constraints (excluding little mass) cost predicate atoms
    without buying selectivity.  Dropping a conjunct widens the region, so
    the result remains a sound upper envelope.
    """
    strengths: list[tuple[float, int]] = []
    for d, members in enumerate(region.members):
        dim_size = space.dimensions[d].size
        if len(members) == dim_size:
            continue
        weight = weights[d]
        total = float(weight.sum())
        kept = float(weight[np.asarray(members, dtype=int)].sum())
        coverage = kept / total if total > 0 else 1.0
        strengths.append((coverage, d))
    if len(strengths) <= max_constrained_dims:
        return region
    strengths.sort()  # lowest coverage = strongest constraint first
    keep = {d for _, d in strengths[:max_constrained_dims]}
    members = tuple(
        region.members[d]
        if d in keep
        else tuple(range(space.dimensions[d].size))
        for d in range(space.n_dims)
    )
    return Region(members)


def _member_weights(table: ScoreTable) -> list:
    """Per-dimension marginal member masses under the model's mixture.

    Used by mass-aware coarsening: ``w_d[m] = sum_k exp(bias_k + s_k(d,m))``
    with mid-point scores for interval tables.
    """
    weights = []
    for d in range(table.space.n_dims):
        scaled = table.mid(d) + table.biases[:, None]
        peak = scaled.max()
        weights.append(np.exp(scaled - peak).sum(axis=0) + 1e-12)
    return weights


def _class_masses(table: ScoreTable, region: Region) -> np.ndarray:
    """Per-class log mass of a region under the model.

    ``bias_k + sum_d log sum_{m in r_d} exp(score_k(d, m))`` — for naive
    Bayes exactly ``log Pr(region, c_k)``.  Mid-point scores keep it
    defined for interval tables.
    """
    totals = table.biases.copy()
    for d, members in enumerate(region.members):
        index = np.asarray(members, dtype=int)
        mids = table.mid(d)[:, index]
        peak = mids.max(axis=1)
        totals = totals + peak + np.log(
            np.exp(mids - peak[:, None]).sum(axis=1)
        )
    return totals


def _region_mass(table: ScoreTable, region: Region) -> float:
    """Estimated probability mass of a region under the model.

    The logsumexp over :func:`_class_masses` — for naive Bayes exactly the
    model's probability of the region; for clustering tables (bias 0,
    scores are negative distances) an unnormalized soft-mass heuristic
    with the same ordering role.
    """
    totals = _class_masses(table, region)
    peak = totals.max()
    return float(peak + np.log(np.exp(totals - peak).sum()))


def predicate_for_labels(
    envelopes: dict[Value, EnvelopeResult], labels: Sequence[Value]
) -> Predicate:
    """OR of per-class envelopes — the IN-predicate composition (§4.1)."""
    from repro.core.predicates import disjunction

    missing = [label for label in labels if label not in envelopes]
    if missing:
        raise EnvelopeError(f"no envelopes for labels {missing}")
    return disjunction(envelopes[label].predicate for label in labels)
