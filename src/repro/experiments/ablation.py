"""Ablation studies for the design choices the paper discusses.

* **A1 — node-budget threshold.**  Section 4.2 thresholds envelope
  complexity; Algorithm 1's *Threshold* input trades derivation work for
  tightness.  A1 sweeps ``max_nodes`` and reports envelope selectivity and
  disjunct counts.
* **A2 — Lemma 3.2 exact two-class bounds.**  For K=2 datasets, compare
  envelopes derived with the paper's generic separate bounds against the
  product's pairwise-difference bounds, which give the ratio transform's
  exact verdicts on every two-class region.
* **A3 — naive enumeration baseline.**  The paper notes the generic
  enumerate-and-cover algorithm took ">24 hours" on a medium dataset; A3
  times enumeration against the top-down algorithm on growing attribute
  spaces until enumeration becomes intractable.
* **A4 — pairwise-difference bounds** (our extension).  The K-class
  generalization of Lemma 3.2 against the paper's separate bounds, on
  multi-class datasets.
* **A5 — envelope simplification** (our extension).  Mass-aware coarsening
  plus weak-constraint pruning against the raw search output.

A2 and A4 are one comparison (:func:`bounds_comparison`) over different
datasets; the paper's separate bounds (:class:`SeparateBounds`) and the
enumerate-and-cover baseline (:func:`enumerate_envelope`) live here because
the ablations are their only callers.  Every other derivation uses the
product's bounds.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.covering import cover_cells
from repro.core.derive import score_table_from_naive_bayes
from repro.core.nb_bounds import (
    LOSE_MARGIN,
    RegionBounds,
    RegionStatus,
    _masked_sum,
)
from repro.core.nb_envelope import EnvelopeResult, derive_envelope
from repro.core.predicates import Value
from repro.core.regions import (
    AttributeSpace,
    CategoricalDimension,
    Region,
    regions_to_predicate,
)
from repro.core.score_model import ScoreTable
from repro.data.generators import generate
from repro.exceptions import EnvelopeError
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.ir import intern
from repro.mining.naive_bayes import NaiveBayesLearner, naive_bayes_from_tables
from repro.workload.report import format_table
from repro.workload.runner import load_dataset, original_selectivities


class SeparateBounds(RegionBounds):
    """The paper's Section 3.2.2 ``minProb`` / ``maxProb`` bounds.

    Each class's score is bounded on its own over the region:

        minScore(j) = bias_j + sum_d  min over allowed members of lo_j(d, m)
        maxScore(j) = bias_j + sum_d  max over allowed members of hi_j(d, m)

    * MUST_WIN  — ``minScore(k)`` beats ``maxScore(j)`` for every ``j != k``,
    * MUST_LOSE — some ``j`` has ``minScore(j)`` beating ``maxScore(k)``,
    * AMBIGUOUS — neither.

    Never tighter than the product's pairwise bounds, which replace a
    min/max pair per opponent by one bound on the difference.  A2 and A4
    pass this class as ``derive_envelope(..., bounds=SeparateBounds)``; it
    keeps :class:`RegionBounds`'s interface (``status``,
    ``members_must_lose``) but none of its per-opponent state.
    """

    def __init__(
        self, table: ScoreTable, region: Region, target: int
    ) -> None:
        self.table = table
        self.region = region
        self.target = target
        n_classes = table.n_classes
        n_dims = table.space.n_dims
        self._indices = [
            np.asarray(members, dtype=int) for members in region.members
        ]
        #: Per-class, per-dimension extreme contributions.
        self.dim_min = np.empty((n_classes, n_dims))
        self.dim_max = np.empty((n_classes, n_dims))
        for d, index in enumerate(self._indices):
            self.dim_min[:, d] = table.lo[d][:, index].min(axis=1)
            self.dim_max[:, d] = table.hi[d][:, index].max(axis=1)
        self.min_score = table.biases + self.dim_min.sum(axis=1)
        self.max_score = table.biases + self.dim_max.sum(axis=1)

    def status(self) -> RegionStatus:
        min_score = self.min_score
        max_score = self.max_score
        if self._must_lose_separate(min_score, max_score):
            return RegionStatus.MUST_LOSE
        if self._must_win_separate(min_score, max_score):
            return RegionStatus.MUST_WIN
        return RegionStatus.AMBIGUOUS

    def _must_win_separate(
        self, min_score: np.ndarray, max_score: np.ndarray
    ) -> bool:
        ranks = self.table.tie_ranks
        target = self.target
        for j in range(self.table.n_classes):
            if j == target:
                continue
            if min_score[target] > max_score[j]:
                continue
            if (
                min_score[target] == max_score[j]
                and ranks[target] < ranks[j]
            ):
                continue
            return False
        return True

    def _must_lose_separate(
        self, min_score: np.ndarray, max_score: np.ndarray
    ) -> bool:
        ranks = self.table.tie_ranks
        target = self.target
        for j in range(self.table.n_classes):
            if j == target:
                continue
            if max_score[target] + LOSE_MARGIN < min_score[j]:
                return True
            if (
                max_score[target] == min_score[j]
                and ranks[j] < ranks[target]
            ):
                return True
        return False

    def members_must_lose(
        self, dim: int, members: np.ndarray
    ) -> np.ndarray:
        """The Shrink step's revised ``maxProb(c_j, d, m)`` verdicts."""
        ranks = np.asarray(self.table.tie_ranks)
        target = self.target
        # Conditional scores: shape (K, len(members)).
        min_score = (
            self.table.biases[:, None]
            + _masked_sum(self.dim_min, dim)[:, None]
            + self.table.lo[dim][:, members]
        )
        max_score = (
            self.table.biases[:, None]
            + _masked_sum(self.dim_max, dim)[:, None]
            + self.table.hi[dim][:, members]
        )
        strict = max_score[target][None, :] + LOSE_MARGIN < min_score
        ties = (max_score[target][None, :] == min_score) & (
            ranks[:, None] < ranks[target]
        )
        lose = strict | ties
        lose[target, :] = False
        return lose.any(axis=0)


@dataclass(frozen=True)
class ThresholdRow:
    """A1: one (dataset, max_nodes) observation."""

    dataset: str
    max_nodes: int
    mean_disjuncts: float
    mean_envelope_selectivity: float
    derive_seconds: float


def threshold_sweep(
    datasets: tuple[str, ...] = ("diabetes", "anneal_u"),
    budgets: tuple[int, ...] = (25, 100, 400, 1600),
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> list[ThresholdRow]:
    """A1: envelope tightness as a function of the node budget."""
    rows: list[ThresholdRow] = []
    for name in datasets:
        dataset = generate(
            name, train_size=config.train_size(1_000), seed=config.seed
        )
        model = NaiveBayesLearner(
            dataset.feature_columns,
            dataset.target_column,
            bins=config.nb_bins,
        ).fit(dataset.train_rows)
        table = score_table_from_naive_bayes(model)
        loaded = load_dataset(dataset, rows_target=10_000)
        try:
            for budget in budgets:
                started = time.perf_counter()
                results = [
                    derive_envelope(table, label, max_nodes=budget)
                    for label in model.class_labels
                ]
                seconds = time.perf_counter() - started
                selectivities = [
                    loaded.db.selectivity(loaded.table, r.predicate)
                    for r in results
                ]
                from repro.core.predicates import disjunct_count

                rows.append(
                    ThresholdRow(
                        dataset=name,
                        max_nodes=budget,
                        mean_disjuncts=float(
                            np.mean(
                                [disjunct_count(r.predicate) for r in results]
                            )
                        ),
                        mean_envelope_selectivity=float(
                            np.mean(selectivities)
                        ),
                        derive_seconds=seconds,
                    )
                )
        finally:
            loaded.db.close()
    return rows


@dataclass(frozen=True)
class BoundsRow:
    """A2/A4: one bounds family's envelopes on one dataset."""

    dataset: str
    mode: str
    mean_envelope_selectivity: float
    mean_original_selectivity: float
    exact_count: int
    derive_seconds: float


def bounds_comparison(
    datasets: tuple[str, ...],
    config: ExperimentConfig = DEFAULT_CONFIG,
    train_size: int = 4_000,
    max_nodes: int = 300,
) -> list[BoundsRow]:
    """A2/A4: the paper's separate bounds versus the product's pairwise ones.

    Rows come in pairs per dataset, ``"separate"`` then ``"pairwise"``, at
    equal node budget.  On two-class datasets (A2) the pairwise bounds are
    Lemma 3.2's exact bounds; on multi-class datasets (A4) they are its
    generalization to every opponent pair.
    """
    rows: list[BoundsRow] = []
    for name in datasets:
        dataset = generate(
            name, train_size=config.train_size(train_size), seed=config.seed
        )
        model = NaiveBayesLearner(
            dataset.feature_columns,
            dataset.target_column,
            bins=config.nb_bins,
        ).fit(dataset.train_rows)
        table = score_table_from_naive_bayes(model)
        loaded = load_dataset(dataset, rows_target=10_000)
        originals = original_selectivities(dataset, model)
        try:
            for mode, bounds in (
                ("separate", SeparateBounds),
                ("pairwise", RegionBounds),
            ):
                started = time.perf_counter()
                results = [
                    derive_envelope(
                        table, label, max_nodes=max_nodes, bounds=bounds
                    )
                    for label in model.class_labels
                ]
                seconds = time.perf_counter() - started
                selectivities = [
                    loaded.db.selectivity(loaded.table, r.predicate)
                    for r in results
                ]
                rows.append(
                    BoundsRow(
                        dataset=name,
                        mode=mode,
                        mean_envelope_selectivity=float(
                            np.mean(selectivities)
                        ),
                        mean_original_selectivity=float(
                            np.mean(list(originals.values()))
                        ),
                        exact_count=sum(1 for r in results if r.exact),
                        derive_seconds=seconds,
                    )
                )
        finally:
            loaded.db.close()
    return rows


@dataclass(frozen=True)
class SimplificationRow:
    """A5: one configuration of the envelope-simplification machinery."""

    dataset: str
    variant: str
    mean_envelope_selectivity: float
    mean_atoms: float
    mean_disjuncts: float


def simplification_comparison(
    dataset_name: str = "shuttle",
    config: ExperimentConfig = DEFAULT_CONFIG,
    max_nodes: int = 300,
) -> list[SimplificationRow]:
    """A5: coarsening and weak-constraint pruning versus the raw search.

    Both transformations are sound (they only widen regions/drop
    conjuncts); the sweep shows what they cost in envelope selectivity and
    what they buy in predicate size — the paper's Section 4.2 trade-off
    made measurable.
    """
    from repro.core.predicates import atom_count, disjunct_count

    dataset = generate(
        dataset_name, train_size=config.train_size(4_000), seed=config.seed
    )
    model = NaiveBayesLearner(
        dataset.feature_columns,
        dataset.target_column,
        bins=config.nb_bins,
    ).fit(dataset.train_rows)
    table = score_table_from_naive_bayes(model)
    loaded = load_dataset(dataset, rows_target=10_000)
    variants = (
        ("raw", dict(max_regions=None, max_constrained_dims=None)),
        ("coarsened", dict(max_regions=32, max_constrained_dims=None)),
        ("coarsened+pruned", dict(max_regions=32, max_constrained_dims=5)),
    )
    rows: list[SimplificationRow] = []
    try:
        for variant, options in variants:
            results = [
                derive_envelope(
                    table, label, max_nodes=max_nodes, **options
                )
                for label in model.class_labels
            ]
            rows.append(
                SimplificationRow(
                    dataset=dataset_name,
                    variant=variant,
                    mean_envelope_selectivity=float(
                        np.mean(
                            [
                                loaded.db.selectivity(
                                    loaded.table, r.predicate
                                )
                                for r in results
                            ]
                        )
                    ),
                    mean_atoms=float(
                        np.mean([atom_count(r.predicate) for r in results])
                    ),
                    mean_disjuncts=float(
                        np.mean(
                            [disjunct_count(r.predicate) for r in results]
                        )
                    ),
                )
            )
    finally:
        loaded.db.close()
    return rows


#: Guard on full enumeration; above this the naive algorithm is refused,
#: which is exactly the paper's point about its exponential cost.
DEFAULT_ENUMERATION_LIMIT = 200_000


def enumerate_envelope(
    space: AttributeSpace,
    predict_cell: Callable[[tuple[int, ...]], int],
    target: int,
    class_label: Value,
    cell_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> EnvelopeResult:
    """The naive generic algorithm: enumerate cells, cover the winners.

    Applicable to *any* classifier over the grid (the paper notes this
    generality), and exact by construction.  ``cell_limit`` refuses spaces
    whose enumeration would be intractable.
    """
    started = time.perf_counter()
    winning = [
        cell for cell in space.iter_cells(limit=cell_limit)
        if predict_cell(cell) == target
    ]
    regions = cover_cells(space, winning)
    predicate = intern(regions_to_predicate(regions, space))
    return EnvelopeResult(
        class_label=class_label,
        regions=tuple(regions),
        predicate=predicate,
        nodes_expanded=len(winning),
        ambiguous_kept=0,
        exact=True,
        seconds=time.perf_counter() - started,
    )


def enumerate_envelope_for_table(
    table: ScoreTable,
    class_label: Value,
    cell_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> EnvelopeResult:
    """Enumeration baseline specialized to an exact score table."""
    if not table.is_exact():
        raise EnvelopeError(
            "enumeration needs exact cell scores; interval tables (binned "
            "clustering) have no single per-cell winner"
        )
    target = table.class_index(class_label)
    return enumerate_envelope(
        table.space, table.predict_cell, target, class_label, cell_limit
    )


def envelope_grid_selectivity(
    result: EnvelopeResult, space: AttributeSpace, cell_limit: int = 1_000_000
) -> float:
    """Fraction of grid cells covered by the envelope (a tightness proxy).

    Note this is *uniform over cells*; the Figure 7 experiment instead
    measures selectivity over actual data rows, which is what matters for
    access-path selection.
    """
    total = space.cell_count()
    if total > cell_limit:
        raise EnvelopeError(
            f"space has {total} cells, above the counting limit"
        )
    covered = 0
    for cell in space.iter_cells(limit=cell_limit):
        if any(region.contains(cell) for region in result.regions):
            covered += 1
    return covered / total


@dataclass(frozen=True)
class EnumerationRow:
    """A3: one space size, enumeration vs top-down."""

    n_dims: int
    cells: int
    enumeration_seconds: float | None
    top_down_seconds: float
    selectivity_gap: float | None


def enumeration_comparison(
    dims_range: tuple[int, ...] = (3, 4, 5, 6),
    members_per_dim: int = 8,
    n_classes: int = 4,
    seed: int = 0,
    enumeration_cell_limit: int = 300_000,
) -> list[EnumerationRow]:
    """A3: naive enumerate-and-cover versus Algorithm 1.

    Random naive Bayes models over growing spaces; enumeration is skipped
    (``None``) once the cell count exceeds its limit — the paper's
    ">24 hours for just enumerating" observation in miniature.
    """
    rng = np.random.default_rng(seed)
    rows: list[EnumerationRow] = []
    for n_dims in dims_range:
        space = AttributeSpace(
            tuple(
                CategoricalDimension(
                    f"d{i}", tuple(f"m{j}" for j in range(members_per_dim))
                )
                for i in range(n_dims)
            )
        )
        priors = rng.dirichlet(np.ones(n_classes))
        conditionals = [
            rng.dirichlet(np.ones(members_per_dim), size=n_classes)
            for _ in range(n_dims)
        ]
        model = naive_bayes_from_tables(
            "ablation_nb",
            "cls",
            space,
            [f"c{k}" for k in range(n_classes)],
            priors.tolist(),
            [table.tolist() for table in conditionals],
        )
        table = score_table_from_naive_bayes(model)
        label = model.class_labels[0]

        started = time.perf_counter()
        top = derive_envelope(table, label, max_nodes=600)
        top_seconds = time.perf_counter() - started

        cells = space.cell_count()
        enum_seconds: float | None = None
        gap: float | None = None
        if cells <= enumeration_cell_limit:
            started = time.perf_counter()
            exact = enumerate_envelope_for_table(
                table, label, cell_limit=enumeration_cell_limit
            )
            enum_seconds = time.perf_counter() - started
            gap = envelope_grid_selectivity(
                top, space, enumeration_cell_limit
            ) - envelope_grid_selectivity(
                exact, space, enumeration_cell_limit
            )
        rows.append(
            EnumerationRow(
                n_dims=n_dims,
                cells=cells,
                enumeration_seconds=enum_seconds,
                top_down_seconds=top_seconds,
                selectivity_gap=gap,
            )
        )
    return rows


def print_ablations() -> str:
    """Print the A1-A5 ablation tables; returns the rendered text."""
    lines = ["A1 — node-budget sweep (naive Bayes envelopes):"]
    lines.append(
        format_table(
            ["Data set", "max_nodes", "Mean disjuncts", "Mean env. sel", "s"],
            [
                (
                    r.dataset,
                    r.max_nodes,
                    r.mean_disjuncts,
                    f"{r.mean_envelope_selectivity:.4f}",
                    f"{r.derive_seconds:.2f}",
                )
                for r in threshold_sweep()
            ],
        )
    )
    lines.append("")
    lines.append("A2 — Lemma 3.2 exact two-class bounds:")
    lines.append(
        format_table(
            ["Data set", "Bounds", "Mean env. sel", "# exact", "s"],
            [
                (
                    r.dataset,
                    r.mode,
                    f"{r.mean_envelope_selectivity:.4f}",
                    r.exact_count,
                    f"{r.derive_seconds:.2f}",
                )
                for r in bounds_comparison(
                    ("diabetes", "hypothyroid", "chess"),
                    train_size=1_000,
                    max_nodes=DEFAULT_CONFIG.max_nodes,
                )
            ],
        )
    )
    lines.append("")
    lines.append("A3 — enumeration baseline vs top-down (Algorithm 1):")
    lines.append(
        format_table(
            ["Dims", "Cells", "Enumerate s", "Top-down s", "Coverage gap"],
            [
                (
                    r.n_dims,
                    r.cells,
                    "skipped" if r.enumeration_seconds is None
                    else f"{r.enumeration_seconds:.2f}",
                    f"{r.top_down_seconds:.3f}",
                    "-" if r.selectivity_gap is None
                    else f"{r.selectivity_gap:.4f}",
                )
                for r in enumeration_comparison()
            ],
        )
    )
    lines.append("")
    lines.append("A4 — pairwise-difference bounds vs the paper's bounds:")
    lines.append(
        format_table(
            ["Data set", "Bounds", "Mean env. sel", "Mean orig. sel", "s"],
            [
                (
                    r.dataset,
                    r.mode,
                    f"{r.mean_envelope_selectivity:.4f}",
                    f"{r.mean_original_selectivity:.4f}",
                    f"{r.derive_seconds:.2f}",
                )
                for r in bounds_comparison(("shuttle", "anneal_u"))
            ],
        )
    )
    lines.append("")
    lines.append("A5 — envelope simplification (coarsen + prune):")
    lines.append(
        format_table(
            ["Variant", "Mean env. sel", "Mean atoms", "Mean disjuncts"],
            [
                (
                    r.variant,
                    f"{r.mean_envelope_selectivity:.4f}",
                    f"{r.mean_atoms:.0f}",
                    f"{r.mean_disjuncts:.0f}",
                )
                for r in simplification_comparison()
            ],
        )
    )
    text = "\n".join(lines)
    print(text)
    return text


def main() -> None:
    """CLI entry point for the ablation tables."""
    print_ablations()


if __name__ == "__main__":
    main()
