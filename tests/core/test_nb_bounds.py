"""Unit tests for region bounds, shrink, and entropy split."""

import itertools

import numpy as np
import pytest

from repro.core.derive import score_table_from_naive_bayes
from repro.core.nb_bounds import (
    RegionBounds,
    RegionStatus,
    entropy_split,
    shrink_region,
)
from repro.core.regions import AttributeSpace, CategoricalDimension, Region
from repro.core.score_model import ScoreTable
from repro.experiments.ablation import SeparateBounds
from repro.mining.naive_bayes import naive_bayes_from_tables


@pytest.fixture()
def table(paper_table1_nb):
    return score_table_from_naive_bayes(paper_table1_nb)


def label_index(table, label):
    return table.class_index(label)


class TestRegionBoundsSeparate:
    def test_paper_figure2_starting_region(self, table):
        """Figure 2(a): the full region is AMBIGUOUS for class c1.

        The expected minProb/maxProb follow the paper's formulas applied to
        Table 1's printed probabilities.  (The paper's own Figure 2 figures
        use ``Pr(m21|c2) = 0.01`` where Table 1 prints ``0.1`` — an internal
        typo in the paper; we follow the table.)
        """
        region = Region.full(table.space)
        target = label_index(table, "c1")
        bounds = SeparateBounds(table, region, target)
        assert np.exp(bounds.min_score) == pytest.approx(
            [0.33 * 0.05 * 0.01, 0.5 * 0.1 * 0.1, 0.17 * 0.05 * 0.05],
            rel=1e-9,
        )
        assert np.exp(bounds.max_score) == pytest.approx(
            [0.33 * 0.4 * 0.5, 0.5 * 0.4 * 0.7, 0.17 * 0.4 * 0.9],
            rel=1e-9,
        )
        assert bounds.status() is RegionStatus.AMBIGUOUS

    def test_paper_figure2_must_win_region(self, table):
        """Figure 2(d): region (d0:[0..1], d1:[0..1]) is MUST-WIN for c1...

        ...in the paper's narrative; with Table 1's actual numbers the
        winning sub-region for c1 is (d0:[0..1], d1:[1..2]), which the
        per-cell predictions confirm.  We assert that region's MUST-WIN.
        """
        region = Region(((0, 1), (1, 2)))
        target = label_index(table, "c1")
        status = SeparateBounds(table, region, target).status()
        assert status is RegionStatus.MUST_WIN

    def test_must_lose_region(self, table):
        # d1 = m01 (member 0) always predicts c2, so c1 loses there.
        region = Region(((0, 1, 2, 3), (0,)))
        target = label_index(table, "c1")
        status = SeparateBounds(table, region, target).status()
        assert status is RegionStatus.MUST_LOSE

    def test_statuses_consistent_with_cells(self, table):
        """MUST_WIN/MUST_LOSE verdicts must agree with per-cell predictions."""
        regions = [
            Region(((a, b), (c,)))
            for a in range(4)
            for b in range(4)
            if a < b
            for c in range(3)
        ]
        for target in range(3):
            for region in regions:
                status = SeparateBounds(table, region, target).status()
                cell_wins = [
                    table.predict_cell(cell) == target
                    for cell in region.iter_cells()
                ]
                if status is RegionStatus.MUST_WIN:
                    assert all(cell_wins), (region, target)
                elif status is RegionStatus.MUST_LOSE:
                    assert not any(cell_wins), (region, target)


class TestRegionBoundsPairwise:
    def test_pairwise_never_weaker_than_separate(self, table):
        """Pairwise verdicts refine separate ones, never contradict them."""
        for target in range(3):
            for a in range(4):
                for c in range(3):
                    region = Region(((a,), (c,)))
                    separate = SeparateBounds(table, region, target).status()
                    pairwise = RegionBounds(table, region, target).status()
                    if separate is not RegionStatus.AMBIGUOUS:
                        assert pairwise is separate

    def test_pairwise_exact_on_cells(self, table):
        """With exact scores, single-cell regions are never ambiguous."""
        for target in range(3):
            for cell in table.space.iter_cells():
                region = Region(tuple((m,) for m in cell))
                status = RegionBounds(table, region, target).status()
                predicted = table.predict_cell(cell)
                if predicted == target:
                    assert status is RegionStatus.MUST_WIN
                else:
                    assert status is RegionStatus.MUST_LOSE

    def test_soundness_on_larger_regions(self, table):
        for target in range(3):
            region = Region(((0, 1, 2), (0, 1)))
            status = RegionBounds(table, region, target).status()
            cell_wins = [
                table.predict_cell(cell) == target
                for cell in region.iter_cells()
            ]
            if status is RegionStatus.MUST_WIN:
                assert all(cell_wins)
            elif status is RegionStatus.MUST_LOSE:
                assert not any(cell_wins)


    def test_two_class_verdicts_equal_lemma_3_2(self):
        """At K=2 the pairwise verdicts are the paper's exact ones.

        Lemma 3.2 rewrites each score as the log-ratio against the single
        opponent and applies the separate bounds to that table.  On every
        region of small random two-class models, ``status()`` and the
        shrink step's ``members_must_lose`` agree with it exactly.
        """
        rng = np.random.default_rng(7)
        for _ in range(12):
            sizes = rng.integers(2, 4, size=rng.integers(2, 4))
            space = AttributeSpace(
                tuple(
                    CategoricalDimension(
                        f"d{i}", tuple(f"v{j}" for j in range(size))
                    )
                    for i, size in enumerate(sizes)
                )
            )
            model = naive_bayes_from_tables(
                "nb2",
                "cls",
                space,
                ["c0", "c1"],
                rng.dirichlet(np.ones(2)).tolist(),
                [
                    rng.dirichlet(np.ones(size) * 0.6, size=2).tolist()
                    for size in sizes
                ],
            )
            table = score_table_from_naive_bayes(model)
            subsets = [
                [
                    members
                    for r in range(1, size + 1)
                    for members in itertools.combinations(range(size), r)
                ]
                for size in sizes
            ]
            for target in (0, 1):
                ratio = _lemma_3_2_table(table, target)
                for members in itertools.product(*subsets):
                    region = Region(members)
                    product = RegionBounds(table, region, target)
                    paper = SeparateBounds(ratio, region, target)
                    assert product.status() is paper.status(), region
                    for d, dim_members in enumerate(members):
                        index = np.asarray(dim_members)
                        assert np.array_equal(
                            product.members_must_lose(d, index),
                            paper.members_must_lose(d, index),
                        ), (region, d)


def _lemma_3_2_table(table, target):
    """Paper Lemma 3.2 for K=2: scores become log-ratios to the opponent."""
    other = 1 - target
    lo, hi = [], []
    for lo_d, hi_d in zip(table.lo, table.hi):
        ratio_lo = np.zeros_like(lo_d)
        ratio_hi = np.zeros_like(hi_d)
        ratio_lo[target] = lo_d[target] - hi_d[other]
        ratio_hi[target] = hi_d[target] - lo_d[other]
        lo.append(ratio_lo)
        hi.append(ratio_hi)
    biases = np.zeros(2)
    biases[target] = table.biases[target] - table.biases[other]
    return ScoreTable(
        table.space, table.class_labels, biases, lo, hi,
        tie_ranks=table.tie_ranks,
    )


class TestShrink:
    def test_shrink_drops_losing_members(self, table):
        """Figure 2(b/c): shrinking the full region for c1 drops d1=m21...

        With Table 1's actual numbers the member dropped for c1 is m01
        (where c2 always wins); the shrunk region must keep every c1 cell.
        """
        target = label_index(table, "c1")
        region = Region.full(table.space)
        shrunk = shrink_region(table, region, target)
        assert shrunk is not None
        for cell in table.space.iter_cells():
            if table.predict_cell(cell) == target:
                assert shrunk.contains(cell)
        assert shrunk.cell_count() < region.cell_count()

    def test_shrink_to_empty_returns_none(self, table):
        # Region entirely inside c2 territory shrinks to nothing for c3.
        target = label_index(table, "c3")
        region = Region(((0, 1), (0,)))
        assert shrink_region(table, region, target) is None

    def test_shrink_preserves_region_without_change(self, table):
        target = label_index(table, "c1")
        region = Region(((0, 1), (1, 2)))  # pure c1 region
        shrunk = shrink_region(table, region, target)
        assert shrunk == region


class TestEntropySplit:
    def test_split_returns_valid_partition(self, table):
        region = Region.full(table.space)
        split = entropy_split(table, region, 0)
        assert split is not None
        dim, left = split
        members = set(region.members[dim])
        assert set(left) < members
        assert left

    def test_single_cell_cannot_split(self, table):
        region = Region(((0,), (0,)))
        assert entropy_split(table, region, 0) is None

    def test_split_separates_classes(self, table):
        """On Table 1, d1 separates c2 (m01) well from c1; the chosen cut
        should isolate class structure rather than split arbitrarily."""
        target = label_index(table, "c2")
        region = Region.full(table.space)
        split = entropy_split(table, region, target)
        assert split is not None
