"""Unit tests for Algorithm 1 (top-down envelope derivation)."""

import pytest

from repro.core.derive import score_table_from_naive_bayes
from repro.core.nb_bounds import RegionBounds
from repro.core.nb_envelope import derive_envelope
from repro.core.predicates import FalsePredicate
from repro.exceptions import EnvelopeError
from repro.experiments.ablation import (
    SeparateBounds,
    enumerate_envelope_for_table,
    envelope_grid_selectivity,
)


@pytest.fixture()
def table(paper_table1_nb):
    return score_table_from_naive_bayes(paper_table1_nb)


def row_for_cell(model, cell):
    return {
        dim.name: dim.values[member]
        for dim, member in zip(model.space.dimensions, cell)
    }


def assert_sound(model, table, result):
    """Every cell predicted as the class must satisfy the envelope."""
    target = table.class_index(result.class_label)
    for cell in table.space.iter_cells():
        if table.predict_cell(cell) == target:
            row = row_for_cell(model, cell)
            assert result.predicate.evaluate(row), (result.class_label, row)


class TestDeriveEnvelope:
    @pytest.mark.parametrize("label", ["c1", "c2", "c3"])
    @pytest.mark.parametrize(
        "bounds",
        [SeparateBounds, RegionBounds],
        ids=["BoundsMode.SEPARATE", "BoundsMode.PAIRWISE"],
    )
    def test_soundness(self, paper_table1_nb, table, label, bounds):
        result = derive_envelope(table, label, bounds=bounds)
        assert_sound(paper_table1_nb, table, result)

    def test_paper_worked_example_exact(self, paper_table1_nb, table):
        """On Table 1 the search fully resolves: envelopes are exact."""
        for label in ("c1", "c2", "c3"):
            result = derive_envelope(table, label)
            assert result.exact
            target = table.class_index(label)
            for cell in table.space.iter_cells():
                row = row_for_cell(paper_table1_nb, cell)
                assert result.predicate.evaluate(row) == (
                    table.predict_cell(cell) == target
                )

    def test_paper_envelope_for_c2(self, paper_table1_nb, table):
        """Section 3.2.2's stated envelope of c2:
        (d0 in {m20, m30} AND d1 in {m01, m11}) OR (d1 = m01)."""
        result = derive_envelope(table, "c2")
        expected_cells = {
            (0, 0), (1, 0), (2, 0), (3, 0),  # d1 = m01 column
            (2, 1), (3, 1),                  # d0 in {m20,m30}, d1 = m11
        }
        actual = {
            cell
            for cell in table.space.iter_cells()
            if result.predicate.evaluate(row_for_cell(paper_table1_nb, cell))
        }
        assert actual == expected_cells

    def test_zero_budget_keeps_sound_envelope(self, paper_table1_nb, table):
        result = derive_envelope(table, "c1", max_nodes=0)
        assert_sound(paper_table1_nb, table, result)
        assert not result.exact or result.ambiguous_kept == 0

    def test_max_regions_cap(self, table):
        result = derive_envelope(table, "c2", max_regions=1)
        assert len(result.regions) <= 1

    def test_negative_budget_rejected(self, table):
        with pytest.raises(EnvelopeError):
            derive_envelope(table, "c1", max_nodes=-1)

    def test_unknown_label_rejected(self, table):
        with pytest.raises(EnvelopeError):
            derive_envelope(table, "nope")

    def test_unreachable_class_gives_false(self):
        """A class whose prior is vanishingly small never wins anywhere."""
        from repro.core.regions import AttributeSpace, CategoricalDimension
        from repro.mining.naive_bayes import naive_bayes_from_tables

        space = AttributeSpace((CategoricalDimension("a", ("x", "y")),))
        model = naive_bayes_from_tables(
            "m",
            "cls",
            space,
            ["big", "tiny"],
            [0.999999, 0.000001],
            [[[0.5, 0.5], [0.5, 0.5]]],
        )
        table = score_table_from_naive_bayes(model)
        result = derive_envelope(table, "tiny")
        assert result.is_empty
        assert isinstance(result.predicate, FalsePredicate)


class TestDeriveAllEnvelopes:
    def test_partition_coverage(self, paper_table1_nb, table):
        """Per-class envelopes must jointly cover the whole grid."""
        envelopes = {
            label: derive_envelope(table, label)
            for label in table.class_labels
        }
        for cell in table.space.iter_cells():
            row = row_for_cell(paper_table1_nb, cell)
            assert any(
                result.predicate.evaluate(row)
                for result in envelopes.values()
            )


class TestEnumerationBaseline:
    def test_matches_topdown_on_table1(self, paper_table1_nb, table):
        for label in ("c1", "c2", "c3"):
            enumerated = enumerate_envelope_for_table(table, label)
            derived = derive_envelope(table, label)
            target = table.class_index(label)
            for cell in table.space.iter_cells():
                row = row_for_cell(paper_table1_nb, cell)
                expected = table.predict_cell(cell) == target
                assert enumerated.predicate.evaluate(row) == expected
                assert derived.predicate.evaluate(row) == expected

    def test_cell_limit_guard(self, table):
        with pytest.raises(Exception):
            enumerate_envelope_for_table(table, "c1", cell_limit=3)

    def test_enumeration_rejects_interval_tables(self):
        import numpy as np

        from repro.core.regions import AttributeSpace, CategoricalDimension
        from repro.core.score_model import ScoreTable

        space = AttributeSpace((CategoricalDimension("a", ("x",)),))
        table = ScoreTable(
            space,
            ("c0",),
            np.zeros(1),
            [np.array([[0.0]])],
            [np.array([[1.0]])],
        )
        with pytest.raises(EnvelopeError):
            enumerate_envelope_for_table(table, "c0")


class TestGridSelectivity:
    def test_exact_envelope_selectivity(self, table):
        result = derive_envelope(table, "c2")
        fraction = envelope_grid_selectivity(result, table.space)
        wins = sum(
            1
            for cell in table.space.iter_cells()
            if table.predict_cell(cell) == table.class_index("c2")
        )
        assert fraction == pytest.approx(wins / table.space.cell_count())
