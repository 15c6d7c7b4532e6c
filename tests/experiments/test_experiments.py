"""Tests for the experiment harness and per-artifact runners (smoke scale)."""

import pytest

from repro.experiments import SMOKE_CONFIG, dataset_for, run_all, train_family
from repro.experiments.ablation import (
    bounds_comparison,
    enumeration_comparison,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import numeric_feature_columns
from repro.experiments.overhead import overhead_rows
from repro.experiments.tables import (
    PAPER_PLAN_CHANGE,
    PAPER_RUNTIME_REDUCTION,
    table2_rows,
    table3_runtime_reduction,
    table4_plan_change,
)
from repro.experiments.figures import (
    figure6_selectivity,
    figure7_tightness,
    figure_plan_change,
)
from repro.workload.measurement import FAMILIES


@pytest.fixture(scope="module")
def measurements():
    return run_all(SMOKE_CONFIG)


class TestHarness:
    def test_measurement_count(self, measurements):
        # One measurement per (dataset, family, class/cluster).
        expected = 0
        for name in SMOKE_CONFIG.datasets:
            dataset = dataset_for(SMOKE_CONFIG, name)
            for family in SMOKE_CONFIG.families:
                trained = train_family(dataset, family, SMOKE_CONFIG)
                expected += len(trained.model.class_labels)
        assert len(measurements) == expected

    def test_cached(self, measurements):
        assert run_all(SMOKE_CONFIG) is measurements

    def test_all_families_present(self, measurements):
        assert {m.family for m in measurements} == set(FAMILIES)

    def test_exact_tree_envelopes_have_equal_selectivities(
        self, measurements
    ):
        for m in measurements:
            if m.family == "decision_tree" and not m.envelope_is_false:
                assert m.envelope_selectivity == pytest.approx(
                    m.original_selectivity, abs=1e-9
                )

    def test_envelope_soundness_implied_by_selectivities(
        self, measurements
    ):
        """An upper envelope can never be MORE selective than the class."""
        for m in measurements:
            assert (
                m.envelope_selectivity
                >= m.original_selectivity - 1e-9
            ), m

    def test_numeric_feature_columns(self):
        dataset = dataset_for(SMOKE_CONFIG, "hypothyroid")
        numeric = numeric_feature_columns(dataset)
        assert "age" in numeric
        assert "sex" not in numeric


class TestTables:
    def test_table2_matches_spec(self):
        rows = table2_rows(SMOKE_CONFIG)
        assert len(rows) == len(SMOKE_CONFIG.datasets)
        for row in rows:
            assert row.test_size >= SMOKE_CONFIG.rows_target
            assert row.test_size % row.train_size == 0

    def test_table3_families(self, measurements):
        result = table3_runtime_reduction(
            SMOKE_CONFIG, measurements=measurements
        )
        assert set(result) <= set(PAPER_RUNTIME_REDUCTION)
        for value in result.values():
            assert -100.0 <= value <= 100.0

    def test_table4_families(self, measurements):
        result = table4_plan_change(SMOKE_CONFIG, measurements=measurements)
        assert set(result) <= set(PAPER_PLAN_CHANGE)
        for value in result.values():
            assert 0.0 <= value <= 100.0


class TestFigures:
    @pytest.mark.parametrize("figure", [3, 4, 5])
    def test_plan_change_figures(self, figure, measurements):
        series = figure_plan_change(
            figure, SMOKE_CONFIG, measurements=measurements
        )
        assert set(series) == set(SMOKE_CONFIG.datasets)

    def test_figure6_buckets(self, measurements):
        rows = figure6_selectivity(SMOKE_CONFIG, measurements=measurements)
        assert [r.bucket for r in rows] == ["<1%", "1-10%", "10-50%", ">50%"]
        assert sum(r.original_count for r in rows) == len(measurements)

    def test_figure7_points(self, measurements):
        points = figure7_tightness(SMOKE_CONFIG, measurements=measurements)
        assert points
        for point in points:
            assert point.family in ("naive_bayes", "clustering")
            assert (
                point.envelope_selectivity
                >= point.original_selectivity - 1e-9
            )


class TestOverhead:
    def test_rows_cover_config(self):
        config = ExperimentConfig(
            rows_target=2000,
            train_cap=200,
            nb_bins=4,
            cluster_bins=4,
            max_nodes=100,
            datasets=("diabetes",),
        )
        rows = overhead_rows(config)
        assert len(rows) == 3
        for row in rows:
            assert row.train_seconds >= 0
            assert row.derive_seconds >= 0
            assert row.optimize_seconds >= 0


class TestAblations:
    def test_two_class_comparison_shapes(self):
        config = ExperimentConfig(
            train_cap=200, nb_bins=4, max_nodes=100
        )
        rows = bounds_comparison(
            datasets=("diabetes",), config=config, train_size=1_000,
            max_nodes=config.max_nodes,
        )
        assert [r.mode for r in rows] == ["separate", "pairwise"]

    def test_enumeration_comparison(self):
        rows = enumeration_comparison(dims_range=(2, 3), members_per_dim=4)
        assert len(rows) == 2
        for row in rows:
            assert row.enumeration_seconds is not None
            # Enumeration is exact: the top-down gap is never negative.
            assert row.selectivity_gap is not None
            assert row.selectivity_gap >= -1e-9

    def test_enumeration_skipped_when_too_large(self):
        rows = enumeration_comparison(
            dims_range=(8,),
            members_per_dim=8,
            enumeration_cell_limit=10_000,
        )
        assert rows[0].enumeration_seconds is None
