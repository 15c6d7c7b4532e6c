"""Unit tests for score tables and the quadratic-range helper."""

import math

import numpy as np
import pytest

from repro.core.regions import AttributeSpace, CategoricalDimension
from repro.core.score_model import ScoreTable, quadratic_range
from repro.core.derive import score_table_from_naive_bayes
from repro.exceptions import EnvelopeError


@pytest.fixture()
def tiny_table():
    space = AttributeSpace(
        (
            CategoricalDimension("a", ("x", "y")),
            CategoricalDimension("b", ("p", "q", "r")),
        )
    )
    lo = [
        np.array([[0.0, 1.0], [2.0, -1.0]]),
        np.array([[0.5, 0.0, -0.5], [0.0, 0.0, 1.0]]),
    ]
    hi = [table.copy() for table in lo]
    return ScoreTable(space, ("c0", "c1"), np.array([0.1, -0.1]), lo, hi)


class TestScoreTable:
    def test_shapes_validated(self, tiny_table):
        space = tiny_table.space
        with pytest.raises(EnvelopeError):
            ScoreTable(
                space,
                ("c0", "c1"),
                np.zeros(2),
                [np.zeros((2, 2))],  # missing a dimension
                [np.zeros((2, 2))],
            )

    def test_lo_above_hi_rejected(self, tiny_table):
        space = tiny_table.space
        lo = [np.ones((2, 2)), np.zeros((2, 3))]
        hi = [np.zeros((2, 2)), np.zeros((2, 3))]
        with pytest.raises(EnvelopeError):
            ScoreTable(space, ("c0", "c1"), np.zeros(2), lo, hi)

    def test_is_exact(self, tiny_table):
        assert tiny_table.is_exact()

    def test_cell_scores(self, tiny_table):
        scores = tiny_table.cell_scores((1, 2))
        assert scores == pytest.approx([0.1 + 1.0 - 0.5, -0.1 - 1.0 + 1.0])

    def test_predict_cell(self, tiny_table):
        assert tiny_table.predict_cell((1, 2)) == 0
        assert tiny_table.predict_cell((0, 2)) == 1

    def test_predict_cell_tie_break(self):
        space = AttributeSpace((CategoricalDimension("a", ("x",)),))
        lo = [np.zeros((2, 1))]
        table = ScoreTable(
            space,
            ("c0", "c1"),
            np.zeros(2),
            lo,
            [t.copy() for t in lo],
            tie_ranks=(1, 0),
        )
        # Scores tie; class c1 has the better (smaller) tie rank.
        assert table.predict_cell((0,)) == 1

    def test_class_index(self, tiny_table):
        assert tiny_table.class_index("c1") == 1
        with pytest.raises(EnvelopeError):
            tiny_table.class_index("nope")

    def test_diff_bounds_fallback(self, tiny_table):
        diff_lo, diff_hi = tiny_table.diff_bounds(0)
        # Exact table: diff bounds collapse to the true differences.
        assert diff_lo[0, 1, 0] == pytest.approx(0.0 - 2.0)
        assert diff_hi[0, 1, 0] == pytest.approx(0.0 - 2.0)
        assert diff_lo[1, 0, 1] == pytest.approx(-1.0 - 1.0)

    def test_diff_tables_validated(self, tiny_table):
        space = tiny_table.space
        with pytest.raises(EnvelopeError):
            ScoreTable(
                space,
                ("c0", "c1"),
                np.zeros(2),
                tiny_table.lo,
                tiny_table.hi,
                diff_lo=[np.zeros((2, 2, 2)), np.zeros((2, 2, 3))],
                diff_hi=None,  # must come together
            )

    def test_interval_table_rejects_cell_scores(self):
        space = AttributeSpace((CategoricalDimension("a", ("x",)),))
        lo = [np.array([[0.0]])]
        hi = [np.array([[1.0]])]
        table = ScoreTable(space, ("c0",), np.zeros(1), lo, hi)
        assert not table.is_exact()
        with pytest.raises(EnvelopeError):
            table.cell_scores((0,))


class TestScoreTableFromNaiveBayes(object):
    def test_matches_model_predictions(self, paper_table1_nb):
        table = score_table_from_naive_bayes(paper_table1_nb)
        for cell in paper_table1_nb.space.iter_cells():
            assert table.predict_cell(cell) == paper_table1_nb.predict_cell(
                cell
            )

    def test_tie_ranks_follow_priors(self, paper_table1_nb):
        table = score_table_from_naive_bayes(paper_table1_nb)
        # Priors: c2 (0.5) > c1 (0.33) > c3 (0.17).
        assert table.tie_ranks[1] < table.tie_ranks[0] < table.tie_ranks[2]


class TestQuadraticRange:
    def test_linear_on_interval(self):
        low, high = quadratic_range(0.0, 2.0, 1.0, 0.0, 3.0)
        assert low == pytest.approx(1.0)
        assert high == pytest.approx(7.0)

    def test_parabola_vertex_inside(self):
        low, high = quadratic_range(1.0, -4.0, 0.0, 0.0, 5.0)
        assert low == pytest.approx(-4.0)  # vertex at x=2
        assert high == pytest.approx(5.0)  # at x=5

    def test_parabola_vertex_outside(self):
        low, high = quadratic_range(1.0, -4.0, 0.0, 3.0, 5.0)
        assert low == pytest.approx(-3.0)  # at x=3
        assert high == pytest.approx(5.0)

    def test_unbounded_left_positive_quadratic(self):
        low, high = quadratic_range(1.0, 0.0, 0.0, None, 1.0)
        assert low == pytest.approx(0.0)  # vertex at 0
        assert high == math.inf

    def test_unbounded_right_negative_quadratic(self):
        low, high = quadratic_range(-1.0, 0.0, 0.0, 0.0, None)
        assert low == -math.inf
        assert high == pytest.approx(0.0)

    def test_unbounded_linear(self):
        low, high = quadratic_range(0.0, 1.0, 0.0, None, 0.0)
        assert low == -math.inf
        assert high == pytest.approx(0.0)
        low, high = quadratic_range(0.0, -1.0, 0.0, None, 0.0)
        assert low == pytest.approx(0.0)
        assert high == math.inf

    def test_constant(self):
        low, high = quadratic_range(0.0, 0.0, 3.5, None, None)
        assert low == pytest.approx(3.5)
        assert high == pytest.approx(3.5)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = rng.uniform(-2, 2, size=3)
            lo_edge, hi_edge = sorted(rng.uniform(-5, 5, size=2))
            xs = np.linspace(lo_edge, hi_edge, 501)
            values = a * xs * xs + b * xs + c
            low, high = quadratic_range(a, b, c, lo_edge, hi_edge)
            assert low <= values.min() + 1e-9
            assert high >= values.max() - 1e-9
