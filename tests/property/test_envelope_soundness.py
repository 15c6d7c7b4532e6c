"""Property-based tests of the upper-envelope contract (hypothesis).

The paper's correctness requirement (Section 1): for every class ``c`` of
model ``M``, ``predict(x) = c`` implies ``M_c(x)``.  These tests generate
random models of every supported family and check the contract over the
full grid (naive Bayes) or random rows (others), plus the exactness claims
the paper makes for decision trees and the K=2 bounds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.derive import (
    naive_bayes_envelopes,
    score_table_from_naive_bayes,
)
from repro.core.nb_bounds import RegionBounds
from repro.core.nb_envelope import derive_envelope
from repro.core.regions import AttributeSpace, CategoricalDimension
from repro.core.tree_envelope import tree_envelopes
from repro.core.rule_envelope import rule_envelopes
from repro.experiments.ablation import (
    SeparateBounds,
    enumerate_envelope_for_table,
)
from repro.mining.decision_tree import DecisionTreeLearner
from repro.mining.naive_bayes import naive_bayes_from_tables
from repro.mining.rules import RuleLearner


@st.composite
def random_naive_bayes(draw):
    """A random discrete NB model over 2-4 categorical dimensions."""
    n_classes = draw(st.integers(2, 4))
    n_dims = draw(st.integers(2, 4))
    sizes = [draw(st.integers(2, 4)) for _ in range(n_dims)]
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    space = AttributeSpace(
        tuple(
            CategoricalDimension(
                f"d{i}", tuple(f"v{j}" for j in range(sizes[i]))
            )
            for i in range(n_dims)
        )
    )
    priors = rng.dirichlet(np.ones(n_classes) * 0.8)
    conditionals = [
        rng.dirichlet(np.ones(size) * 0.6, size=n_classes)
        for size in sizes
    ]
    model = naive_bayes_from_tables(
        "random_nb",
        "cls",
        space,
        [f"c{k}" for k in range(n_classes)],
        priors.tolist(),
        [table.tolist() for table in conditionals],
    )
    return model


def row_for_cell(model, cell):
    return {
        dim.name: dim.values[member]
        for dim, member in zip(model.space.dimensions, cell)
    }


class TestNaiveBayesSoundness:
    @given(random_naive_bayes(), st.sampled_from([0, 8, 64, 512]))
    @settings(max_examples=40, deadline=None)
    def test_envelope_covers_every_predicted_cell(self, model, budget):
        """Soundness holds for ANY node budget, including zero."""
        table = score_table_from_naive_bayes(model)
        envelopes = {
            label: derive_envelope(table, label, max_nodes=budget)
            for label in model.class_labels
        }
        for cell in model.space.iter_cells():
            row = row_for_cell(model, cell)
            label = model.predict(row)
            assert envelopes[label].predicate.evaluate(row), (label, row)

    @given(
        random_naive_bayes(),
        st.sampled_from([SeparateBounds, RegionBounds]),
    )
    @settings(max_examples=40, deadline=None)
    def test_soundness_under_both_bound_modes(self, model, bounds):
        table = score_table_from_naive_bayes(model)
        for label in model.class_labels:
            result = derive_envelope(table, label, bounds=bounds)
            target = table.class_index(label)
            for cell in model.space.iter_cells():
                if table.predict_cell(cell) == target:
                    assert result.predicate.evaluate(row_for_cell(model, cell))

    @given(random_naive_bayes())
    @settings(max_examples=25, deadline=None)
    def test_full_budget_matches_enumeration(self, model):
        """With an ample budget the top-down result equals the exact
        enumerate-and-cover result cell for cell."""
        table = score_table_from_naive_bayes(model)
        for label in model.class_labels:
            derived = derive_envelope(
                table, label, max_nodes=4096, max_regions=None
            )
            exact = enumerate_envelope_for_table(table, label)
            for cell in model.space.iter_cells():
                row = row_for_cell(model, cell)
                assert derived.predicate.evaluate(
                    row
                ) == exact.predicate.evaluate(row), (label, row)

    @given(random_naive_bayes())
    @settings(max_examples=25, deadline=None)
    def test_class_envelopes_cover_grid(self, model):
        """The per-class envelopes jointly cover the whole space."""
        envelopes = naive_bayes_envelopes(model)
        for cell in model.space.iter_cells():
            row = row_for_cell(model, cell)
            assert any(
                e.predicate.evaluate(row) for e in envelopes.values()
            )

    @given(random_naive_bayes())
    @settings(max_examples=20, deadline=None)
    def test_two_class_exactness(self, model):
        """Lemma 3.2: for K=2 the fully-refined envelope is exact."""
        if len(model.class_labels) != 2:
            return
        table = score_table_from_naive_bayes(model)
        for label in model.class_labels:
            result = derive_envelope(
                table, label, max_nodes=4096, max_regions=None
            )
            target = table.class_index(label)
            for cell in model.space.iter_cells():
                row = row_for_cell(model, cell)
                assert result.predicate.evaluate(row) == (
                    table.predict_cell(cell) == target
                )


def random_rows(rng, n, n_numeric, n_categorical):
    rows = []
    for _ in range(n):
        row = {}
        for i in range(n_numeric):
            row[f"num{i}"] = float(np.round(rng.uniform(0, 100), 3))
        for i in range(n_categorical):
            row[f"cat{i}"] = str(rng.choice(["a", "b", "c"]))
        row["label"] = str(rng.choice(["x", "y", "z"]))
        rows.append(row)
    return rows


class TestTreeSoundnessOnRandomData:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 3),
        st.integers(0, 2),
        st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_exactness(self, seed, n_numeric, n_categorical, depth):
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, 60, n_numeric, n_categorical)
        features = [f"num{i}" for i in range(n_numeric)] + [
            f"cat{i}" for i in range(n_categorical)
        ]
        model = DecisionTreeLearner(
            features, "label", max_depth=depth
        ).fit(rows)
        envelopes = tree_envelopes(model)
        probes = random_rows(rng, 80, n_numeric, n_categorical)
        for row in rows + probes:
            predicted = model.predict(row)
            for label, envelope in envelopes.items():
                assert envelope.predicate.evaluate(row) == (
                    predicted == label
                )


class TestRuleSoundnessOnRandomData:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_upper_envelope_and_tightened_exactness(self, seed):
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, 80, 2, 1)
        model = RuleLearner(("num0", "num1", "cat0"), "label").fit(rows)
        plain = rule_envelopes(model)
        tightened = rule_envelopes(model, tighten=True)
        probes = random_rows(rng, 60, 2, 1)
        for row in rows + probes:
            predicted = model.predict(row)
            assert plain[predicted].predicate.evaluate(row)
            for label, envelope in tightened.items():
                assert envelope.predicate.evaluate(row) == (
                    predicted == label
                )
