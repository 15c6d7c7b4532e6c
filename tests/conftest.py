"""Shared fixtures: small datasets, trained models, and catalogs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.catalog import ModelCatalog
from repro.core.regions import (
    AttributeSpace,
    BinnedDimension,
    CategoricalDimension,
    OrdinalDimension,
)
from repro.mining.decision_tree import DecisionTreeLearner
from repro.mining.kmeans import KMeansLearner
from repro.mining.naive_bayes import NaiveBayesLearner, naive_bayes_from_tables
from repro.mining.rules import RuleLearner
from repro.sql.compiler import select_statement


@pytest.fixture(scope="session")
def paper_table1_nb():
    """The naive Bayes classifier of the paper's Table 1, verbatim."""
    space = AttributeSpace(
        (
            CategoricalDimension("d0", ("m00", "m10", "m20", "m30")),
            CategoricalDimension("d1", ("m01", "m11", "m21")),
        )
    )
    priors = [0.33, 0.5, 0.17]
    d0 = [
        [0.4, 0.4, 0.05, 0.05],
        [0.1, 0.1, 0.4, 0.4],
        [0.05, 0.05, 0.4, 0.4],
    ]
    d1 = [
        [0.01, 0.5, 0.49],
        [0.7, 0.29, 0.1],
        [0.05, 0.05, 0.9],
    ]
    return naive_bayes_from_tables(
        "table1", "cls", space, ["c1", "c2", "c3"], priors, [d0, d1]
    )


def make_customer_rows(n: int = 400, seed: int = 7) -> list[dict]:
    """A small 'customers' dataset with a learnable risk label.

    Risk is 'high' for young customers with low income, 'low' for older
    affluent ones, 'medium' otherwise — with a little label noise.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        age = int(rng.integers(18, 80))
        income = float(rng.uniform(10_000, 120_000))
        gender = str(rng.choice(["female", "male"]))
        region = str(rng.choice(["north", "south", "east", "west"]))
        if age < 32 and income < 40_000:
            risk = "high"
        elif age > 55 and income > 70_000:
            risk = "low"
        else:
            risk = "medium"
        if rng.random() < 0.03:
            risk = str(rng.choice(["high", "medium", "low"]))
        rows.append(
            {
                "age": age,
                "income": income,
                "gender": gender,
                "region": region,
                "risk": risk,
            }
        )
    return rows


CUSTOMER_FEATURES = ("age", "income", "gender", "region")


def reference_rows(db, catalog, query) -> list[dict]:
    """What ``query`` returns under the reference semantics (paper §2.1):
    fetch by the relational predicate, keep the rows
    :meth:`MiningQuery.evaluate` accepts — one scalar ``predict`` per
    model and row, in scan order.  Every executor parity test compares
    against this."""
    fetched = db.query_rows(
        select_statement(query.table, query.relational_predicate)
    )
    return [row for row in fetched if query.evaluate(row, catalog)]


@pytest.fixture(scope="session")
def customer_rows():
    return make_customer_rows()


@pytest.fixture(scope="session")
def customer_tree(customer_rows):
    return DecisionTreeLearner(
        CUSTOMER_FEATURES, "risk", max_depth=6, name="risk_tree"
    ).fit(customer_rows)


@pytest.fixture(scope="session")
def customer_nb(customer_rows):
    return NaiveBayesLearner(
        CUSTOMER_FEATURES, "risk", bins=5, name="risk_nb"
    ).fit(customer_rows)


@pytest.fixture(scope="session")
def customer_rules(customer_rows):
    return RuleLearner(
        CUSTOMER_FEATURES, "risk", name="risk_rules"
    ).fit(customer_rows)


@pytest.fixture(scope="session")
def customer_kmeans(customer_rows):
    return KMeansLearner(
        ("age", "income"), 3, name="risk_kmeans"
    ).fit(customer_rows)


@pytest.fixture(scope="session")
def customer_catalog(customer_rows, customer_tree, customer_nb):
    catalog = ModelCatalog()
    catalog.register(customer_tree)
    catalog.register(customer_nb)
    return catalog


@pytest.fixture()
def small_space():
    """A 3-dimensional mixed space used by region/covering tests."""
    return AttributeSpace(
        (
            CategoricalDimension("color", ("blue", "green", "red")),
            OrdinalDimension("size", (1, 2, 3, 4)),
            BinnedDimension("weight", (10.0, 20.0)),
        )
    )
