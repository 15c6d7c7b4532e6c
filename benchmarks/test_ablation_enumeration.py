"""A3 — baseline: naive enumerate-and-cover versus Algorithm 1.

Paper Section 3.2.2: "it is impractically slow to enumerate all
``prod n_d`` member combinations.  A medium sized data set in our
experiments took more than 24 hours for just enumerating the
combinations."  The ablation grows the attribute space and compares the
two algorithms.  Where both run, enumeration is the faster one (at 5 dims,
32,768 cells, about 2 s against about 50 s for the top-down search, most of
it coarsening the result to 48 disjuncts); past the enumeration guard the
baseline is refused outright while the top-down algorithm still answers in
a few seconds — the ">24 hours" cliff in miniature.
"""

from repro.experiments.ablation import enumeration_comparison
from repro.workload.report import format_table


def test_a3_enumeration_cliff(benchmark):
    rows = benchmark.pedantic(
        enumeration_comparison,
        kwargs=dict(
            dims_range=(3, 4, 5, 7),
            members_per_dim=8,
            enumeration_cell_limit=40_000,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            ["Dims", "Cells", "Enumerate s", "Top-down s", "Coverage gap"],
            [
                (
                    r.n_dims,
                    r.cells,
                    "refused" if r.enumeration_seconds is None
                    else f"{r.enumeration_seconds:.3f}",
                    f"{r.top_down_seconds:.3f}",
                    "-" if r.selectivity_gap is None
                    else f"{r.selectivity_gap:.4f}",
                )
                for r in rows
            ],
        )
    )
    small = [r for r in rows if r.enumeration_seconds is not None]
    large = [r for r in rows if r.enumeration_seconds is None]
    assert small, "no space was small enough to enumerate"
    assert large, "no space exceeded the enumeration guard"
    # Where both run, the top-down result is sound (non-negative coverage
    # gap versus the exact enumeration).
    for row in small:
        assert row.selectivity_gap is not None
        assert row.selectivity_gap >= -1e-9
    # The top-down algorithm keeps working where enumeration is refused.
    for row in large:
        assert row.top_down_seconds < 30.0
