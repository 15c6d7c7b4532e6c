"""A4 — ablation: pairwise-difference bounds versus the paper's bounds.

The pairwise bounds generalize Lemma 3.2's two-class exactness to every
opponent pair (see DESIGN.md).  At an equal node budget on multi-class
datasets they must never be looser than the paper's separate
minProb/maxProb bounds — per-region they are provably at least as tight —
and in practice they are what makes rare-class envelopes usable.
"""

from repro.experiments.ablation import bounds_comparison
from repro.workload.report import format_table


def test_a4_pairwise_bounds_tighter(config, benchmark):
    rows = benchmark.pedantic(
        bounds_comparison,
        kwargs=dict(
            datasets=("shuttle", "anneal_u"),
            config=config,
            train_size=4_000,
            max_nodes=300,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            ["Data set", "Bounds", "Mean env sel", "Mean orig sel", "s"],
            [
                (
                    r.dataset,
                    r.mode,
                    f"{r.mean_envelope_selectivity:.4f}",
                    f"{r.mean_original_selectivity:.4f}",
                    f"{r.derive_seconds:.2f}",
                )
                for r in rows
            ],
        )
    )
    by_dataset: dict[str, dict[str, object]] = {}
    for row in rows:
        by_dataset.setdefault(row.dataset, {})[row.mode] = row
    for dataset, modes in by_dataset.items():
        assert (
            modes["pairwise"].mean_envelope_selectivity
            <= modes["separate"].mean_envelope_selectivity + 0.05
        ), dataset
    # And on at least one dataset the gain is substantial.
    gains = [
        modes["separate"].mean_envelope_selectivity
        - modes["pairwise"].mean_envelope_selectivity
        for modes in by_dataset.values()
    ]
    assert max(gains) > 0.05
