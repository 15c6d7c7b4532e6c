"""Tests for sweep disk persistence (sharded per-task cache, format 3)."""

import json
import os

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import (
    config_fingerprint,
    load_sweep,
    load_task,
    save_sweep,
    save_task,
    task_path,
)
from repro.sql.planner import AccessPath
from repro.workload.measurement import QueryMeasurement


def make_measurement(
    dataset: str = "diabetes", family: str = "decision_tree"
) -> QueryMeasurement:
    return QueryMeasurement(
        dataset=dataset,
        family=family,
        model_name="m",
        class_label="c",
        original_selectivity=0.1,
        envelope_selectivity=0.12,
        envelope_disjuncts=3,
        envelope_exact=True,
        envelope_is_false=False,
        envelope_used=True,
        access_path=AccessPath.INDEX_SEARCH,
        plan_changed=True,
        scan_seconds=1.0,
        query_seconds=0.3,
        derive_seconds=0.02,
        rows_total=1000,
        rows_matched=120,
    )


CONFIG = ExperimentConfig(
    datasets=("diabetes",), families=("decision_tree", "naive_bayes")
)


def full_sweep(config: ExperimentConfig) -> list[QueryMeasurement]:
    return [
        make_measurement(dataset, family)
        for dataset in config.datasets
        for family in config.families
    ]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        measurements = full_sweep(CONFIG)
        save_sweep(CONFIG, measurements, cache_dir=tmp_path)
        loaded = load_sweep(CONFIG, cache_dir=tmp_path)
        assert loaded == measurements

    def test_miss_for_other_config(self, tmp_path):
        save_sweep(CONFIG, full_sweep(CONFIG), cache_dir=tmp_path)
        other = ExperimentConfig(datasets=("chess",))
        assert load_sweep(other, cache_dir=tmp_path) is None

    def test_fingerprint_sensitive_to_config(self):
        assert config_fingerprint(CONFIG) != config_fingerprint(
            ExperimentConfig(datasets=("diabetes",), rows_target=999)
        )

    def test_corrupt_shard_is_a_miss(self, tmp_path):
        save_sweep(CONFIG, full_sweep(CONFIG), cache_dir=tmp_path)
        shard = task_path(
            CONFIG, "diabetes", "decision_tree", cache_dir=tmp_path
        )
        shard.write_text("not json at all {")
        assert load_sweep(CONFIG, cache_dir=tmp_path) is None
        assert (
            load_task(
                CONFIG, "diabetes", "decision_tree", cache_dir=tmp_path
            )
            is None
        )

    def test_enum_survives_round_trip(self, tmp_path):
        save_sweep(CONFIG, full_sweep(CONFIG), cache_dir=tmp_path)
        loaded = load_sweep(CONFIG, cache_dir=tmp_path)
        assert loaded is not None
        assert loaded[0].access_path is AccessPath.INDEX_SEARCH


class TestTaskShards:
    def test_task_round_trip(self, tmp_path):
        measurements = [make_measurement()]
        save_task(
            CONFIG,
            "diabetes",
            "decision_tree",
            measurements,
            cache_dir=tmp_path,
        )
        assert (
            load_task(
                CONFIG, "diabetes", "decision_tree", cache_dir=tmp_path
            )
            == measurements
        )
        # The other task of the sweep is still a miss.
        assert (
            load_task(CONFIG, "diabetes", "naive_bayes", cache_dir=tmp_path)
            is None
        )
        assert load_sweep(CONFIG, cache_dir=tmp_path) is None

    def test_partial_sweep_keeps_good_shards(self, tmp_path):
        """A corrupt shard is a per-task miss: intact shards still load."""
        save_sweep(CONFIG, full_sweep(CONFIG), cache_dir=tmp_path)
        bad = task_path(
            CONFIG, "diabetes", "naive_bayes", cache_dir=tmp_path
        )
        bad.write_text("{ torn")
        assert (
            load_task(
                CONFIG, "diabetes", "decision_tree", cache_dir=tmp_path
            )
            is not None
        )

    def test_shard_rejects_mismatched_task(self, tmp_path):
        """A shard renamed onto another task's path must not be trusted."""
        source = save_task(
            CONFIG,
            "diabetes",
            "decision_tree",
            [make_measurement()],
            cache_dir=tmp_path,
        )
        target = task_path(
            CONFIG, "diabetes", "naive_bayes", cache_dir=tmp_path
        )
        target.write_text(source.read_text())
        assert (
            load_task(CONFIG, "diabetes", "naive_bayes", cache_dir=tmp_path)
            is None
        )


class TestAtomicWrites:
    def test_torn_write_is_a_miss_then_recoverable(self, tmp_path):
        """Regression: a half-written shard must read as a miss, and a
        subsequent save must repair it — with the old bare ``write_text``
        an interrupted writer left a permanently corrupt entry."""
        measurements = [make_measurement()]
        path = save_task(
            CONFIG,
            "diabetes",
            "decision_tree",
            measurements,
            cache_dir=tmp_path,
        )
        complete = path.read_text()
        path.write_text(complete[: len(complete) // 2])  # simulated tear
        assert (
            load_task(
                CONFIG, "diabetes", "decision_tree", cache_dir=tmp_path
            )
            is None
        )
        save_task(
            CONFIG,
            "diabetes",
            "decision_tree",
            measurements,
            cache_dir=tmp_path,
        )
        assert (
            load_task(
                CONFIG, "diabetes", "decision_tree", cache_dir=tmp_path
            )
            == measurements
        )

    def test_interrupted_replace_preserves_previous_entry(
        self, tmp_path, monkeypatch
    ):
        """A writer dying before ``os.replace`` leaves the old complete
        file in place and no stray temp files that parse as shards."""
        measurements = [make_measurement()]
        save_task(
            CONFIG,
            "diabetes",
            "decision_tree",
            measurements,
            cache_dir=tmp_path,
        )

        def boom(src, dst):
            raise OSError("killed mid-write")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            save_task(
                CONFIG,
                "diabetes",
                "decision_tree",
                [make_measurement("diabetes", "decision_tree")],
                cache_dir=tmp_path,
            )
        monkeypatch.undo()
        assert (
            load_task(
                CONFIG, "diabetes", "decision_tree", cache_dir=tmp_path
            )
            == measurements
        )
        leftovers = [
            p
            for p in tmp_path.rglob("*.tmp")
            if p.is_file()
        ]
        assert leftovers == []


class TestStrayLegacyFile:
    def test_format2_file_is_ignored_and_the_sweep_recomputes(
        self, tmp_path, monkeypatch
    ):
        """The cache is regenerable: a pre-sharding monolithic file is
        a miss (never migrated), and the harness runs the sweep."""
        from dataclasses import asdict

        from repro.experiments import harness

        tiny = ExperimentConfig(
            rows_target=2_000,
            train_cap=200,
            max_nodes=100,
            tree_max_depth=6,
            repeats=1,
            datasets=("diabetes",),
            families=("decision_tree",),
        )
        stray = tmp_path / f"sweep_{config_fingerprint(tiny)}.json"
        stray.write_text(
            json.dumps(
                {
                    "format": 2,
                    "measurements": [
                        {**asdict(m), "access_path": m.access_path.value}
                        for m in [make_measurement()]
                    ],
                }
            )
        )
        before = stray.read_text()
        assert load_sweep(tiny, cache_dir=tmp_path) is None
        assert not task_path(
            tiny, "diabetes", "decision_tree", cache_dir=tmp_path
        ).exists()

        monkeypatch.setenv("REPRO_SWEEP_CACHE", "on")
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        harness.clear_caches()
        try:
            measurements = harness.run_all(tiny, jobs=1)
        finally:
            harness.clear_caches()
        assert measurements
        assert all(m.model_name != "m" for m in measurements)
        assert load_sweep(tiny, cache_dir=tmp_path) == measurements
        assert stray.read_text() == before
