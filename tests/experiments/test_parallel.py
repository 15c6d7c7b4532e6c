"""Tests for the parallel sweep engine and the jobs knob."""

import pytest

from repro.experiments import harness
from repro.experiments.config import (
    ExperimentConfig,
    default_jobs,
    resolve_jobs,
    set_default_jobs,
)
from repro.experiments.harness import run_all, run_task
from repro.experiments.parallel import (
    measurement_key,
    run_tasks,
    sweep_tasks,
)
from repro.workload.measurement import (
    FAMILY_DECISION_TREE,
    FAMILY_NAIVE_BAYES,
)

#: Small enough to train in seconds, big enough to exercise two datasets
#: and two families (= four independent tasks).
TINY = ExperimentConfig(
    rows_target=2_000,
    train_cap=200,
    nb_bins=4,
    cluster_bins=4,
    max_nodes=100,
    tree_max_depth=6,
    repeats=1,
    datasets=("diabetes", "balance_scale"),
    families=(FAMILY_DECISION_TREE, FAMILY_NAIVE_BAYES),
)


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch, tmp_path):
    """Point the disk cache at a temp dir and reset in-process memos."""
    monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    harness.clear_caches()
    yield
    harness.clear_caches()


class TestJobsResolution:
    def test_default_is_serial(self):
        assert default_jobs() == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4
        assert resolve_jobs(None) == 4

    def test_env_auto(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert default_jobs() == (os.cpu_count() or 1)

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            default_jobs()

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(2) == 2

    def test_explicit_invalid(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_programmatic_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        set_default_jobs(3)
        try:
            assert default_jobs() == 3
        finally:
            set_default_jobs(None)
        assert default_jobs() == 4


class TestSweepTasks:
    def test_grid_order(self):
        tasks = sweep_tasks(TINY)
        assert tasks == [
            ("diabetes", FAMILY_DECISION_TREE),
            ("diabetes", FAMILY_NAIVE_BAYES),
            ("balance_scale", FAMILY_DECISION_TREE),
            ("balance_scale", FAMILY_NAIVE_BAYES),
        ]


class TestParallelDeterminism:
    def test_parallel_matches_serial(self, monkeypatch):
        """The acceptance invariant: an identical measurement set
        (ignoring wall-clock fields) from serial and parallel sweeps."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
        serial = run_all(TINY, jobs=1)
        harness.clear_caches()
        parallel = run_all(TINY, jobs=2)
        assert len(serial) == len(parallel)
        assert [measurement_key(m) for m in serial] == [
            measurement_key(m) for m in parallel
        ]

    def test_run_task_is_self_contained(self):
        measurements = run_task(TINY, "diabetes", FAMILY_DECISION_TREE)
        assert measurements
        assert all(m.dataset == "diabetes" for m in measurements)
        assert all(
            m.family == FAMILY_DECISION_TREE for m in measurements
        )

    def test_run_tasks_keyed_by_task(self, monkeypatch):
        tasks = [
            ("diabetes", FAMILY_DECISION_TREE),
            ("balance_scale", FAMILY_DECISION_TREE),
        ]
        seen = []
        results = run_tasks(
            TINY, tasks, jobs=2, on_result=lambda t, m: seen.append(t)
        )
        assert set(results) == set(tasks)
        assert sorted(seen) == sorted(tasks)
        for (dataset, family), measurements in results.items():
            assert all(m.dataset == dataset for m in measurements)


class TestPerTaskCacheResume:
    def test_missing_shard_recomputed_and_rest_reused(self, tmp_path):
        """An interrupted sweep resumes from its finished task shards."""
        from repro.experiments import persistence

        first = run_all(TINY, jobs=1)
        # Simulate an interruption that lost one task's shard.
        victim = persistence.task_path(
            TINY, "diabetes", FAMILY_NAIVE_BAYES
        )
        assert victim.exists()
        victim.unlink()
        harness.clear_caches()
        second = run_all(TINY, jobs=1)
        assert [measurement_key(m) for m in first] == [
            measurement_key(m) for m in second
        ]
        # Untouched tasks came back verbatim from their shards
        # (timing fields included), proving they were not re-run.
        untouched_first = [
            m for m in first if (m.dataset, m.family) != ("diabetes", FAMILY_NAIVE_BAYES)
        ]
        untouched_second = [
            m for m in second if (m.dataset, m.family) != ("diabetes", FAMILY_NAIVE_BAYES)
        ]
        assert untouched_first == untouched_second

    def test_full_cache_hit(self):
        first = run_all(TINY, jobs=1)
        harness.clear_caches()
        assert run_all(TINY, jobs=1) == first


class TestPerTaskTracing:
    @pytest.fixture
    def clean_obs(self):
        from repro import obs

        yield
        obs.configure(None)

    def test_workers_write_per_task_trace_files(self, tmp_path, clean_obs):
        """Each parallel worker traces into its own per-task file."""
        from repro import obs

        trace_dir = tmp_path / "traces"
        obs.configure(trace_dir, label="parent")
        tasks = [
            ("diabetes", FAMILY_DECISION_TREE),
            ("balance_scale", FAMILY_DECISION_TREE),
        ]
        run_tasks(TINY, tasks, jobs=2)
        obs.configure(None)
        names = sorted(p.name for p in trace_dir.glob("*.jsonl"))
        for dataset, family in tasks:
            assert f"trace_task_{dataset}__{family}.jsonl" in names
        summary = obs.summarize(trace_dir, strict=True)
        task_spans = summary.spans["sweep.task"]
        assert task_spans.count == len(tasks)

    def test_serial_path_traces_into_parent_file(self, tmp_path, clean_obs):
        from repro import obs

        trace_dir = tmp_path / "traces"
        tracer = obs.configure(trace_dir, label="parent")
        run_tasks(TINY, [("diabetes", FAMILY_DECISION_TREE)], jobs=1)
        obs.configure(None)
        assert [p.name for p in trace_dir.glob("*.jsonl")] == [
            tracer.path.name
        ]
        summary = obs.summarize(trace_dir, strict=True)
        assert summary.spans["sweep.task"].count == 1


class TestBenchmarkEmitter:
    def test_report_shape_and_invariant(self):
        from repro.experiments.parallel import benchmark_parallel_sweep

        report = benchmark_parallel_sweep(TINY, jobs=(1, 2), scale="tiny")
        assert report["identical_measurements"] is True
        assert report["tasks"] == 4
        assert [run["jobs"] for run in report["runs"]] == [1, 2]
        for run in report["runs"]:
            assert run["seconds"] > 0
            assert run["measurements"] > 0
        assert report["runs"][0]["speedup_vs_first"] == pytest.approx(1.0)
