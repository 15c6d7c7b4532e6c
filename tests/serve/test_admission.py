"""Admission control: deadlines, bounded queueing, typed shedding."""

from __future__ import annotations

import random
import time

import pytest

from repro.exceptions import QueueFullError
from repro.serve import AdmissionController, Deadline


class TestDeadline:
    def test_from_timeout_none(self):
        assert Deadline.from_timeout(None) is None

    def test_remaining_counts_down(self):
        deadline = Deadline(10.0)
        first = deadline.remaining()
        assert 0 < first <= 10.0
        assert deadline.remaining() <= first
        assert not deadline.expired

    def test_expiry(self):
        deadline = Deadline(0.01)
        time.sleep(0.02)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    @pytest.mark.parametrize("bad", [0, -1.5])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="timeout"):
            Deadline(bad)


class TestAdmissionController:
    def test_sheds_beyond_capacity(self):
        controller = AdmissionController(max_pending=2)
        controller.admit()
        controller.admit()
        assert controller.pending == 2
        with pytest.raises(QueueFullError, match="2/2 pending"):
            controller.admit()
        controller.release()
        controller.admit()  # a freed slot admits again
        assert controller.pending == 2

    def test_release_without_admit(self):
        controller = AdmissionController(max_pending=1)
        with pytest.raises(AssertionError):
            controller.release()

    def test_default_timeout_resolution(self):
        controller = AdmissionController(
            max_pending=1, default_timeout=5.0
        )
        assert controller.deadline_for(None).timeout == 5.0
        assert controller.deadline_for(1.0).timeout == 1.0
        unlimited = AdmissionController(max_pending=1)
        assert unlimited.deadline_for(None) is None

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_bad_capacity(self, bad):
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionController(max_pending=bad)

    def test_rejects_bad_default_timeout(self):
        with pytest.raises(ValueError, match="default_timeout"):
            AdmissionController(max_pending=1, default_timeout=0)

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            AdmissionController(max_pending=1, workers=0)

    def test_without_deadlines_it_is_the_static_bound(self):
        """No deadline, no miss: over any admit / release /
        in-deadline-outcome sequence the limit never leaves
        ``max_pending``, and the shed is ``QueueFullError`` at exactly
        ``max_pending`` pending."""
        rng = random.Random(11)
        controller = AdmissionController(max_pending=5, workers=2)
        pending = 0
        for _ in range(2000):
            step = rng.choice(("admit", "admit", "release", "outcome"))
            if step == "admit":
                if pending == 5:
                    with pytest.raises(QueueFullError, match="5/5 pending"):
                        controller.admit(kind="query", deadline=None)
                else:
                    controller.admit(kind="query", deadline=None)
                    pending += 1
            elif step == "release" and pending:
                controller.release()
                pending -= 1
            elif step == "outcome":
                controller.record_outcome("query", rng.random(), ok=True)
            assert controller.limit == 5.0
            assert controller.pending == pending


class TestQueueDepthGauge:
    """The ``serve.queue.depth`` gauge is published under the lock, so
    its sequence must mirror the depth transitions exactly — the old
    publish-after-release could interleave and strand a stale value."""

    def _record_gauges(self, monkeypatch):
        from repro import obs
        from repro.serve import admission

        published: list[tuple[str, float]] = []

        def capture(name: str, value: float) -> None:
            published.append((name, value))

        # Patch both the obs package attribute and the module alias the
        # controller resolves at call time.
        monkeypatch.setattr(obs, "set_gauge", capture)
        monkeypatch.setattr(admission.obs, "set_gauge", capture)
        return published

    def test_gauge_tracks_every_transition(self, monkeypatch):
        published = self._record_gauges(monkeypatch)
        controller = AdmissionController(max_pending=4)
        controller.admit()
        controller.admit()
        controller.release()
        controller.admit()
        controller.release()
        controller.release()
        values = [
            value
            for name, value in published
            if name == "serve.queue.depth"
        ]
        assert values == [1, 2, 1, 2, 1, 0]

    def test_gauge_is_monotone_consistent_under_threads(self, monkeypatch):
        """Concurrent admit/release must publish a sequence of depths
        that only ever steps by +-1, stays within bounds, and ends at
        zero — impossible if publishes raced outside the lock."""
        import threading

        published = self._record_gauges(monkeypatch)
        controller = AdmissionController(max_pending=64)

        def worker() -> None:
            for _ in range(100):
                controller.admit()
                controller.release()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        values = [
            value
            for name, value in published
            if name == "serve.queue.depth"
        ]
        assert len(values) == 8 * 100 * 2
        assert values[-1] == 0
        assert all(0 <= value <= 64 for value in values)
        for before, after in zip(values, values[1:]):
            assert abs(after - before) == 1


class TestServiceTimeEstimator:
    def test_first_observation_seeds_exactly(self):
        from repro.serve import ServiceTimeEstimator

        estimator = ServiceTimeEstimator(alpha=0.3)
        assert estimator.estimate("query") is None
        estimator.observe("query", 0.1)
        assert estimator.estimate("query") == 0.1

    def test_ewma_smoothing(self):
        from repro.serve import ServiceTimeEstimator

        estimator = ServiceTimeEstimator(alpha=0.5)
        estimator.observe("query", 0.1)
        estimator.observe("query", 0.3)
        assert estimator.estimate("query") == pytest.approx(0.2)
        assert estimator.observations("query") == 2

    def test_kinds_are_independent(self):
        from repro.serve import ServiceTimeEstimator

        estimator = ServiceTimeEstimator()
        estimator.observe("query", 0.5)
        assert estimator.estimate("match") is None
        estimator.observe("match", 0.01)
        assert estimator.snapshot() == {"query": 0.5, "match": 0.01}

    def test_validation(self):
        from repro.serve import ServiceTimeEstimator

        with pytest.raises(ValueError, match="alpha"):
            ServiceTimeEstimator(alpha=0.0)
        with pytest.raises(ValueError, match="seconds"):
            ServiceTimeEstimator().observe("query", -1.0)


class TestAdaptiveAdmissionController:
    """The deadline-driven half of :class:`AdmissionController`: the
    AIMD limit and the shed of requests predicted to miss."""

    def _controller(self, **kwargs):
        defaults = dict(max_pending=16, workers=2)
        defaults.update(kwargs)
        return AdmissionController(**defaults)

    def test_starts_at_the_static_ceiling(self):
        controller = self._controller()
        assert controller.limit == 16.0

    def test_misses_halve_the_limit_down_to_the_worker_floor(self):
        controller = self._controller()
        controller.record_outcome("query", 0.1, ok=False)
        assert controller.limit == 8.0  # one miss halves it
        for _ in range(10):
            controller.record_outcome("query", 0.1, ok=False)
        assert controller.limit == 2.0  # floored at workers

    def test_successes_recover_additively(self):
        controller = self._controller()
        for _ in range(4):
            controller.record_outcome("query", 0.1, ok=False)
        shrunk = controller.limit
        controller.record_outcome("query", 0.1, ok=True)
        assert controller.limit == pytest.approx(shrunk + 1.0 / shrunk)
        for _ in range(2000):
            controller.record_outcome("query", 0.1, ok=True)
        assert controller.limit == 16.0  # capped at max_pending

    def test_shrunk_limit_sheds_before_the_static_bound(self):
        controller = self._controller(max_pending=4, workers=1)
        for _ in range(10):
            controller.record_outcome("query", 0.1, ok=False)
        assert controller.limit == 1.0
        controller.admit()
        with pytest.raises(QueueFullError, match="1/1 pending, ceiling 4"):
            controller.admit()
        controller.release()

    def test_deadline_shed_predicts_from_the_estimate(self):
        from repro.exceptions import AdmissionError, DeadlineShedError
        from repro.serve import Deadline

        controller = self._controller(max_pending=16, workers=1)
        # Seed the estimator: queries take ~100ms.
        controller.record_outcome("query", 0.1, ok=True)
        controller.admit(kind="query", deadline=Deadline(10.0))
        # One pending + this one through 1 worker ~ 0.2s > 50ms budget.
        with pytest.raises(DeadlineShedError) as excinfo:
            controller.admit(kind="query", deadline=Deadline(0.05))
        assert isinstance(excinfo.value, AdmissionError)
        # A roomy deadline still admits.
        controller.admit(kind="query", deadline=Deadline(10.0))
        assert controller.pending == 2
        controller.release()
        controller.release()

    def test_no_estimate_means_no_deadline_shed(self):
        from repro.serve import Deadline

        controller = self._controller()
        controller.admit(kind="query", deadline=Deadline(0.0001))
        assert controller.pending == 1
        controller.release()

    def test_record_outcome_feeds_the_estimator(self):
        controller = self._controller()
        assert controller.estimator.estimate("query") is None
        controller.record_outcome("query", 0.25, ok=True)
        assert controller.estimator.estimate("query") == 0.25
        # A queued timeout has no service time but still penalizes.
        controller.record_outcome("query", None, ok=False)
        assert controller.estimator.observations("query") == 1
