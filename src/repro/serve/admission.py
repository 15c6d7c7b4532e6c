"""Admission control: bounded queueing, deadlines, typed shedding.

A serving system protects itself by refusing work it cannot finish in
time rather than queueing without bound.  :class:`AdmissionController`
enforces a ceiling on *pending* (admitted but unfinished) requests —
an arrival beyond it is shed immediately with
:class:`~repro.exceptions.QueueFullError`, which is cheap for the caller
to retry against another replica.  :class:`Deadline` carries a
per-request timeout: a request whose deadline lapses while queued is
never executed (:class:`~repro.exceptions.RequestTimeoutError`), so a
backlog drains by dropping already-dead work first.

Deadlines also feed the ceiling back — an AIMD concurrency limit and
deadline-aware shedding off a :class:`ServiceTimeEstimator`, both
described on :class:`AdmissionController`; with no deadline on any
request the limit is ``max_pending`` and never moves.

Queue depth and the limit are exported as the ``serve.queue.depth`` and
``serve.admission.limit`` gauges, shed / timeout decisions as
``serve.request.shed`` / ``serve.request.timeout`` counters — the
signals a load balancer would watch.
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.exceptions import DeadlineShedError, QueueFullError

#: AIMD steps of the concurrency limit: an in-deadline completion adds
#: ``LIMIT_INCREASE / limit``, a deadline miss multiplies by
#: ``LIMIT_DECREASE``.
LIMIT_INCREASE = 1.0
LIMIT_DECREASE = 0.5
#: Weight of a new sample in the service-time EWMA.
SERVICE_TIME_ALPHA = 0.3


class Deadline:
    """An absolute completion deadline derived from a relative timeout."""

    __slots__ = ("expires_at", "timeout")

    def __init__(self, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        self.expires_at = time.monotonic() + timeout

    @classmethod
    def from_timeout(cls, timeout: float | None) -> "Deadline | None":
        """A deadline for ``timeout`` seconds, or ``None`` for no limit."""
        return None if timeout is None else cls(timeout)

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at


class AdmissionController:
    """AIMD-limited, deadline-aware admission over one pool of slots.

    Thread-safe.  ``max_pending`` is the hard ceiling; two mechanisms
    sit under it, both driven by request deadlines and both inert
    without them (no deadline, no miss: the limit stays ``max_pending``
    and admission below it never fails — the service's "zero dropped
    requests below the admission limit" guarantee):

    * The effective concurrency limit starts at ``max_pending`` and
      adapts: each in-deadline completion adds ``LIMIT_INCREASE / limit``
      (additive increase, ~+1 per round-trip of the whole window), each
      deadline miss or queued timeout multiplies by ``LIMIT_DECREASE``
      (multiplicative decrease), floored at ``workers`` so the pool is
      never starved.  An arrival at the limit is shed with
      :class:`~repro.exceptions.QueueFullError`.
    * With a deadline and a service-time estimate for the request's
      kind, admission predicts wait-plus-service as
      ``estimate * (pending / workers + 1)`` — the queue ahead drains
      through ``workers`` lanes, then this request runs.  A prediction
      exceeding the deadline's remaining budget sheds immediately with
      :class:`~repro.exceptions.DeadlineShedError`
      (``serve.request.shed.deadline``): the caller gets its rejection
      while the deadline still has budget to retry elsewhere, and no
      worker wastes time dequeuing doomed work.
    """

    def __init__(
        self,
        max_pending: int,
        default_timeout: float | None = None,
        workers: int = 1,
    ) -> None:
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError(
                f"default_timeout must be > 0, got {default_timeout}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.max_pending = max_pending
        self.default_timeout = default_timeout
        self.workers = workers
        self.estimator = ServiceTimeEstimator()
        self._floor = float(min(workers, max_pending))
        self._limit = float(max_pending)
        self._lock = threading.Lock()
        self._pending = 0

    def deadline_for(self, timeout: float | None) -> Deadline | None:
        """Resolve a request timeout against the service default."""
        if timeout is None:
            timeout = self.default_timeout
        return Deadline.from_timeout(timeout)

    def admit(
        self,
        kind: str | None = None,
        deadline: "Deadline | None" = None,
    ) -> None:
        """Claim one pending slot or shed the request."""
        with self._lock:
            limit = int(self._limit)
            if self._pending >= limit:
                obs.add_counter("serve.request.shed")
                raise QueueFullError(
                    f"request queue is full "
                    f"({self._pending}/{limit} pending, "
                    f"ceiling {self.max_pending})"
                )
            if kind is not None and deadline is not None:
                estimate = self.estimator.estimate(kind)
                if estimate is not None:
                    predicted = estimate * (
                        self._pending / self.workers + 1.0
                    )
                    remaining = deadline.remaining()
                    if predicted > remaining:
                        obs.add_counter("serve.request.shed")
                        obs.add_counter("serve.request.shed.deadline")
                        raise DeadlineShedError(
                            f"predicted {predicted * 1000:.1f}ms "
                            f"wait+service exceeds the deadline's "
                            f"{remaining * 1000:.1f}ms remaining "
                            f"({self._pending} pending, "
                            f"{estimate * 1000:.2f}ms {kind} estimate)"
                        )
            self._pending += 1
            # Publish under the lock: two racing threads publishing
            # after release could land out of order and leave the gauge
            # permanently wrong (e.g. stuck at a stale depth after the
            # queue drained).  Inside the lock, publishes are totally
            # ordered with the depth transitions they report.
            obs.set_gauge("serve.queue.depth", self._pending)

    def release(self) -> None:
        """Return one pending slot (request finished, shed, or timed out)."""
        with self._lock:
            if self._pending <= 0:
                raise AssertionError(
                    "release() without a matching admit()"
                )
            self._pending -= 1
            obs.set_gauge("serve.queue.depth", self._pending)

    def record_outcome(
        self,
        kind: str | None,
        service_seconds: float | None,
        ok: bool,
    ) -> None:
        """Feed one finished request back into the controller.

        ``service_seconds`` is the measured execution time (``None``
        when the request never executed, e.g. a queued timeout);
        ``ok`` is whether it finished within its deadline.  In-deadline
        completions grow the limit additively and refine the kind's
        service-time EWMA; deadline misses (late completions and queued
        timeouts) shrink it multiplicatively.  Sheds do not feed back —
        they are the controller's own output, not a congestion signal.
        """
        if kind is not None and service_seconds is not None:
            self.estimator.observe(kind, service_seconds)
        with self._lock:
            if ok:
                self._limit = min(
                    float(self.max_pending),
                    self._limit + LIMIT_INCREASE / self._limit,
                )
            else:
                self._limit = max(
                    self._floor, self._limit * LIMIT_DECREASE
                )
            obs.set_gauge("serve.admission.limit", self._limit)

    @property
    def pending(self) -> int:
        """Currently admitted, unfinished requests."""
        with self._lock:
            return self._pending

    @property
    def limit(self) -> float:
        """The current AIMD concurrency limit."""
        with self._lock:
            return self._limit


class ServiceTimeEstimator:
    """Thread-safe per-request-kind EWMA of observed service times.

    Seeded exactly by the first observation of each kind, then smoothed
    with weight ``alpha`` on new samples — the same discipline as the
    calibration store's selectivity EWMA.  :meth:`estimate` returns
    ``None`` for kinds never observed, which admission treats as
    "no basis to shed".
    """

    def __init__(self, alpha: float = SERVICE_TIME_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._lock = threading.Lock()
        self._ewma: dict[str, float] = {}
        self._count: dict[str, int] = {}

    def observe(self, kind: str, seconds: float) -> None:
        """Fold one measured service time into the kind's EWMA."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        with self._lock:
            current = self._ewma.get(kind)
            if current is None:
                self._ewma[kind] = seconds
            else:
                self._ewma[kind] = (
                    self.alpha * seconds + (1.0 - self.alpha) * current
                )
            self._count[kind] = self._count.get(kind, 0) + 1

    def estimate(self, kind: str) -> float | None:
        """The kind's smoothed service time (``None`` if never seen)."""
        with self._lock:
            return self._ewma.get(kind)

    def observations(self, kind: str) -> int:
        with self._lock:
            return self._count.get(kind, 0)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self._ewma)
