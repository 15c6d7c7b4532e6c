"""The shared concatenate-evaluate-slice loop, with stub callbacks."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.coalesce import Coalescer
from repro.exceptions import ServiceStoppedError


class Recorder:
    """Stub callbacks: evaluation concatenates the payload lists (after
    waiting on ``gate`` when the key is "hold"), slicing is list slicing,
    and every evaluate call is recorded."""

    def __init__(self) -> None:
        self.calls: list[tuple[object, list]] = []
        self.entered = threading.Event()
        self.gate = threading.Event()

    def evaluate(self, key, payloads):
        self.calls.append((key, list(payloads)))
        if key == "hold":
            self.entered.set()
            assert self.gate.wait(timeout=10)
        if key == "boom":
            raise ValueError("evaluate exploded")
        return [value for payload in payloads for value in payload]

    @staticmethod
    def take(result, start, stop):
        return result[start:stop]


def make(recorder: Recorder) -> Coalescer:
    return Coalescer(
        recorder.evaluate, recorder.take, name="test-coalescer",
        counters="test.batch",
    )


def submit_behind_a_held_group(coalescer, recorder, requests):
    """Submit ``requests`` (``(key, payload)`` pairs, one thread each,
    in order) while the worker is held inside a "hold" group, so they
    are all pending together when it drains next.  Returns each
    request's ``submit`` outcome: ``(result, shared)`` or the raised
    exception."""
    outcomes: list = [None] * len(requests)

    def run(index, key, payload):
        try:
            outcomes[index] = coalescer.submit(key, payload)
        except BaseException as error:
            outcomes[index] = error

    holder = threading.Thread(
        target=coalescer.submit, args=("hold", ["held"])
    )
    holder.start()
    assert recorder.entered.wait(timeout=10)
    threads = []
    for index, (key, payload) in enumerate(requests):
        thread = threading.Thread(target=run, args=(index, key, payload))
        thread.start()
        threads.append(thread)
        # Arrival order is enqueue order: wait until this one is pending.
        wait_until(lambda: pending_count(coalescer) == index + 1)
    recorder.gate.set()
    for thread in [holder, *threads]:
        thread.join(timeout=10)
        assert not thread.is_alive()
    return outcomes


def pending_count(coalescer: Coalescer) -> int:
    with coalescer._cond:
        return sum(len(items) for items in coalescer._pending.values())


def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_groups_by_key_and_slices_in_arrival_order():
    recorder = Recorder()
    with make(recorder) as coalescer:
        outcomes = submit_behind_a_held_group(
            coalescer,
            recorder,
            [("a", [1, 2]), ("b", [10]), ("a", [3]), ("a", [4, 5, 6])],
        )
    # One evaluation per key, never across keys, payloads in arrival order.
    assert recorder.calls[1:] == [
        ("a", [[1, 2], [3], [4, 5, 6]]),
        ("b", [[10]]),
    ]
    assert outcomes == [
        ([1, 2], True),
        ([10], False),
        ([3], True),
        ([4, 5, 6], True),
    ]
    # The held group, group "a" (three requests), group "b".
    assert coalescer.calls == 3
    assert coalescer.requests == 5
    assert coalescer.coalesced == 3


def test_single_request_group_gets_the_callers_own_payload():
    recorder = Recorder()
    payload = [1, 2, 3]
    with make(recorder) as coalescer:
        result, shared = coalescer.submit("alone", payload)
    assert recorder.calls[0][1][0] is payload
    assert (result, shared) == ([1, 2, 3], False)
    assert coalescer.coalesced == 0


def test_evaluate_error_reaches_every_waiter_of_that_group_only():
    recorder = Recorder()
    with make(recorder) as coalescer:
        outcomes = submit_behind_a_held_group(
            coalescer,
            recorder,
            [("boom", [1]), ("fine", [2]), ("boom", [3])],
        )
        # The worker survives a failed group.
        assert coalescer.submit("fine", [4]) == ([4], False)
    assert isinstance(outcomes[0], ValueError)
    assert outcomes[2] is outcomes[0]
    assert outcomes[1] == ([2], False)
    assert coalescer.calls == 3  # held, "fine", "fine": failures don't count


def test_stop_fails_pending_and_future_submits_and_joins_the_thread():
    recorder = Recorder()
    coalescer = make(recorder)
    errors: list[BaseException] = []

    def pending_request():
        try:
            coalescer.submit("late", [1])
        except BaseException as error:
            errors.append(error)

    holder = threading.Thread(
        target=coalescer.submit, args=("hold", ["held"])
    )
    holder.start()
    assert recorder.entered.wait(timeout=10)
    waiter = threading.Thread(target=pending_request)
    waiter.start()
    wait_until(lambda: pending_count(coalescer) == 1)
    stopper = threading.Thread(target=coalescer.stop)
    stopper.start()
    wait_until(lambda: coalescer._stopped)
    recorder.gate.set()  # the group in flight finishes; "late" never runs
    for thread in (holder, waiter, stopper):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(errors) == 1 and isinstance(errors[0], ServiceStoppedError)
    assert [key for key, _ in recorder.calls] == ["hold"]
    assert not coalescer._thread.is_alive()
    with pytest.raises(ServiceStoppedError):
        coalescer.submit("after", [1])
    coalescer.stop()  # idempotent
