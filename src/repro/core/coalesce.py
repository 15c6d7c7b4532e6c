"""Concatenate-evaluate-slice over concurrent requests.

Predicate evaluation and ``predict_batch`` are row-independent: what a
row evaluates to cannot depend on which other rows share its batch.  So
concurrent requests for the same work may be concatenated, evaluated
**once**, and each handed its own slice back, bit-identically to
evaluating each alone — while the fixed per-call cost (kernel setup, one
NumPy dispatch per tree node or distinct predicate) is paid once per
group instead of once per request.

:class:`Coalescer` is that loop and nothing else.  Requests enqueue a
*payload* (anything with a ``len``: a batch, a row sequence) under a
*group key*; one worker thread drains everything pending, and for each
key calls ``evaluate(key, payloads)`` once and ``take(result, start,
stop)`` once per waiter.  Requests never coalesce across keys.  The
worker never sleeps waiting for company: an idle service pays one thread
hop and nothing more, while a busy one piles concurrent requests into
larger and larger groups on its own.  What the work *is* — which model,
which evaluator snapshot, which span to open — belongs to the callbacks
(:class:`repro.serve.batcher.MicroBatcher`,
:class:`repro.segments.batcher.MatchBatcher`).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Sequence, Sized
from typing import Any

from repro import obs
from repro.exceptions import ServiceStoppedError


class _Pending:
    """One waiter: a payload in, its slice of the group's result (or
    the group's error) out.  The caller blocks until ``done``, so the
    worker thread is the only one touching ``payload`` meanwhile."""

    __slots__ = ("payload", "done", "result", "error", "shared")

    def __init__(self, payload: Sized) -> None:
        self.payload = payload
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.shared = False


class Coalescer:
    """One worker thread evaluating pending requests a group at a time.

    ``evaluate(key, payloads)`` receives the group's payloads in arrival
    order — for a group of one, the caller's own object, so whatever it
    already cached on it is reused — and returns the result for their
    concatenation; ``take(result, start, stop)`` cuts one waiter's part
    out of a shared result.  The single worker also serializes all
    evaluation, so the callbacks need not be thread-safe.  Start is
    implicit (construction), stop via :meth:`stop` (idempotent).

    ``calls`` / ``requests`` / ``coalesced`` are lifetime totals,
    mirrored (with ``rows``) as ``<counters>.*`` obs counters and written
    only by the worker thread: reads are approximate while work is in
    flight.
    """

    def __init__(
        self,
        evaluate: "Callable[[Hashable, Sequence[Any]], Any]",
        take: "Callable[[Any, int, int], Any]",
        *,
        name: str,
        counters: str,
    ) -> None:
        self._evaluate = evaluate
        self._take = take
        self._name = name
        self._counters = counters
        self._cond = threading.Condition()
        self._pending: dict[Hashable, list[_Pending]] = {}
        self._stopped = False
        self.calls = 0
        self.requests = 0
        self.coalesced = 0
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-{name}", daemon=True
        )
        self._thread.start()

    def submit(self, key: Hashable, payload: Sized) -> "tuple[Any, bool]":
        """This request's part of its group's result, and whether the
        evaluation was shared with other requests.

        Blocks until the worker has evaluated the group.  An exception
        raised by ``evaluate`` or ``take`` propagates unchanged to every
        waiter of that group (and to no other group).
        """
        item = _Pending(payload)
        with self._cond:
            if self._stopped:
                raise ServiceStoppedError(f"{self._name} is stopped")
            self._pending.setdefault(key, []).append(item)
            self._cond.notify()
        item.done.wait()
        if item.error is not None:
            raise item.error
        return item.result, item.shared

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopped:
                    self._cond.wait()
                work, self._pending = self._pending, {}
                stopped = self._stopped
            if stopped:
                error = ServiceStoppedError(
                    f"{self._name} stopped with the request pending"
                )
                for items in work.values():
                    self._finish(items, error)
                return
            for key, items in work.items():
                self._run_group(key, items)

    def _run_group(self, key: Hashable, items: "list[_Pending]") -> None:
        try:
            result = self._evaluate(key, [item.payload for item in items])
            if len(items) == 1:
                items[0].result = result
            else:
                offset = 0
                for item in items:
                    stop = offset + len(item.payload)
                    item.result = self._take(result, offset, stop)
                    item.shared = True
                    offset = stop
        except BaseException as error:
            # Re-raised in every waiter's own thread by submit(); a
            # waiter left blocked forever would be the worse outcome.
            self._finish(items, error)
            return
        rows = sum(len(item.payload) for item in items)
        self.calls += 1
        self.requests += len(items)
        obs.add_counter(f"{self._counters}.requests", len(items))
        obs.add_counter(f"{self._counters}.calls")
        obs.add_counter(f"{self._counters}.rows", rows)
        if len(items) > 1:
            self.coalesced += len(items)
            obs.add_counter(f"{self._counters}.coalesced", len(items))
        self._finish(items, None)

    @staticmethod
    def _finish(
        items: "list[_Pending]", error: "BaseException | None"
    ) -> None:
        for item in items:
            item.error = error
            item.done.set()

    def stop(self) -> None:
        """Stop the worker; pending and future requests fail typed with
        :class:`~repro.exceptions.ServiceStoppedError`."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._cond.notify_all()
        self._thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
