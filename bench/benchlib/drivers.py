"""Load drivers: a closed loop of waiting clients and an open-loop sender.

Closed loop: each client sends its next request when the previous one
returned, and latency runs from the call to its return.  Open loop: one
sender thread submits on a fixed schedule whether or not earlier
requests are back, and latency runs from the *scheduled* send time, so
a stall is charged to every request it delays.  Both record failures as
operations that missed, never as exceptions.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable

from benchlib.spans import Recorder


@dataclass
class Op:
    """One client-observed operation."""

    kind: str
    key: tuple
    start: float
    end: float
    ok: bool = True
    error: str = ""
    #: Rows returned, or memberships summed over the batch.
    size: int = 0
    queue_s: float = 0.0
    service_s: float = 0.0
    #: Open loop only: how late the sender issued it, and in which rung.
    lag_s: float = 0.0
    rung: int = 0
    #: Match operations only: the evaluator's mask-cache traffic.
    masks_computed: int = 0
    masks_shared: int = 0
    #: Answered by another request's execution; its service times are not its own.
    collapsed: bool = False

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Item:
    """What a driver sends: ``payload`` is the object a worker thread will
    see again (the query, or the match rows), used to hand the request id
    across threads when tracing."""

    kind: str
    key: tuple
    request: object
    payload: object


Observe = Callable[[Item, object, Op], None]


def closed_loop(
    clients: int,
    seconds: float,
    next_item: Callable[[], "Item | None"],
    call: Callable[[object], object],
    observe: Observe,
    recorder: Recorder | None = None,
    next_rid: Callable[[], int] | None = None,
) -> tuple[list[Op], float]:
    """``clients`` callers for ``seconds``; returns the ops and the window.

    A client stops at the deadline or when ``next_item`` returns ``None``.
    A call in flight at the deadline completes and counts, so the window
    is the time to the last completion.  ``next_rid`` names each request
    in the trace (default: a counter); it is called once per request,
    traced or not.
    """
    next_rid = next_rid or itertools.count().__next__
    per_client: list[list[Op]] = [[] for _ in range(clients)]
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds

    def client(ops: list[Op]) -> None:
        while clock() < deadline:
            item = next_item()
            if item is None:
                break
            rid = next_rid()
            if recorder is not None:
                recorder.set_rid(rid)
                recorder.tag(item.payload, rid)
            op = Op(item.kind, item.key, clock(), 0.0)
            try:
                result = call(item.request)
                op.end = clock()
                observe(item, result, op)
            except Exception as error:  # a failed request is a data point
                op.end = clock()
                op.ok, op.error = False, type(error).__name__
            if recorder is not None:
                recorder.add_op(rid, op.kind, op.start, op.end)
            ops.append(op)

    if clients == 1:
        client(per_client[0])
    else:
        threads = [
            threading.Thread(target=client, args=(ops,), name=f"bench-client-{i}")
            for i, ops in enumerate(per_client)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    ops = [op for client_ops in per_client for op in client_ops]
    return ops, max(op.end for op in ops) - started


def open_loop(
    submit: Callable[[object], object],
    arrivals: list[tuple[float, Item]],
    timeout: float,
    observe: Observe,
    rung: int = 0,
    recorder: Recorder | None = None,
    next_rid: Callable[[], int] | None = None,
) -> tuple[list[Op], float]:
    """Submit each item at its offset; returns the ops and the drain time.

    ``submit`` returns a future.  The drain is how long after the last
    scheduled arrival the last response came back; a request still out
    ``timeout`` seconds after that arrival is failed as timed out.
    """
    clock = time.perf_counter
    ops: list[Op] = []
    outstanding = threading.Semaphore(0)

    def completed(item: Item, op: Op, rid: int, future) -> None:
        op.end = clock()
        try:
            observe(item, future.result(), op)
        except Exception as error:
            op.ok, op.error = False, type(error).__name__
        if recorder is not None:
            recorder.add_op(rid, op.kind, op.start, op.end)
        outstanding.release()

    origin = clock() + 0.02
    for offset, item in arrivals:
        due = origin + offset
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        rid = next_rid() if next_rid is not None else len(ops)
        if recorder is not None:
            recorder.set_rid(rid)
        op = Op(item.kind, item.key, due, 0.0, rung=rung, lag_s=clock() - due)
        ops.append(op)
        try:
            future = submit(item.request)
        except Exception as error:  # shed at admission, or the wire broke
            op.end = clock()
            op.ok, op.error = False, type(error).__name__
            outstanding.release()
            continue
        future.add_done_callback(
            lambda done, item=item, op=op, rid=rid: completed(item, op, rid, done)
        )
    last_due = origin + arrivals[-1][0]
    give_up = last_due + timeout + 1.0
    for _ in arrivals:
        if not outstanding.acquire(timeout=max(0.0, give_up - clock())):
            break
    finished = clock()
    for op in ops:
        if op.end == 0.0:
            op.end, op.ok, op.error = finished, False, "Unanswered"
    return ops, max(op.end for op in ops) - last_due
