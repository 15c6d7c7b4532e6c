"""In-memory span recorder and the wrappers that feed it.

A span is ``[name, start, end, parent, rid, fields]``.  ``parent`` is the
index of the enclosing span in the same thread's list (``-1`` for a
thread-level root) and ``rid`` is the benchmark's request id, ``-1`` when
the work cannot be pinned to one request (a coalescing scorer thread).
Spans never leave memory while a workload runs; ``Recorder.dump`` writes
them at exit.

Self time of a span is its duration minus the durations of its direct
children, so the self times of a call tree sum to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

NAME, START, END, PARENT, RID, FIELDS = range(6)

#: Raw spans kept in the trace file; aggregates always cover all spans.
MAX_SPANS_WRITTEN = 20_000


class _ThreadState:
    """One thread's span list, open-span stack and request context."""

    __slots__ = ("thread", "spans", "stack", "rid", "frame_ids")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: Request id the thread is working for (set by the driver).
        self.rid = -1
        #: Wire request ids of decoded frames not yet claimed by a codec span.
        self.frame_ids: deque[int] = deque()


@dataclass
class Probe:
    """One wrapped target: where it lives and which span it emits.

    ``target`` is ``"module:attr.path"``.  A class method is patched on
    its class; a module function is patched at the module that *uses*
    it, so the name in ``target`` is the importing module's.
    ``before(recorder, state, args)`` may return the span's request id;
    ``after(recorder, state, span, args, result)`` may attach fields.
    """

    span: str
    target: str
    before: Callable | None = None
    after: Callable | None = None


@dataclass
class Recorder:
    """Collects spans from every thread that runs a wrapped target."""

    threads: list[_ThreadState] = field(default_factory=list)
    #: ``id(object) -> rid`` hand-off from a client thread to a worker.
    tags: dict[int, int] = field(default_factory=dict)
    #: Client-observed operations: ``(rid, kind, start, end)``.
    ops: list[tuple[int, str, float, float]] = field(default_factory=list)
    #: Span names whose target did not resolve.
    unresolved: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self.threads.append(state)
        return state

    def set_rid(self, rid: int) -> None:
        """Declare which request the calling thread works for from now on."""
        self.state().rid = rid

    def tag(self, obj: object, rid: int) -> None:
        """Let a worker thread recognise ``obj`` as belonging to ``rid``."""
        self.tags[id(obj)] = rid

    def add_op(self, rid: int, kind: str, start: float, end: float) -> None:
        with self._lock:
            self.ops.append((rid, kind, start, end))

    def wrap(self, probe: Probe, function: Callable) -> Callable:
        recorder, name = self, probe.span
        before, after = probe.before, probe.after
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = recorder.state()
            stack, spans = state.stack, state.spans
            parent = stack[-1] if stack else -1
            rid = before(recorder, state, args) if before is not None else None
            if rid is None:
                rid = spans[parent][RID] if parent >= 0 else state.rid
            span = [name, 0.0, 0.0, parent, rid, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(recorder, state, span, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, probes: list[Probe]) -> None:
        """Patch every probe's target; an unresolvable one only warns."""
        for probe in probes:
            try:
                owner, attribute, original = resolve(probe.target)
            except (ImportError, AttributeError) as error:
                self.unresolved.append(probe.span)
                self.warnings.append(
                    f"bench: probe {probe.span!r} target {probe.target!r} "
                    f"did not resolve ({error}); its metrics are null"
                )
                continue
            setattr(owner, attribute, self.wrap(probe, original))
            self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> "Summary":
        """Per span name: count, total and self seconds, summed fields.

        ``attributed_self_s`` counts only spans pinned to a request
        (``rid >= 0``): the part of client latency the trace explains.
        """
        out = Summary(unresolved=set(self.unresolved))
        for state in self.threads:
            own = self_times(state.spans)
            for span, self_seconds in zip(state.spans, own):
                entry = out.setdefault(
                    span[NAME],
                    {
                        "count": 0,
                        "total_s": 0.0,
                        "self_s": 0.0,
                        "attributed_self_s": 0.0,
                        "fields": {},
                    },
                )
                entry["count"] += 1
                entry["total_s"] += span[END] - span[START]
                entry["self_s"] += self_seconds
                if span[RID] >= 0:
                    entry["attributed_self_s"] += self_seconds
                if span[FIELDS]:
                    for key, value in span[FIELDS].items():
                        entry["fields"][key] = (
                            entry["fields"].get(key, 0) + value
                        )
        return out

    def dump(self, summary: "Summary") -> dict:
        """JSON-ready trace: aggregates plus the first raw spans."""
        raw = []
        total = 0
        for state in self.threads:
            total += len(state.spans)
            for index, span in enumerate(state.spans):
                if len(raw) >= MAX_SPANS_WRITTEN:
                    break
                raw.append(
                    {
                        "thread": state.thread,
                        "index": index,
                        "name": span[NAME],
                        "start": span[START],
                        "end": span[END],
                        "parent": span[PARENT],
                        "rid": span[RID],
                        "fields": span[FIELDS],
                    }
                )
        return {
            "spans_total": total,
            "spans_written": len(raw),
            "ops": [
                {"rid": rid, "kind": kind, "start": start, "end": end}
                for rid, kind, start, end in self.ops[:MAX_SPANS_WRITTEN]
            ],
            "summary": dict(summary),
            "unresolved": self.unresolved,
            "spans": raw,
        }


class Summary(dict):
    """``span name -> aggregates``, aware of which spans never resolved.

    ``value`` and ``field`` answer ``None`` for a span whose probe did
    not resolve and 0 for one that resolved but never ran.
    """

    def __init__(self, unresolved: set[str]) -> None:
        super().__init__()
        self.unresolved = unresolved

    def value(self, name: str, key: str = "self_s") -> float | None:
        if name in self.unresolved:
            return None
        return self.get(name, {}).get(key, 0.0)

    def field(self, name: str, key: str) -> float | None:
        if name in self.unresolved:
            return None
        return self.get(name, {}).get("fields", {}).get(key, 0)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def resolve(target: str) -> tuple[object, str, object]:
    """``"module:a.b"`` -> (owner object, final attribute, current value)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute, getattr(owner, attribute)
