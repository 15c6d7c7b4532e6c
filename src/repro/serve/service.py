"""The embedded query service: a facade over the serving engine.

:class:`QueryService` is the in-process serving front-end, and a
**thin facade**: the behavior lives in
:class:`~repro.serve.engine.ServeEngine` (admission, in-flight
collapsing, micro-batching, segment matching, worker-pool execution
over shared caches), reached through a
:class:`~repro.serve.transport.LoopbackTransport` — the zero-copy
in-process adapter of the same transport API the socketpair and TCP
adapters implement, which passes the engine's result objects through
untouched, execution reports included.  The facade adds only the
convenience signatures (``submit(query, timeout=, optimize=)`` instead
of typed request dataclasses): its constructor hands its keyword
options to the engine as they are, and any attribute it does not define
(``stats``, ``batcher``, ``plan_cache``, ``queue_depth``, ...) is the
engine's own.  Anything it can do, a remote client can do over a wire
transport with the same typed errors
(:class:`~repro.exceptions.QueueFullError`,
:class:`~repro.exceptions.RequestTimeoutError`, ...), because both
drive the same engine through the same adapter seam.

The collapsing and bit-identity contracts documented here hold for
every transport: a request structurally identical to one *currently
executing* (same table, same relational-predicate fingerprint, same
mining predicates, same model catalog versions, same strategy) does not
execute again — it waits for the in-flight execution and receives the
same result rows.  Results are bit-identical to serial execution by
construction: every worker runs the same executor over the same
read-only data, and shared caches are either keyed exactly (plans,
stats) or row-independent (micro-batching); the stress suite verifies
byte-identical row sets under concurrency, timeouts, cache eviction,
and across every transport and router process count.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import Future

from repro.core.optimizer import MiningQuery
from repro.mining.base import Row
from repro.serve.engine import (
    MatchRequest,
    QueryRequest,
    SegmentMatchResult,
    ServeEngine,
    ServeResult,
    ServiceStats,
)
from repro.serve.registry import ModelRegistry
from repro.serve.transport import LoopbackTransport
from repro.sql.database import Database

__all__ = [
    "QueryService",
    "SegmentMatchResult",
    "ServeResult",
    "ServiceStats",
]


class QueryService:
    """Embedded, thread-concurrent mining-query service.

    Use as a context manager (or call :meth:`shutdown`); submitting after
    shutdown raises :class:`~repro.exceptions.ServiceStoppedError`.  The
    service serves **read-only** traffic over ``db``: load tables and
    build indexes through the primary handle before constructing it.
    ``engine_options`` are :class:`~repro.serve.engine.ServeEngine`'s
    keyword options, documented there.
    """

    def __init__(
        self, db: Database, registry: ModelRegistry, **engine_options
    ) -> None:
        self.engine = ServeEngine(db, registry, **engine_options)
        self._transport = LoopbackTransport(self.engine)

    def __getattr__(self, attribute: str):
        # Reached only for names not defined here: the rest of the
        # engine's surface.  ``engine`` itself is missing only on an
        # instance whose constructor never ran (copy, pickle probes).
        if attribute == "engine":
            raise AttributeError(attribute)
        return getattr(self.engine, attribute)

    def submit(
        self,
        query: MiningQuery,
        timeout: float | None = None,
        optimize: bool = True,
    ) -> "Future[ServeResult]":
        """Admit one request; returns a future resolving to its result.

        Raises :class:`~repro.exceptions.QueueFullError` when the bounded
        queue is full and :class:`~repro.exceptions.ServiceStoppedError`
        when draining or stopped; both are *synchronous* (the future is
        only created for admitted requests).  A request structurally
        identical to one currently executing collapses onto it without
        consuming a queue slot.
        """
        return self._transport.submit(
            QueryRequest(query=query, optimize=optimize, timeout=timeout)
        )

    def execute(
        self,
        query: MiningQuery,
        timeout: float | None = None,
        optimize: bool = True,
    ) -> ServeResult:
        """Synchronous :meth:`submit`; enforces the deadline while waiting.

        A wait that outlives the request's deadline raises
        :class:`~repro.exceptions.RequestTimeoutError`.  The underlying
        execution is not preempted mid-flight (SQLite has no safe
        cancellation point here); a timed-out request that was still
        queued is dropped unexecuted by its worker.
        """
        return self._transport.request(
            QueryRequest(query=query, optimize=optimize, timeout=timeout)
        )

    def submit_match(
        self,
        rows: "Sequence[Row]",
        segments: "Sequence[str] | None" = None,
        timeout: float | None = None,
    ) -> "Future[SegmentMatchResult]":
        """Admit one segment-match request; returns its future.

        The request rides the same admission controller, queue, and
        worker pool as prediction joins, so matching traffic and query
        traffic share one backpressure budget.  Identical concurrent
        requests (same catalog version, same segment subset, same row
        content) collapse onto the in-flight evaluation; distinct
        concurrent requests still coalesce inside the match batcher.
        """
        return self._transport.submit(
            MatchRequest(rows=rows, segments=segments, timeout=timeout)
        )

    def match_segments(
        self,
        rows: "Sequence[Row]",
        segments: "Sequence[str] | None" = None,
        timeout: float | None = None,
    ) -> SegmentMatchResult:
        """Synchronous :meth:`submit_match`; enforces the deadline."""
        return self._transport.request(
            MatchRequest(rows=rows, segments=segments, timeout=timeout)
        )

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting and wait for every admitted request to finish.

        Returns ``True`` when the service fully drained, ``False`` on
        timeout (requests may still be executing).  Draining is
        irreversible — pair it with :meth:`shutdown`.
        """
        return self.engine.drain(timeout=timeout)

    def shutdown(
        self, drain: bool = True, timeout: float | None = None
    ) -> bool:
        """Drain (optionally), stop the workers, release every resource.

        With ``drain=False`` (or after a drain timeout) queued requests
        fail with :class:`~repro.exceptions.ServiceStoppedError`.
        Idempotent; returns whether shutdown was clean (fully drained).
        """
        return self.engine.shutdown(drain=drain, timeout=timeout)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
