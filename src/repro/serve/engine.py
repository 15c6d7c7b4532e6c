"""The transport-neutral serving core (``repro.serve.engine``).

:class:`ServeEngine` is *what the service does*, with no opinion about
how bytes reach it: requests are admitted (bounded, with deadlines),
queued, collapsed onto structurally identical in-flight executions, and
executed by a pool of worker threads over shared caches, speaking
**typed request/response dataclasses** so an in-process caller and any
transport adapter (:mod:`repro.serve.transport`) drive it the same way:

* :class:`QueryRequest` -> :class:`ServeResult` — one prediction join,
* :class:`MatchRequest` -> :class:`SegmentMatchResult` — one
  segment-match batch,
* :class:`DeployRequest` / :class:`RetireRequest` ->
  :class:`DeployResult` / :class:`RetireResult` — registry control,
  handled synchronously by :meth:`ServeEngine.control` so a router can
  broadcast catalog changes to every worker replica as ordinary
  messages (the deploy payload is the model's ``to_dict`` form, which
  makes registry state *broadcastable* rather than shared-by-reference).

Every worker holds its own read-only connection from a
:class:`~repro.serve.pool.ConnectionPool` and its own
:class:`~repro.sql.miningext.PredictionJoinExecutor`, while everything
cacheable is shared: one thread-safe
:class:`~repro.sql.plancache.PlanCache`, one table-statistics cache, one
:class:`~repro.sql.calibration.CalibrationStore`, one
:class:`~repro.serve.batcher.MicroBatcher`, and the registry's live
catalog.

Two contracts hold for every caller and every transport.  *Collapsing*:
a request structurally identical to one **currently executing** (same
table, same relational-predicate fingerprint, same mining predicates,
same model catalog versions, same strategy) does not execute again — it
waits for the in-flight execution and receives the same result rows.
*Bit-identity*: results equal serial execution by construction, because
every worker runs the same executor over the same read-only data, and
shared caches are either keyed exactly (plans, stats) or
row-independent (micro-batching); the stress suite verifies
byte-identical row sets under concurrency, timeouts, cache eviction,
and across every transport and router process count.

Construction is **leak-safe**: if any constructor step raises, every
resource already created (connection pool, batcher threads, worker
threads) is torn down before the exception propagates, so a failed
constructor never strands daemon threads or open connections.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace

from collections.abc import Sequence

from repro import obs
from repro.core.columns import RowSet
from repro.core.optimizer import MiningQuery
from repro.core.predicates import Value
from repro.exceptions import (
    AdmissionError,
    RequestTimeoutError,
    SchemaError,
    ServeError,
    ServiceStoppedError,
)
from repro.ir import fingerprint as ir_fingerprint
from repro.ir.batch import MaskCacheStats
from repro.mining.base import Row
from repro.mining.interchange import model_from_dict
from repro.segments.batcher import MatchBatcher
from repro.segments.catalog import SegmentCatalog
from repro.serve.admission import AdmissionController, Deadline
from repro.serve.batcher import BatchingCatalog, MicroBatcher
from repro.serve.pool import ConnectionPool
from repro.serve.registry import ModelRegistry
from repro.sql.calibration import CalibrationStore
from repro.sql.database import Database
from repro.sql.miningext import ExecutionReport, PredictionJoinExecutor
from repro.sql.plancache import PlanCache
from repro.sql.stats import TableStats


# ---------------------------------------------------------------------------
# Typed requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """One prediction-join request: a query plus serving knobs."""

    query: MiningQuery
    optimize: bool = True
    timeout: float | None = None


@dataclass(frozen=True)
class MatchRequest:
    """One segment-match request over explicit row content.

    ``rows`` is kept as given, not copied: a wire-decoded request holds
    a columnar :class:`~repro.core.columns.RowSet`, in-process callers
    may pass any sequence of row mappings (ragged ones cross a wire
    as a tuple of dicts).
    """

    rows: "Sequence[Row]"
    segments: tuple[str, ...] | None = None
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.segments is not None and not isinstance(
            self.segments, tuple
        ):
            object.__setattr__(self, "segments", tuple(self.segments))


@dataclass(frozen=True)
class DeployRequest:
    """Register-and-deploy one model from its serialized content.

    ``model`` is the :meth:`~repro.mining.base.MiningModel.to_dict`
    payload — self-contained and JSON-safe, so a router can broadcast
    the same deployment to every worker process and each replica
    derives identical envelopes (derivation is deterministic).
    ``rows`` carries training rows for families whose derivation needs
    them (clustering discretization); ``None`` otherwise.
    """

    model: dict
    rows: "Sequence[Row] | None" = None

    def __post_init__(self) -> None:
        if self.rows is not None and not isinstance(
            self.rows, (tuple, RowSet)
        ):
            object.__setattr__(self, "rows", tuple(self.rows))


@dataclass(frozen=True)
class RetireRequest:
    """Remove one deployed model from serving."""

    name: str


# ---------------------------------------------------------------------------
# Typed responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeResult:
    """One served request: result rows plus serving-side timings.

    ``rows`` is the execution report's own
    :class:`~repro.core.columns.RowSet` in process, and the one the
    client rebuilt from the response's column buffers over a wire.
    """

    rows: "Sequence[Row]"
    strategy: str
    queue_seconds: float
    execute_seconds: float
    collapsed: bool
    report: ExecutionReport | None

    @property
    def rows_returned(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SegmentMatchResult:
    """One served segment-match request: memberships plus timings.

    ``memberships`` is the row-major answer (per input row, the tuple of
    matching segment names); ``coalesced`` reports whether the request
    shared its evaluation with concurrent ones through the match
    batcher, ``collapsed`` whether it piggybacked on an identical
    in-flight request without evaluating at all.
    """

    memberships: tuple[tuple[str, ...], ...]
    segment_names: tuple[str, ...]
    catalog_version: int
    queue_seconds: float
    match_seconds: float
    collapsed: bool
    coalesced: bool
    mask_stats: MaskCacheStats

    @property
    def rows_matched(self) -> int:
        """Rows belonging to at least one segment."""
        return len([m for m in self.memberships if m])


@dataclass(frozen=True)
class DeployResult:
    """Outcome of one deployment, version-stamped for broadcast checks.

    ``catalog_version`` is the live catalog entry's version after
    publishing — a router asserts every worker replica reports the same
    stamp, so replicas can never silently diverge.
    """

    name: str
    version: int
    catalog_version: int
    labels: tuple[Value, ...] = field(default=())


@dataclass(frozen=True)
class RetireResult:
    """Outcome of one retirement (version of the version retired)."""

    name: str
    version: int


class ResultCache:
    """TTL'd, LRU-bounded cache of successful results by collapse key.

    The collapse key already carries every referenced model's catalog
    version, so a redeploy naturally changes the key and the stale entry
    simply ages out — no invalidation protocol needed.  A cached hit
    returns the original result object (its recorded queue/execute
    timings describe the execution that populated the entry).  Counters:
    ``serve.result_cache.hit`` / ``.miss``.
    """

    def __init__(self, ttl: float, max_entries: int = 1024) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.ttl = ttl
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple[float, object]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> object | None:
        now = time.monotonic()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] > now:
                self._entries.move_to_end(key)
                self.hits += 1
                obs.add_counter("serve.result_cache.hit")
                return entry[1]
            if entry is not None:
                del self._entries[key]
            self.misses += 1
            obs.add_counter("serve.result_cache.miss")
            return None

    def put(self, key: tuple, result: object) -> None:
        with self._lock:
            self._entries[key] = (time.monotonic() + self.ttl, result)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ServiceStats:
    """Thread-safe lifetime counters of one engine instance."""

    _FIELDS = (
        "submitted",
        "completed",
        "collapsed",
        "shed",
        "timeouts",
        "errors",
        "cancelled",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self._FIELDS}

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __getattr__(self, name: str) -> int:
        if name in ServiceStats._FIELDS:
            with self._lock:
                return self._counts[name]
        raise AttributeError(name)


class _Queued:
    """One admitted request travelling through the queue."""

    __slots__ = ("request", "future", "deadline", "enqueued_at", "key")

    def __init__(
        self,
        request: "QueryRequest | MatchRequest",
        future: "Future",
        deadline: Deadline | None,
        key: tuple | None,
    ) -> None:
        self.request = request
        self.future = future
        self.deadline = deadline
        self.enqueued_at = time.perf_counter()
        self.key = key


_SENTINEL = object()


class ServeEngine:
    """Admission, collapsing, micro-batching, and execution — no wires.

    Use as a context manager (or call :meth:`shutdown`); submitting
    after shutdown raises
    :class:`~repro.exceptions.ServiceStoppedError`.  The engine serves
    **read-only** traffic over ``db``: load tables and build indexes
    through the primary handle before constructing it.
    """

    def __init__(
        self,
        db: Database,
        registry: ModelRegistry,
        workers: int = 4,
        max_pending: int = 128,
        default_timeout: float | None = None,
        plan_cache: PlanCache | None = None,
        collapsing: bool = True,
        selectivity_gate: float | None = 0.2,
        segment_catalog: "SegmentCatalog | None" = None,
        result_ttl: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._registry = registry
        self._segments = segment_catalog
        # Every resource owning a thread or a connection is created
        # inside this try block and torn down on any later failure:
        # a constructor that raises must not strand daemon threads or
        # open connections (regression-tested).
        self._match_batcher: MatchBatcher | None = None
        self._pool: ConnectionPool | None = None
        self._batcher: MicroBatcher | None = None
        self._workers: list[threading.Thread] = []
        try:
            self._pool = ConnectionPool(db, read_only=True)
            self._controller = AdmissionController(
                max_pending,
                default_timeout=default_timeout,
                workers=workers,
            )
            self._result_cache = (
                None if result_ttl is None else ResultCache(result_ttl)
            )
            self._plan_cache = (
                plan_cache if plan_cache is not None else PlanCache(256)
            )
            self._stats_cache: dict[str, TableStats] = {}
            # One calibration store next to the stats cache: observations
            # from any worker refine every worker's estimates, and the
            # shared plan cache recalibrates against the shared overlay.
            self._calibration = CalibrationStore()
            if segment_catalog is not None:
                self._match_batcher = MatchBatcher(segment_catalog)
            self._batcher = MicroBatcher(registry.catalog)
            self._exec_catalog = BatchingCatalog(
                registry.catalog, self._batcher
            )
            self._collapsing = collapsing
            self._selectivity_gate = selectivity_gate
            self.stats = ServiceStats()
            self._queue: "queue.Queue" = queue.Queue()
            self._lock = threading.Lock()
            self._done = threading.Condition(self._lock)
            self._inflight: dict[tuple, "Future"] = {}
            self._draining = False
            self._stopped = False
            self._workers = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serve-worker-{index}",
                    daemon=True,
                )
                for index in range(workers)
            ]
            for worker in self._workers:
                worker.start()
        except BaseException:
            self._release()
            raise

    def _release(self) -> None:
        """Stop every thread and close the pool: all of them at
        shutdown, whichever a failed constructor had got to."""
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for worker in self._workers:
            if worker.is_alive():  # a failed constructor started not all
                worker.join()
        for batcher in (self._batcher, self._match_batcher):
            if batcher is not None:
                batcher.stop()
        if self._pool is not None:
            self._pool.close_all()

    # -- public API --------------------------------------------------------

    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    @property
    def plan_cache(self) -> PlanCache:
        return self._plan_cache

    @property
    def batcher(self) -> MicroBatcher:
        """The micro-batcher every worker's executor scores through."""
        assert self._batcher is not None
        return self._batcher

    @property
    def segments(self) -> "SegmentCatalog | None":
        """The live segment catalog (``None`` without one)."""
        return self._segments

    @property
    def match_batcher(self) -> "MatchBatcher | None":
        """The segment match batcher (``None`` without a catalog)."""
        return self._match_batcher

    @property
    def queue_depth(self) -> int:
        """Admitted, unfinished requests (queued plus executing)."""
        return self._controller.pending

    @property
    def admission(self) -> AdmissionController:
        """The admission controller."""
        return self._controller

    @property
    def result_cache(self) -> "ResultCache | None":
        """The TTL'd result cache (``None`` when ``result_ttl`` unset)."""
        return self._result_cache

    def submit(self, request: "QueryRequest | MatchRequest") -> "Future":
        """Admit one typed request; returns a future for its result.

        Raises :class:`~repro.exceptions.QueueFullError` when the bounded
        queue is full (also
        :class:`~repro.exceptions.DeadlineShedError` when the deadline is
        predicted infeasible) and
        :class:`~repro.exceptions.ServiceStoppedError` when draining or
        stopped; all are *synchronous* (the future is only created for
        admitted requests).  A request structurally identical to one
        currently executing collapses onto it without consuming a queue
        slot; with a result cache configured, a fresh cached result
        answers without queueing at all.
        """
        if isinstance(request, MatchRequest) and self._match_batcher is None:
            raise ServeError(
                "engine was constructed without a segment catalog; "
                "pass segment_catalog= to enable match requests"
            )
        if self._draining or self._stopped:
            obs.add_counter("serve.request.rejected_stopped")
            raise ServiceStoppedError("service is draining or stopped")
        self.stats.increment("submitted")
        obs.add_counter("serve.request.submitted")
        key = self._collapse_key(request)
        if key is not None:
            if self._result_cache is not None:
                cached = self._result_cache.get(key)
                if cached is not None:
                    hit: "Future" = Future()
                    hit.set_result(cached)
                    return hit
            with self._lock:
                primary = self._inflight.get(key)
                if primary is not None:
                    return self._attach(primary)
        deadline = self._controller.deadline_for(request.timeout)
        try:
            self._controller.admit(
                kind=_request_kind(request), deadline=deadline
            )
        except AdmissionError:
            self.stats.increment("shed")
            raise
        future: "Future" = Future()
        self._queue.put(_Queued(request, future, deadline, key))
        return future

    def execute(self, request: "QueryRequest | MatchRequest"):
        """Synchronous :meth:`submit`; enforces the deadline while waiting.

        A wait that outlives the request's deadline raises
        :class:`~repro.exceptions.RequestTimeoutError`.  The underlying
        execution is not preempted mid-flight (SQLite has no safe
        cancellation point here); a timed-out request that was still
        queued is dropped unexecuted by its worker.
        """
        deadline = self._controller.deadline_for(request.timeout)
        future = self.submit(request)
        try:
            return future.result(
                timeout=None if deadline is None else deadline.remaining()
            )
        except FutureTimeoutError:
            self._count_timeout(future)
            raise RequestTimeoutError(
                f"request exceeded its {deadline.timeout:.3f}s deadline"
            ) from None

    def control(
        self, request: "DeployRequest | RetireRequest"
    ) -> "DeployResult | RetireResult":
        """Apply one registry control message and return its stamp.

        Control traffic bypasses the request queue: deployments and
        retirements serialize on the registry's own lock, and their
        results carry the resulting catalog version so broadcast
        replicas can be checked for agreement.
        """
        if self._stopped:
            raise ServiceStoppedError("service is draining or stopped")
        if isinstance(request, DeployRequest):
            model = model_from_dict(request.model)
            entry = self._registry.register(
                model, rows=request.rows, deploy=True
            )
            assert entry.envelopes is not None
            return DeployResult(
                name=entry.name,
                version=entry.version,
                catalog_version=self._registry.catalog.entry(
                    entry.name
                ).version,
                labels=tuple(sorted(entry.envelopes, key=str)),
            )
        if isinstance(request, RetireRequest):
            entry = self._registry.retire(request.name)
            return RetireResult(name=entry.name, version=entry.version)
        raise ServeError(
            f"unsupported control request {type(request).__name__}"
        )

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting and wait for every admitted request to finish.

        Returns ``True`` when the engine fully drained, ``False`` on
        timeout (requests may still be executing).  Draining is
        irreversible — pair it with :meth:`shutdown`.
        """
        self._draining = True
        obs.event("serve.drain", pending=self._controller.pending)
        deadline = Deadline.from_timeout(timeout)
        with self._done:
            while self._controller.pending > 0:
                remaining = (
                    None if deadline is None else deadline.remaining()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._done.wait(
                    timeout=0.1 if remaining is None else min(remaining, 0.1)
                )
        return True

    def shutdown(
        self, drain: bool = True, timeout: float | None = None
    ) -> bool:
        """Drain (optionally), stop the workers, release every resource.

        With ``drain=False`` (or after a drain timeout) queued requests
        fail with :class:`~repro.exceptions.ServiceStoppedError`.
        Idempotent; returns whether shutdown was clean (fully drained).
        """
        if self._stopped:
            return True
        clean = self.drain(timeout=timeout) if drain else False
        self._stopped = True
        self._draining = True
        if not clean:
            self._fail_queued()
        self._release()
        obs.event("serve.shutdown", clean=clean)
        return clean

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- internals ---------------------------------------------------------

    def _collapse_key(
        self, request: "QueryRequest | MatchRequest"
    ) -> tuple | None:
        """Identity under which concurrent requests may share a result.

        Query requests include every referenced model's *catalog
        version*, so a request racing a redeploy never collapses onto an
        execution against the old envelopes; match requests are keyed on
        exact row content — the row count plus name-sorted per-column
        value tuples, so no per-row work; sorted rows only when they are
        ragged — and the segment catalog version.  ``None`` disables
        collapsing for this request.
        """
        if not self._collapsing:
            return None
        if isinstance(request, MatchRequest):
            assert self._segments is not None
            try:
                table = RowSet.from_rows(request.rows)
                content = len(table), *sorted(zip(table.names, table.columns))
            except SchemaError:
                content = tuple(
                    tuple(sorted(row.items())) for row in request.rows
                )
            return (
                "segments",
                self._segments.version,
                request.segments,
                content,
            )
        query = request.query
        names: list[str] = []
        for predicate in query.mining_predicates:
            for name in predicate.models():
                if name not in names:
                    names.append(name)
        versions = tuple(
            (name, self._registry.catalog.entry(name).version)
            for name in names
        )
        return (
            query.table,
            ir_fingerprint(query.relational_predicate),
            tuple(p.describe() for p in query.mining_predicates),
            request.optimize,
            versions,
        )

    def _count_timeout(self, future: "Future") -> None:
        """Count one timed-out request once.

        A caller whose :meth:`execute` wait lapsed and the worker that
        later dequeues the same, now expired, request both see the
        timeout; the mark on the request's future lets only the first
        of them count it.
        """
        with self._lock:
            if getattr(future, "timeout_counted", False):
                return
            future.timeout_counted = True
        self.stats.increment("timeouts")
        obs.add_counter("serve.request.timeout")

    def _attach(self, primary: "Future") -> "Future":
        """A dependent future resolving with the in-flight execution."""
        self.stats.increment("collapsed")
        obs.add_counter("serve.request.collapsed")
        dependent: "Future" = Future()

        def propagate(done: "Future") -> None:
            if dependent.cancelled():
                return
            error = done.exception()
            try:
                if error is not None:
                    dependent.set_exception(error)
                else:
                    dependent.set_result(
                        replace(done.result(), collapsed=True)
                    )
            except Exception:
                # The dependent was cancelled between the check and the
                # set; its waiter already gave up.
                pass

        primary.add_done_callback(propagate)
        return dependent

    def _worker_loop(self) -> None:
        assert self._pool is not None
        db = self._pool.get()
        executor = PredictionJoinExecutor(
            db,
            self._exec_catalog,
            selectivity_gate=self._selectivity_gate,
            plan_cache=self._plan_cache,
            stats_cache=self._stats_cache,
            calibration=self._calibration,
        )
        while True:
            queued = self._queue.get()
            if queued is _SENTINEL:
                return
            self._handle(queued, executor)

    def _handle(
        self, queued: _Queued, executor: PredictionJoinExecutor
    ) -> None:
        try:
            queue_seconds = time.perf_counter() - queued.enqueued_at
            if not queued.future.set_running_or_notify_cancel():
                self.stats.increment("cancelled")
                obs.add_counter("serve.request.cancelled")
                return
            if queued.deadline is not None and queued.deadline.expired:
                self._count_timeout(queued.future)
                self._controller.record_outcome(
                    _request_kind(queued.request), None, ok=False
                )
                queued.future.set_exception(
                    RequestTimeoutError(
                        "request spent its whole "
                        f"{queued.deadline.timeout:.3f}s deadline queued"
                    )
                )
                return
            if queued.key is not None:
                with self._lock:
                    primary = self._inflight.get(queued.key)
                    if primary is None:
                        self._inflight[queued.key] = queued.future
                    else:
                        # A duplicate was dequeued while its twin
                        # executes: collapse at the worker, too.
                        dependent = self._attach(primary)
                        dependent.add_done_callback(
                            _forward_to(queued.future)
                        )
                        return
            try:
                if isinstance(queued.request, MatchRequest):
                    result: object = self._execute_match(
                        queued.request, queue_seconds
                    )
                else:
                    result = self._execute_query(
                        queued.request, queue_seconds, executor
                    )
                self.stats.increment("completed")
                obs.add_counter("serve.request.completed")
                service_seconds = (
                    result.match_seconds
                    if isinstance(result, SegmentMatchResult)
                    else result.execute_seconds
                )
                # Feedback before resolving the future: a caller that
                # saw its result can rely on the controller's estimator
                # and limit already reflecting it.
                self._controller.record_outcome(
                    _request_kind(queued.request),
                    service_seconds,
                    ok=queued.deadline is None
                    or not queued.deadline.expired,
                )
                if (
                    self._result_cache is not None
                    and queued.key is not None
                ):
                    self._result_cache.put(queued.key, result)
                queued.future.set_result(result)
            except BaseException as error:
                self.stats.increment("errors")
                obs.add_counter("serve.request.error")
                queued.future.set_exception(error)
            finally:
                if queued.key is not None:
                    with self._lock:
                        if self._inflight.get(queued.key) is queued.future:
                            del self._inflight[queued.key]
        finally:
            self._controller.release()
            with self._done:
                self._done.notify_all()

    def _execute_query(
        self,
        request: QueryRequest,
        queue_seconds: float,
        executor: PredictionJoinExecutor,
    ) -> ServeResult:
        with obs.span("serve.request", table=request.query.table) as span:
            started = time.perf_counter()
            report = executor.execute(
                request.query, optimize_query=request.optimize
            )
            execute_seconds = time.perf_counter() - started
            span.update(
                queue_seconds=queue_seconds,
                rows_returned=report.rows_returned,
                strategy=report.strategy,
            )
        return ServeResult(
            rows=report.rows,
            strategy=report.strategy,
            queue_seconds=queue_seconds,
            execute_seconds=execute_seconds,
            collapsed=False,
            report=report,
        )

    def _execute_match(
        self, request: MatchRequest, queue_seconds: float
    ) -> SegmentMatchResult:
        """Run one segment-match request through the match batcher."""
        assert self._match_batcher is not None
        with obs.span("serve.match", rows=len(request.rows)) as span:
            started = time.perf_counter()
            matches, coalesced = self._match_batcher.match(
                request.rows, request.segments
            )
            match_seconds = time.perf_counter() - started
            span.update(
                queue_seconds=queue_seconds,
                segments=len(matches.names),
                rows_matched=matches.rows_matched,
                coalesced=coalesced,
            )
        return SegmentMatchResult(
            memberships=matches.memberships,
            segment_names=matches.names,
            catalog_version=matches.catalog_version,
            queue_seconds=queue_seconds,
            match_seconds=match_seconds,
            collapsed=False,
            coalesced=coalesced,
            mask_stats=matches.stats,
        )

    def _fail_queued(self) -> None:
        """Fail every still-queued request during a non-drained shutdown."""
        while True:
            try:
                queued = self._queue.get_nowait()
            except queue.Empty:
                return
            if queued is _SENTINEL:
                continue
            if queued.future.set_running_or_notify_cancel():
                queued.future.set_exception(
                    ServiceStoppedError("service stopped before execution")
                )
            self._controller.release()
            with self._done:
                self._done.notify_all()


def _request_kind(request: "QueryRequest | MatchRequest") -> str:
    """The admission/estimation kind of a typed request."""
    return "match" if isinstance(request, MatchRequest) else "query"


def _forward_to(target: "Future"):
    """A done-callback copying one future's outcome onto another."""

    def forward(done: "Future") -> None:
        error = done.exception()
        try:
            if error is not None:
                target.set_exception(error)
            else:
                target.set_result(done.result())
        except Exception:
            pass

    return forward
