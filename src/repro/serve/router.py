"""Multi-process request router (``repro.serve.router``).

:class:`ProcessRouter` breaks the GIL ceiling by fanning requests out to
N worker *processes*, each running its own
:class:`~repro.serve.engine.ServeEngine` — its own read-only connection
pool, registry replica, :class:`~repro.sql.plancache.PlanCache`, and
:class:`~repro.sql.calibration.CalibrationStore` — behind one
socketpair speaking the framed wire protocol.  Nothing is shared by
reference between processes; everything a worker needs is either

* rebuilt deterministically by the picklable ``bootstrap`` callable the
  router is given (dataset, indexes, segment catalog), or
* **broadcast** as version-stamped catalog messages:
  :meth:`ProcessRouter.control` sends every
  :class:`~repro.serve.engine.DeployRequest` /
  :class:`~repro.serve.engine.RetireRequest` to every worker and
  asserts the returned catalog versions agree, so replicas can never
  silently diverge (and a deploy is a model ``to_dict`` payload, not a
  pickled object graph).

Routing is **deterministic**: a request is hashed over its canonical
wire encoding (timeout excluded) and pinned to ``hash % N``, so the
same request schedule lands on the same workers every run — which is
what lets the bench assert byte-identical results across 1/2/4-process
configurations, and keeps each worker's plan/calibration caches hot for
its share of the request space.

Failure is typed and survivable: a worker that dies mid-request fails
its in-flight requests with
:class:`~repro.exceptions.WorkerCrashedError` (a
:class:`~repro.exceptions.TransportError`), and the router respawns the
slot — replaying the ordered deploy/retire log so the replacement's
replica catches up to the live catalog — before taking new traffic for
it (``serve.router.respawn`` counter, ``serve.router.workers`` gauge).

Per-process observability: pass ``trace_dir`` and each worker writes
its own ``trace_serve_worker_<index>.jsonl`` shard, merged
deterministically by ``trace-report`` exactly like the sweep workers'
shards (shards are read in sorted filename order; respawned workers
append to their slot's shard).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import socket
import threading

from repro import obs
from repro.exceptions import ServeError, WorkerCrashedError
from repro.serve.engine import (
    DeployRequest,
    DeployResult,
    MatchRequest,
    QueryRequest,
    RetireRequest,
    RetireResult,
)
from repro.serve.protocol import canonical_body, encode_request
from repro.serve.transport import SocketServer, SocketTransport, Transport

#: Wait budget for a worker to exit after its socket closes.
_JOIN_TIMEOUT = 10.0


def _start_method() -> str:
    """Fork when the platform has it (cheap, inherits the bootstrap's
    closure-free module state); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_main(
    sock: "socket.socket",
    bootstrap,
    args: tuple,
    trace_dir: "str | None",
    index: int,
) -> None:
    """Worker process body: build an engine, serve one socket until EOF.

    Runs in the child.  Tracing is re-configured first thing — the
    inherited parent tracer drops all writes from a forked child, so
    without an explicit per-process sink a worker would be blind.  The
    shard label is stable per router slot (``serve_worker_<index>``) and
    the sink appends, so a respawned worker extends its predecessor's
    shard rather than clobbering it.
    """
    obs.configure(trace_dir, label=f"serve_worker_{index}")
    engine = bootstrap(*args)
    try:
        server = SocketServer(engine, sock, name="router", threaded=False)
        server.serve_forever()
    finally:
        engine.shutdown()
        obs.flush()


def _route_key(request: "QueryRequest | MatchRequest") -> bytes:
    """Canonical routing bytes: the wire encoding minus the timeout.

    The timeout is delivery metadata, not request identity — the same
    query with a different deadline must land on the same worker (same
    caches, same collapse window).
    """
    payload = encode_request(request)
    payload.pop("timeout", None)
    return canonical_body(payload)


class ProcessRouter(Transport):
    """Deterministic fan-out of serving requests to N engine processes.

    ``bootstrap`` must be a **top-level callable** (picklable under
    spawn, importable under fork) returning a fully-loaded
    :class:`~repro.serve.engine.ServeEngine`; ``args`` are passed to it
    in the worker process.  Deploy models through
    :meth:`control` broadcasts rather than inside the bootstrap when
    you need the version-stamped agreement check.
    """

    name = "router"

    def __init__(
        self,
        bootstrap,
        args: tuple = (),
        processes: int = 2,
        trace_dir: "str | None" = None,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self._bootstrap = bootstrap
        self._args = tuple(args)
        self._trace_dir = trace_dir
        self._context = multiprocessing.get_context(_start_method())
        self._lock = threading.Lock()
        self._closing = False
        self._control_log: list["DeployRequest | RetireRequest"] = []
        self._transports: list[SocketTransport] = []
        self._processes: list = []
        try:
            for index in range(processes):
                transport, process = self._spawn(index)
                self._transports.append(transport)
                self._processes.append(process)
        except BaseException:
            self.close()
            raise
        obs.set_gauge("serve.router.workers", processes)

    # -- lifecycle -------------------------------------------------------

    def _spawn(self, index: int) -> tuple[SocketTransport, object]:
        parent_sock, child_sock = socket.socketpair()
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_sock,
                self._bootstrap,
                self._args,
                self._trace_dir,
                index,
            ),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        # The parent's copy of the child end must close, or a dead
        # worker's socket would never read as EOF here.
        child_sock.close()
        transport = SocketTransport(
            parent_sock,
            name=f"router-{index}",
            close_error=WorkerCrashedError,
            on_close=lambda _t, index=index: self._respawn(index),
        )
        return transport, process

    def _respawn(self, index: int) -> None:
        """Replace a dead worker and replay the catalog broadcast log.

        Runs on the dead transport's reader thread, right after every
        in-flight request of that worker failed with
        :class:`~repro.exceptions.WorkerCrashedError`.  New submissions
        racing the respawn fail the same way — typed, retryable.
        """
        with self._lock:
            if self._closing:
                return
            dead = self._processes[index]
            obs.add_counter("serve.router.respawn")
            obs.event("serve.router.respawn", worker=index)
            dead.join(timeout=_JOIN_TIMEOUT)
            transport, process = self._spawn(index)
            # The replacement's replica is a fresh bootstrap; bring its
            # catalog up to the live version before exposing it.
            for request in self._control_log:
                transport.control(request)
            self._transports[index] = transport
            self._processes[index] = process

    def close(self) -> None:
        """Stop every worker (EOF -> engine shutdown) and reap it."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            transports = list(self._transports)
            processes = list(self._processes)
        for transport in transports:
            transport.close()
        for process in processes:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)
        obs.set_gauge("serve.router.workers", 0)

    shutdown = close

    # -- transport API -----------------------------------------------------

    @property
    def processes(self) -> int:
        """Configured worker count (dead slots respawn to keep it)."""
        return len(self._transports)

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """Live worker process ids, by slot (chaos-testing hook)."""
        with self._lock:
            return tuple(p.pid for p in self._processes)

    def route_index(self, request: "QueryRequest | MatchRequest") -> int:
        """The worker slot a request is pinned to (stable across runs)."""
        digest = hashlib.sha256(_route_key(request)).digest()
        return int.from_bytes(digest[:8], "big") % len(self._transports)

    def submit(self, request):
        if isinstance(request, (DeployRequest, RetireRequest)):
            raise ServeError(
                "control requests go through ProcessRouter.control "
                "(they broadcast; submit routes to one worker)"
            )
        index = self.route_index(request)
        with self._lock:
            if self._closing:
                raise WorkerCrashedError("router is closed")
            transport = self._transports[index]
        obs.add_counter(f"serve.transport.requests.{self.name}")
        return transport.submit(request)

    def request(self, request):
        index = self.route_index(request)
        with self._lock:
            if self._closing:
                raise WorkerCrashedError("router is closed")
            transport = self._transports[index]
        obs.add_counter(f"serve.transport.requests.{self.name}")
        return transport.request(request)

    def control(
        self, request: "DeployRequest | RetireRequest"
    ) -> "DeployResult | RetireResult":
        """Broadcast one deploy/retire to every worker replica.

        All replicas must report the same version stamps — disagreement
        means the replicas diverged (e.g. a bootstrap deployed extra
        models on some workers only) and raises
        :class:`~repro.exceptions.ServeError` rather than serving from
        inconsistent catalogs.  The request is appended to the ordered
        control log respawned workers replay.
        """
        with self._lock:
            if self._closing:
                raise WorkerCrashedError("router is closed")
            transports = list(self._transports)
            results = [t.control(request) for t in transports]
            first = results[0]
            for other in results[1:]:
                if other != first:
                    raise ServeError(
                        "worker replicas diverged on "
                        f"{type(request).__name__}: {first!r} != {other!r}"
                    )
            self._control_log.append(request)
        return first

    def __enter__(self) -> "ProcessRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
