"""Pluggable serving transports (``repro.serve.transport``).

The harness/adapter split: :class:`~repro.serve.engine.ServeEngine` is
the harness, and everything here adapts *some* byte (or object) channel
onto it.  Three adapters, one client API
(:meth:`Transport.submit` / :meth:`Transport.request` /
:meth:`Transport.control`):

* :class:`LoopbackTransport` — in-process, no serialization: the
  engine's own ``submit`` / ``execute`` behind the client API, so
  embedded serving pays zero new cost and keeps full
  :class:`~repro.sql.miningext.ExecutionReport` objects.
* :class:`SocketTransport` over a ``socket.socketpair()`` — the framed
  wire protocol without networking, used by the multi-process router
  (one socketpair per worker) and as the cheapest full-codec test bed.
  :func:`serve_socketpair` wires one up against an engine in-process.
* :class:`SocketTransport` over TCP (:func:`connect_tcp`) against
  :class:`TCPServer` — a real networked front-end: a listening socket
  whose accept thread hands each connection to the same
  :class:`SocketServer` loop the socketpair path runs.  Execution still
  happens on the engine's worker pool; a connection's thread only
  frames and unframes bytes, and the workers write the responses,
  which is why an accepted socket carries :data:`SEND_TIMEOUT`.

Server-side, :class:`EngineDispatcher` is the one request pump all byte
transports share: it feeds arriving bytes through a
:class:`~repro.serve.protocol.FrameDecoder`, applies control frames
synchronously, submits query/match frames to the engine, and answers
from engine worker threads through a thread-safe ``send`` callable.
Every engine-side failure crosses back as a typed error frame — a
client sees the same :class:`~repro.exceptions.QueueFullError` or
:class:`~repro.exceptions.RequestTimeoutError` it would have caught
in-process.

Transport traffic is observable: ``serve.transport.frames.in/out`` and
``serve.transport.bytes.in/out`` counters, plus per-transport
``serve.transport.requests.<name>`` — surfaced by the ``trace-report``
Transport section.
"""

from __future__ import annotations

import itertools
import random
import socket
import struct
import threading
import time
import weakref
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

from repro import obs
from repro.exceptions import (
    ProtocolError,
    RequestTimeoutError,
    TransportError,
    WorkerCrashedError,
)
from repro.serve.engine import (
    DeployRequest,
    DeployResult,
    MatchRequest,
    QueryRequest,
    RetireRequest,
    RetireResult,
    ServeEngine,
)
from repro.serve.protocol import (
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    FrameDecoder,
    decode_error,
    decode_request,
    decode_response,
    encode_error,
    encode_frame,
    encode_request,
    encode_response,
)

#: Read chunk of both receive loops (client reader, server reader).
RECV_BYTES = 65536

#: Whole seconds an accepted TCP connection may take no byte of a
#: response before the server drops it.  Engine workers write responses
#: themselves, so this bounds what a peer that stops reading costs them.
SEND_TIMEOUT = 5


def _hang_up(sock: "socket.socket") -> None:
    """Shut down, then close: the shutdown wakes a thread blocked in
    ``recv``/``accept`` on the socket, closing the descriptor would not."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class Transport:
    """The client API every transport adapter implements."""

    name: str = "abstract"

    def submit(
        self, request: "QueryRequest | MatchRequest"
    ) -> "Future":
        raise NotImplementedError

    def request(self, request: "QueryRequest | MatchRequest"):
        """Synchronous :meth:`submit`, deadline enforced while waiting."""
        raise NotImplementedError

    def control(
        self, request: "DeployRequest | RetireRequest"
    ) -> "DeployResult | RetireResult":
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class LoopbackTransport(Transport):
    """In-process adapter: typed objects pass through untouched.

    No frames, no serialization, no copies —
    :class:`~repro.serve.engine.ServeResult` objects keep their full
    execution reports.  Closing the loopback does **not** shut the
    engine down; the engine's owner does that.
    """

    name = "inproc"

    def __init__(self, engine: ServeEngine) -> None:
        self._engine = engine

    def submit(self, request):
        obs.add_counter(f"serve.transport.requests.{self.name}")
        return self._engine.submit(request)

    def request(self, request):
        obs.add_counter(f"serve.transport.requests.{self.name}")
        return self._engine.execute(request)

    def control(self, request):
        return self._engine.control(request)

    def close(self) -> None:
        pass


class EngineDispatcher:
    """Server half shared by every byte transport.

    Feed it raw bytes; it decodes frames, runs control frames inline,
    submits query/match frames to the engine, and sends typed response
    or error frames back through ``send`` — which MUST be safe to call
    from any thread, because responses fire from engine worker threads.
    A :class:`~repro.exceptions.ProtocolError` out of :meth:`feed`
    means the stream is corrupt and the connection must be closed.
    """

    def __init__(self, engine: ServeEngine, transport_name: str, send) -> None:
        self._engine = engine
        self._name = transport_name
        self._send = send
        self._decoder = FrameDecoder()

    def feed(self, data: bytes) -> None:
        obs.add_counter("serve.transport.bytes.in", len(data))
        for frame in self._decoder.feed(data):
            obs.add_counter("serve.transport.frames.in")
            obs.add_counter(f"serve.transport.requests.{self._name}")
            self._dispatch(frame.request_id, frame.payload)

    def _dispatch(self, request_id: int, payload: dict) -> None:
        try:
            request = decode_request(payload)
        except ProtocolError as error:
            self._reply_error(request_id, error)
            return
        if isinstance(request, (DeployRequest, RetireRequest)):
            try:
                self._reply_response(
                    request_id, self._engine.control(request)
                )
            except BaseException as error:
                self._reply_error(request_id, error)
            return
        try:
            future = self._engine.submit(request)
        except BaseException as error:
            # Admission failures (queue full, stopped) are synchronous.
            self._reply_error(request_id, error)
            return
        future.add_done_callback(
            lambda done: self._reply_future(request_id, done)
        )

    def _reply_future(self, request_id: int, done: "Future") -> None:
        error = done.exception()
        if error is not None:
            self._reply_error(request_id, error)
        else:
            self._reply_response(request_id, done.result())

    def _reply_response(self, request_id: int, result) -> None:
        try:
            frame = encode_frame(
                KIND_RESPONSE, request_id, encode_response(result)
            )
        except ProtocolError as error:
            self._reply_error(request_id, error)
            return
        self._emit(frame)

    def _reply_error(self, request_id: int, error: BaseException) -> None:
        self._emit(
            encode_frame(KIND_ERROR, request_id, encode_error(error))
        )

    def _emit(self, frame: bytes) -> None:
        obs.add_counter("serve.transport.frames.out")
        obs.add_counter("serve.transport.bytes.out", len(frame))
        self._send(frame)


class SocketTransport(Transport):
    """Framed-protocol client over any connected stream socket.

    One connection multiplexes any number of concurrent requests by
    request id; a daemon reader thread resolves their futures as
    response/error frames arrive.  Connection loss fails every
    in-flight request with ``close_error`` (default
    :class:`~repro.exceptions.TransportError`; the router passes
    :class:`~repro.exceptions.WorkerCrashedError`) and fires
    ``on_close`` exactly once — the router's respawn hook.
    """

    def __init__(
        self,
        sock: "socket.socket",
        name: str = "socket",
        close_error: type = TransportError,
        on_close=None,
    ) -> None:
        self.name = name
        self._sock = sock
        self._close_error = close_error
        self._on_close = on_close
        self._write_lock = threading.Lock()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: dict[int, "Future"] = {}
        self.closed = False
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-transport-{name}-reader",
            daemon=True,
        )
        self._reader.start()

    # -- client API ----------------------------------------------------

    def submit(self, request) -> "Future":
        payload = encode_request(request)
        future: "Future" = Future()
        with self._lock:
            if self.closed:
                raise self._close_error(
                    f"{self.name} transport is closed"
                )
            request_id = next(self._ids)
            self._pending[request_id] = future
        frame = encode_frame(KIND_REQUEST, request_id, payload)
        try:
            with self._write_lock:
                self._sock.sendall(frame)
        except OSError as error:
            with self._lock:
                self._pending.pop(request_id, None)
            raise self._close_error(
                f"{self.name} transport send failed: {error}"
            ) from error
        return future

    def request(self, request):
        """Synchronous :meth:`submit`; enforces the request deadline.

        Server-side admission and queue deadlines still apply (they come
        back as typed error frames); this guards the client's *wait*, so
        a request with a timeout can never block its caller longer than
        that timeout plus one network round trip.
        """
        timeout = getattr(request, "timeout", None)
        try:
            return self.submit(request).result(timeout=timeout)
        except FutureTimeoutError:
            raise RequestTimeoutError(
                f"request exceeded its {timeout:.3f}s deadline "
                "waiting on the transport"
            ) from None

    def control(self, request):
        return self.submit(request).result()

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
        _hang_up(self._sock)
        if self._reader is not threading.current_thread():
            self._reader.join(timeout=5)
        self._fail_pending(self._close_error(f"{self.name} transport closed"))

    # -- reader ----------------------------------------------------------

    def _read_loop(self) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = self._sock.recv(RECV_BYTES)
                if not data:
                    break
                for frame in decoder.feed(data):
                    self._resolve(frame)
        except (OSError, ProtocolError):
            pass
        was_closed = self.closed
        with self._lock:
            self.closed = True
        self._fail_pending(
            self._close_error(
                f"{self.name} transport connection lost with the "
                "request in flight"
            )
        )
        if not was_closed and self._on_close is not None:
            self._on_close(self)

    def _resolve(self, frame) -> None:
        with self._lock:
            future = self._pending.pop(frame.request_id, None)
        if future is None:
            return
        try:
            if frame.kind == KIND_RESPONSE:
                future.set_result(decode_response(frame.payload))
            elif frame.kind == KIND_ERROR:
                future.set_exception(decode_error(frame.payload))
            else:
                future.set_exception(
                    ProtocolError(
                        f"unexpected frame kind {frame.kind} in response"
                    )
                )
        except ProtocolError as error:
            future.set_exception(error)

    def _fail_pending(self, error: BaseException) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(error)


class SocketServer:
    """Blocking server loop: one connected socket onto one engine.

    Runs a daemon thread reading the socket into an
    :class:`EngineDispatcher`; exits on EOF or a corrupt stream.  Used
    for socketpair serving in-process, for every connection a
    :class:`TCPServer` accepts, and as the worker-side loop of the
    multi-process router (where it runs on the worker's main thread via
    :meth:`serve_forever`).
    """

    def __init__(
        self,
        engine: ServeEngine,
        sock: "socket.socket",
        name: str = "socketpair",
        threaded: bool = True,
    ) -> None:
        self._sock = sock
        self._write_lock = threading.Lock()
        self.dispatcher = EngineDispatcher(engine, name, self._send)
        self._thread: "threading.Thread | None" = None
        if threaded:
            self._thread = threading.Thread(
                target=self.serve_forever,
                name=f"repro-transport-{name}-server",
                daemon=True,
            )
            self._thread.start()

    def _send(self, frame: bytes) -> None:
        with self._write_lock:
            try:
                self._sock.sendall(frame)
            except OSError:
                # The client hung up, or took no byte for SEND_TIMEOUT.
                # Half a frame may be out, so the stream is finished:
                # hang up (the reader thread sees EOF and exits), and
                # every later send on this connection fails at once.
                _hang_up(self._sock)

    def serve_forever(self) -> None:
        """Read until EOF or a corrupt stream, dispatching every frame;
        then close the socket, so the client sees EOF and fails its
        in-flight requests rather than wait on a stream nobody reads."""
        try:
            while True:
                data = self._sock.recv(RECV_BYTES)
                if not data:
                    return
                self.dispatcher.feed(data)
        except (OSError, ProtocolError):
            return
        finally:
            self.close()

    def close(self) -> None:
        _hang_up(self._sock)
        if (
            self._thread is not None
            and self._thread is not threading.current_thread()
        ):
            self._thread.join(timeout=5)


def serve_socketpair(
    engine: ServeEngine,
) -> tuple[SocketTransport, SocketServer]:
    """An engine served over a ``socketpair`` — full codec, no network.

    Returns ``(client, server)``; close both when done (closing the
    client alone also stops the server loop via EOF).
    """
    client_sock, server_sock = socket.socketpair()
    server = SocketServer(engine, server_sock, name="socketpair")
    client = SocketTransport(client_sock, name="socketpair")
    return client, server


class TCPServer:
    """TCP front-end over one engine: a listener and an accept thread.

    Every accepted connection gets its own :class:`SocketServer` — the
    loop the socketpair and router paths already run — so there is one
    byte-server loop, and a connection costs one parked reader thread.
    """

    def __init__(
        self,
        engine: ServeEngine,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._engine = engine
        try:
            self._listener = socket.create_server((host, port))
        except OSError as error:
            raise TransportError(
                f"could not bind TCP server on {host}:{port}: {error}"
            ) from error
        # Weak: a connection's reader thread keeps its SocketServer
        # alive exactly while it serves, so close() finds the live
        # connections here and a long-lived server holds no dead ones.
        self._connections: "weakref.WeakSet[SocketServer]" = weakref.WeakSet()
        self._closed = False
        self._thread = threading.Thread(
            target=self._accept_loop,
            name="repro-transport-tcp-server",
            daemon=True,
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        send_timeout = struct.pack("ll", SEND_TIMEOUT, 0)  # a timeval
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                if self._closed:
                    return
                # A client gave up while queued, or the process is out
                # of descriptors until some connection ends: carry on.
                obs.add_counter("serve.transport.accept_errors")
                time.sleep(0.05)
                continue
            # A reply must not wait for the ACK of the one before it.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDTIMEO, send_timeout
            )
            self._connections.add(
                SocketServer(self._engine, sock, name="tcp")
            )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port is real even when bound to 0."""
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        self._closed = True
        _hang_up(self._listener)
        # Joined first: no connection is accepted after this line.
        self._thread.join(timeout=10)
        for server in list(self._connections):
            server.close()

    def __enter__(self) -> "TCPServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff.

    Off by default everywhere (``retries=0`` semantics come from passing
    ``retry=None``): retrying is a *caller* decision, because a retried
    non-idempotent action is a correctness bug in some deployments.  The
    delay sequence is deterministic for a given ``seed``: attempt ``k``
    sleeps ``backoff * multiplier**k``, capped at ``max_backoff``, then
    scaled into ``[1 - jitter, 1]`` by a seeded PRNG — jitter
    de-synchronizes clients without making tests flaky.
    """

    retries: int = 3
    backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 1.0
    jitter: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.retries < 1:
            raise ValueError(f"retries must be >= 1, got {self.retries}")
        if self.backoff <= 0:
            raise ValueError(f"backoff must be > 0, got {self.backoff}")
        if self.multiplier < 1:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_backoff < self.backoff:
            raise ValueError(
                f"max_backoff must be >= backoff, got {self.max_backoff}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delays(self) -> list[float]:
        """The full delay sequence, one entry per retry attempt."""
        rng = random.Random(self.seed)
        delays: list[float] = []
        delay = self.backoff
        for _ in range(self.retries):
            scale = 1.0 - self.jitter * rng.random()
            delays.append(delay * scale)
            delay = min(delay * self.multiplier, self.max_backoff)
        return delays


class RetryingTransport(Transport):
    """A client-side retry wrapper over any transport.

    Retries synchronous :meth:`request` calls (and reconnects, when a
    ``reconnect`` factory is given) on
    :class:`~repro.exceptions.WorkerCrashedError` and connection-level
    :class:`~repro.exceptions.TransportError` — the failures where the
    request may simply land on a respawned worker.  It deliberately does
    NOT retry:

    * :meth:`submit` — the caller holds a future, so a transparent
      retry would have to mutate it behind the caller's back;
    * :meth:`control` — deploy/retire are not idempotent against a
      replica set mid-respawn; the router owns control consistency;
    * admission or timeout errors — those are the *server's* answer,
      not a delivery failure.

    Each retry sleeps the policy's next delay (``serve.transport.retry``
    counter); exhausted attempts re-raise the last error.
    """

    def __init__(
        self,
        inner: Transport,
        policy: RetryPolicy,
        reconnect=None,
    ) -> None:
        self.name = f"retry({inner.name})"
        #: The transport currently wrapped (swapped on reconnect).
        self.inner = inner
        self._policy = policy
        self._reconnect = reconnect

    def submit(self, request) -> "Future":
        return self.inner.submit(request)

    def request(self, request):
        last_error: BaseException | None = None
        for delay in [None] + self._policy.delays():
            if delay is not None:
                time.sleep(delay)
                obs.add_counter("serve.transport.retry")
                if self._reconnect is not None and getattr(
                    self.inner, "closed", False
                ):
                    try:
                        replacement = self._reconnect()
                    except TransportError as error:
                        last_error = error
                        continue
                    self.inner.close()
                    self.inner = replacement
            try:
                return self.inner.request(request)
            except WorkerCrashedError as error:
                last_error = error
            except RequestTimeoutError:
                raise
            except TransportError as error:
                if self._reconnect is None:
                    raise
                last_error = error
        assert last_error is not None
        raise last_error

    def control(self, request):
        return self.inner.control(request)

    def close(self) -> None:
        self.inner.close()


def connect_tcp(
    host: str,
    port: int,
    timeout: float = 10,
    retry: "RetryPolicy | None" = None,
) -> SocketTransport:
    """A :class:`SocketTransport` client connected to a :class:`TCPServer`.

    With a :class:`RetryPolicy`, connection refusal (the server not yet
    listening, or restarting) is retried with the policy's backoff
    sequence before giving up with
    :class:`~repro.exceptions.TransportError`; without one (the
    default), a refused connection raises immediately.
    """
    delays = [] if retry is None else retry.delays()
    for attempt in range(len(delays) + 1):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            break
        except OSError as error:
            if attempt >= len(delays):
                if retry is None:
                    raise
                raise TransportError(
                    f"connect to {host}:{port} failed after "
                    f"{len(delays) + 1} attempts: {error}"
                ) from error
            obs.add_counter("serve.transport.retry")
            time.sleep(delays[attempt])
    sock.settimeout(None)
    return SocketTransport(sock, name="tcp")
