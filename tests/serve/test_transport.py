"""Transport adapters: loopback, socketpair, and TCP against one engine.

The core guarantee: every transport returns byte-identical result rows
for the same request schedule, and every engine-side failure crosses
back as the same typed exception an in-process caller would catch.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import ExitStack

import pytest

from repro.exceptions import (
    ProtocolError,
    QueueFullError,
    RegistryError,
    RequestTimeoutError,
    TransportError,
)
from repro.serve.engine import (
    DeployRequest,
    QueryRequest,
    RetireRequest,
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
    encode_frame,
    encode_request,
)
from repro.serve import transport as transport_module
from repro.serve.transport import (
    LoopbackTransport,
    SocketServer,
    SocketTransport,
    TCPServer,
    connect_tcp,
    serve_socketpair,
)
from repro.sql.miningext import PredictionJoinExecutor

from tests.serve.test_stress import byte_image, schedule_for


@pytest.fixture()
def engine(serve_db, deployed_registry):
    with ServeEngine(
        serve_db, deployed_registry, workers=2, max_pending=64
    ) as eng:
        yield eng


@pytest.fixture()
def expected_images(serve_db, deployed_registry, label_queries):
    schedule = schedule_for(label_queries, 18)
    executor = PredictionJoinExecutor(serve_db, deployed_registry.catalog)
    images = [
        byte_image(executor.execute(label_queries[i]).rows)
        for i in schedule
    ]
    return schedule, images


def run_schedule(transport, label_queries, schedule):
    futures = [
        transport.submit(QueryRequest(query=label_queries[i]))
        for i in schedule
    ]
    return [byte_image(f.result(timeout=60).rows) for f in futures]


class TestLoopback:
    def test_byte_identical_and_keeps_report(
        self, engine, label_queries, expected_images
    ):
        schedule, expected = expected_images
        loopback = LoopbackTransport(engine)
        assert run_schedule(loopback, label_queries, schedule) == expected
        result = loopback.request(QueryRequest(query=label_queries[0]))
        assert result.report is not None  # loopback keeps the report


class TestSocketpair:
    def test_byte_identical_over_the_wire(
        self, engine, label_queries, expected_images
    ):
        schedule, expected = expected_images
        client, server = serve_socketpair(engine)
        try:
            images = run_schedule(client, label_queries, schedule)
        finally:
            client.close()
            server.close()
        assert images == expected

    def test_report_does_not_cross_the_wire(self, engine, label_queries):
        client, server = serve_socketpair(engine)
        try:
            result = client.request(QueryRequest(query=label_queries[0]))
        finally:
            client.close()
            server.close()
        assert result.report is None
        assert result.rows_returned > 0

    def test_typed_errors_cross_the_wire(self, engine):
        client, server = serve_socketpair(engine)
        try:
            with pytest.raises(RegistryError):
                client.control(RetireRequest(name="no_such_model"))
        finally:
            client.close()
            server.close()

    def test_wire_control_deploy_and_retire(
        self, serve_db, customer_tree
    ):
        from repro.serve.registry import ModelRegistry

        with ServeEngine(
            serve_db, ModelRegistry(max_nodes=150), workers=1
        ) as eng:
            client, server = serve_socketpair(eng)
            try:
                deployed = client.control(
                    DeployRequest(model=customer_tree.to_dict())
                )
                assert deployed.name == "risk_tree"
                assert deployed.version == 1
                retired = client.control(RetireRequest(name="risk_tree"))
                assert retired.version == 1
            finally:
                client.close()
                server.close()

    def test_client_timeout_is_typed(self, engine, label_queries):
        client, server = serve_socketpair(engine)
        try:
            with pytest.raises(RequestTimeoutError):
                client.request(
                    QueryRequest(
                        query=label_queries[0], timeout=0.000_001
                    )
                )
        finally:
            client.close()
            server.close()

    def test_queue_full_is_synchronous_and_typed(
        self, serve_db, deployed_registry, label_queries
    ):
        """Shed requests come back as QueueFullError frames.

        One worker parked on a slow request, a queue of one: the third
        submission must shed.  Collapsing is off so the structurally
        identical queries cannot piggyback instead of shedding.
        """
        with ServeEngine(
            serve_db,
            deployed_registry,
            workers=1,
            max_pending=1,
            collapsing=False,
        ) as eng:
            client, server = serve_socketpair(eng)
            try:
                futures = []
                shed = 0
                for _ in range(12):
                    future = client.submit(
                        QueryRequest(query=label_queries[0])
                    )
                    futures.append(future)
                for future in futures:
                    try:
                        future.result(timeout=60)
                    except QueueFullError:
                        shed += 1
                assert shed > 0
            finally:
                client.close()
                server.close()


class TestTCP:
    def test_byte_identical_over_tcp(
        self, engine, label_queries, expected_images
    ):
        schedule, expected = expected_images
        with TCPServer(engine) as server:
            host, port = server.address
            client = connect_tcp(host, port)
            try:
                images = run_schedule(client, label_queries, schedule)
            finally:
                client.close()
        assert images == expected

    def test_last_of_ten_parked_clients_is_served(
        self, engine, label_queries
    ):
        with TCPServer(engine) as server:
            host, port = server.address
            clients = [connect_tcp(host, port) for _ in range(10)]
            try:
                result = clients[-1].request(
                    QueryRequest(query=label_queries[0])
                )
                assert result.rows_returned >= 0
            finally:
                for client in clients:
                    client.close()


    def test_a_live_client_is_served_beside_parked_connections(
        self, engine, label_queries
    ):
        """What a parked connection costs the one loop is a descriptor
        and a blocked reader thread: 150 of them neither starve a live
        client nor outlive their clients."""

        def server_threads() -> int:  # the accept thread + one per reader
            return sum(
                thread.name == "repro-transport-tcp-server"
                for thread in threading.enumerate()
            )

        before = server_threads()
        with TCPServer(engine) as server:
            parked = [
                socket.create_connection(server.address) for _ in range(150)
            ]
            live = connect_tcp(*server.address)
            try:
                result = live.request(
                    QueryRequest(query=label_queries[0], timeout=10)
                )
                assert result.rows_returned >= 0
                assert server_threads() == before + 152
            finally:
                live.close()
                for sock in parked:
                    sock.close()
            deadline = time.monotonic() + 10
            while (
                server_threads() > before + 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            # Only the accept thread is left: every reader saw EOF.
            assert server_threads() == before + 1

    def test_stalled_reader_loses_its_connection_not_the_workers(
        self, engine, label_queries, monkeypatch
    ):
        """A peer that sends requests and never reads the answers fills
        its connection's buffers; whoever writes to it (the reader
        thread refusing work, the workers answering) waits at most
        ``SEND_TIMEOUT``, then the server hangs up on that peer and a
        well-behaved client on another connection is served."""
        monkeypatch.setattr(transport_module, "SEND_TIMEOUT", 1)
        total = 1500
        # Distinct queries, so the answers come from both workers.
        payloads = [
            encode_request(QueryRequest(query=query))
            for query in label_queries
        ]
        frames = b"".join(
            encode_frame(KIND_REQUEST, i, payloads[i % len(payloads)])
            for i in range(1, total + 1)
        )
        with ExitStack() as stack:
            server = stack.enter_context(TCPServer(engine))
            stalled = socket.socket()
            stack.callback(stalled.close)
            # Small buffers on both ends (an accepted socket inherits
            # the listener's), so a few dozen answers fill them.
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            server._listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            stalled.connect(server.address)

            def push():
                try:
                    stalled.sendall(frames)
                except OSError:
                    pass  # the server hung up on us

            threading.Thread(target=push, daemon=True).start()
            # Long enough for every writer to that connection (the
            # reader thread refusing work, both workers) to be stuck.
            time.sleep(2.5)
            bystander = connect_tcp(*server.address)
            stack.callback(bystander.close)
            deadline = time.monotonic() + 10
            while True:
                try:
                    result = bystander.request(
                        QueryRequest(query=label_queries[0], timeout=5)
                    )
                    break
                except (QueueFullError, RequestTimeoutError):
                    # The stalled peer's backlog may still hold the queue.
                    assert time.monotonic() < deadline, "workers wedged"
                    time.sleep(0.05)
            assert result.rows_returned >= 0
            # ... and the stalled peer was dropped: its stream ends (EOF
            # or reset) short of its answers once the buffers are read.
            stalled.settimeout(10)
            decoder, answered = FrameDecoder(), 0
            try:
                while data := stalled.recv(65536):
                    answered += len(list(decoder.feed(data)))
            except ConnectionError:
                pass
            assert answered < total

    def test_accept_survives_a_transient_error(self, engine, label_queries):
        """``accept`` failing (a client gone while queued, no free
        descriptor) must not end accepting for good."""

        class FailsOnce:
            def __init__(self, listener):
                self._listener = listener
                self.failed = threading.Event()

            def accept(self):
                if not self.failed.is_set():
                    self.failed.set()
                    raise OSError(24, "Too many open files")
                return self._listener.accept()

            def __getattr__(self, attribute):
                return getattr(self._listener, attribute)

        with TCPServer(engine) as server:
            # Park the accept thread's current call on a throwaway
            # connection, then swap the listener for the failing one.
            flaky = FailsOnce(server._listener)
            server._listener = flaky
            socket.create_connection(server.address).close()
            client = connect_tcp(*server.address)
            try:
                assert flaky.failed.wait(timeout=5)
                result = client.request(
                    QueryRequest(query=label_queries[0], timeout=10)
                )
                assert result.rows_returned >= 0
            finally:
                client.close()


def _served_socket(kind, engine, stack) -> socket.socket:
    """A connected client socket served over ``kind`` until ``stack`` exits."""
    if kind == "tcp":
        server = stack.enter_context(TCPServer(engine))
        return socket.create_connection(server.address)
    client_sock, server_sock = socket.socketpair()
    stack.callback(SocketServer(engine, server_sock).close)
    return client_sock


@pytest.mark.parametrize("kind", ["socketpair", "tcp"])
def test_corrupt_stream_drops_connection_not_server(
    kind, engine, label_queries
):
    """A client speaking garbage loses its connection — closed by the
    server, so a request it still has in flight fails instead of
    waiting forever — and the engine keeps serving everyone else."""
    request = QueryRequest(query=label_queries[0])
    with ExitStack() as stack:
        sock = _served_socket(kind, engine, stack)
        garbler = SocketTransport(sock, name=kind)
        stack.callback(garbler.close)
        sock.sendall(b"\xff" * 64)
        # Sent after the garbage: never answered.  Either the send
        # already sees the closed connection or the reader's EOF fails
        # the future; without the close it would sit out the timeout.
        with pytest.raises(TransportError):
            garbler.submit(request).result(timeout=5)
        bystander = SocketTransport(
            _served_socket(kind, engine, stack), name=kind
        )
        stack.callback(bystander.close)
        assert bystander.request(request).rows_returned >= 0


#: name -> (payload key, value breaking a constructor invariant, the
#: invariant's own message).
INVARIANT_BREAKERS = {
    "empty IN set": (
        "rel",
        {"p": "in", "col": "age", "vs": []},
        "IN set must not be empty",
    ),
    "inverted interval": (
        "rel",
        {"p": "iv", "col": "age", "lo": 5, "hi": 1, "lc": True, "hc": True},
        "empty interval",
    ),
    "AND without operands": (
        "rel",
        {"p": "and", "ops": []},
        "And requires >= 2 operands",
    ),
    "IN mining predicate without labels": (
        "mine",
        [{"m": "in", "model": "risk_tree", "labels": []}],
        "needs at least one label",
    ),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_BREAKERS))
def test_well_framed_request_breaking_an_invariant_gets_an_error_frame(
    name, engine, label_queries
):
    """Valid frame, valid JSON, a predicate its constructor refuses: the
    answer is a typed error frame for that request id, and the
    connection (with the server loop behind it) serves the next one."""
    key, value, invariant = INVARIANT_BREAKERS[name]
    good = encode_request(QueryRequest(query=label_queries[0]))
    bad = encode_request(QueryRequest(query=label_queries[0]))
    bad[key] = value
    with ExitStack() as stack:
        sock = _served_socket("socketpair", engine, stack)
        stack.callback(sock.close)
        sock.settimeout(10)
        sock.sendall(
            encode_frame(KIND_REQUEST, 7, bad)
            + encode_frame(KIND_REQUEST, 8, good)
        )
        decoder, frames = FrameDecoder(), []
        while len(frames) < 2:
            data = sock.recv(65536)
            assert data, "server closed the connection"
            frames.extend(decoder.feed(data))
    refused, served = frames
    assert (refused.kind, refused.request_id) == (KIND_ERROR, 7)
    error = decode_error(refused.payload)
    assert isinstance(error, ProtocolError)
    assert invariant in str(error)
    assert (served.kind, served.request_id) == (KIND_RESPONSE, 8)
    assert decode_response(served.payload).rows_returned >= 0


def test_request_timeout_is_validated_at_decode(engine, label_queries):
    payload = encode_request(QueryRequest(query=label_queries[0]))
    for bad in ("x", 0, -1.5, True):
        payload["timeout"] = bad
        with pytest.raises(ProtocolError, match="timeout"):
            decode_request(payload)


def test_all_transports_agree(
    engine, label_queries, expected_images
):
    """One engine, three transports, identical bytes."""
    schedule, expected = expected_images
    images = {}
    images["inproc"] = run_schedule(
        LoopbackTransport(engine), label_queries, schedule
    )
    client, server = serve_socketpair(engine)
    try:
        images["socketpair"] = run_schedule(
            client, label_queries, schedule
        )
    finally:
        client.close()
        server.close()
    with TCPServer(engine) as tcp_server:
        host, port = tcp_server.address
        tcp_client = connect_tcp(host, port)
        try:
            images["tcp"] = run_schedule(
                tcp_client, label_queries, schedule
            )
        finally:
            tcp_client.close()
    assert images["inproc"] == expected
    assert images["socketpair"] == expected
    assert images["tcp"] == expected


def test_frame_stream_is_canonical_json(engine, label_queries):
    """A v2 response frame: header, meta length, canonical-JSON meta
    (sorted keys, no NaN literals), then the column buffers — and the
    same result always makes the same bytes."""
    import struct

    from repro.serve.protocol import (
        HEADER_BYTES,
        KIND_RESPONSE,
        encode_frame,
        encode_response,
    )

    loopback = LoopbackTransport(engine)
    result = loopback.request(QueryRequest(query=label_queries[0]))
    frame = encode_frame(KIND_RESPONSE, 1, encode_response(result))
    assert frame == encode_frame(KIND_RESPONSE, 1, encode_response(result))
    (meta_length,) = struct.unpack_from("!I", frame, HEADER_BYTES)
    meta_end = HEADER_BYTES + 4 + meta_length
    meta_bytes = frame[HEADER_BYTES + 4 : meta_end]
    meta = json.loads(meta_bytes)
    canonical = json.dumps(
        meta, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    assert canonical.encode("utf-8") == meta_bytes
    # The tail is exactly the buffers the column descriptors announce.
    table = meta["rows"]
    assert table["n"] == len(result.rows) > 0
    assert table["names"] == list(result.rows.names)
    announced = sum(
        body for tag, body in table["cols"] if tag in ("f", "i")
    )
    assert announced > 0
    assert len(frame) - meta_end == announced
