"""Transport adapters: loopback, socketpair, and TCP against one engine.

The core guarantee: every transport returns byte-identical result rows
for the same request schedule, and every engine-side failure crosses
back as the same typed exception an in-process caller would catch.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import (
    QueueFullError,
    RegistryError,
    RequestTimeoutError,
)
from repro.serve.engine import (
    DeployRequest,
    QueryRequest,
    RetireRequest,
    ServeEngine,
)
from repro.serve.transport import (
    LoopbackTransport,
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

    def test_many_idle_connections_are_cheap(self, engine, label_queries):
        """Ten parked clients; one of them still gets served correctly."""
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

    def test_corrupt_stream_drops_connection_not_server(
        self, engine, label_queries
    ):
        """A client speaking garbage loses its connection; others live."""
        import socket as socketlib

        with TCPServer(engine) as server:
            host, port = server.address
            raw = socketlib.create_connection((host, port))
            raw.sendall(b"GET / HTTP/1.1\r\n\r\n")
            # The server closes the corrupt connection...
            raw.settimeout(5)
            assert raw.recv(1) == b""
            raw.close()
            # ...and keeps serving well-formed clients.
            client = connect_tcp(host, port)
            try:
                result = client.request(
                    QueryRequest(query=label_queries[0])
                )
                assert result.rows_returned >= 0
            finally:
                client.close()


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
