"""Unit tests for the framed wire codec (``repro.serve.protocol``).

Round-trips every frame kind, every typed request/response, value
fidelity (including the tagged non-finite floats and the per-column
buffer/JSON rule of the columnar row body), and the full typed error
registry; malformed input — a damaged columnar body included — must
surface as :class:`~repro.exceptions.ProtocolError`, never
json/struct/numpy-flavored.
"""

from __future__ import annotations

import math
import struct

import pytest

import repro.exceptions as exceptions
from repro.core.columns import RowSet
from repro.core.optimizer import MiningQuery
from repro.core.predicates import (
    FALSE,
    TRUE,
    And,
    Comparison,
    InSet,
    Interval,
    Not,
    Op,
    Or,
)
from repro.core.rewrite import (
    PredictionEquals,
    PredictionIn,
    PredictionJoinColumn,
    PredictionJoinPrediction,
)
from repro.exceptions import (
    ProtocolError,
    QueueFullError,
    ReproError,
    RequestTimeoutError,
    ServeError,
)
from repro.ir.batch import MaskCacheStats
from repro.serve.engine import (
    DeployRequest,
    DeployResult,
    MatchRequest,
    QueryRequest,
    RetireRequest,
    RetireResult,
    SegmentMatchResult,
    ServeResult,
)
from repro.serve.protocol import (
    HEADER_BYTES,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_BARE_ROWS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    Payload,
    decode_error,
    decode_predicate,
    decode_request,
    decode_response,
    decode_value,
    encode_error,
    encode_frame,
    encode_predicate,
    encode_request,
    encode_response,
    encode_value,
)


def raw_header(length: int, version: int = PROTOCOL_VERSION) -> bytes:
    return struct.pack("!2sBBQI", b"RS", version, KIND_REQUEST, 1, length)


def raw_frame(meta: bytes, tail: bytes = b"") -> bytes:
    """A hand-built v2 frame around arbitrary meta and tail bytes."""
    body = struct.pack("!I", len(meta)) + meta + tail
    return raw_header(len(body)) + body


class TestFrames:
    def test_round_trip_single_frame(self):
        data = encode_frame(KIND_REQUEST, 7, {"q": "retire", "name": "m"})
        frames = FrameDecoder().feed(data)
        assert len(frames) == 1
        assert frames[0].kind == KIND_REQUEST
        assert frames[0].request_id == 7
        assert frames[0].payload == {"q": "retire", "name": "m"}

    def test_byte_by_byte_fragmentation(self):
        data = encode_frame(KIND_RESPONSE, 3, {"r": "retire", "name": "m",
                                               "version": 1})
        decoder = FrameDecoder()
        frames = []
        for i in range(len(data)):
            frames.extend(decoder.feed(data[i : i + 1]))
        assert len(frames) == 1
        assert frames[0].request_id == 3

    def test_concatenated_frames_one_feed(self):
        stream = b"".join(
            encode_frame(KIND_REQUEST, i, {"q": "retire", "name": str(i)})
            for i in range(5)
        )
        frames = FrameDecoder().feed(stream)
        assert [f.request_id for f in frames] == [0, 1, 2, 3, 4]

    def test_split_mid_header(self):
        data = encode_frame(KIND_ERROR, 9, {"error": "ServeError",
                                            "message": "x"})
        decoder = FrameDecoder()
        assert decoder.feed(data[: HEADER_BYTES // 2]) == []
        frames = decoder.feed(data[HEADER_BYTES // 2 :])
        assert len(frames) == 1
        assert frames[0].kind == KIND_ERROR

    def test_bad_magic_raises(self):
        data = bytearray(encode_frame(KIND_REQUEST, 1, {"q": "retire",
                                                        "name": "m"}))
        data[0:2] = b"XX"
        with pytest.raises(ProtocolError, match="magic"):
            FrameDecoder().feed(bytes(data))

    def test_bad_version_raises(self):
        data = bytearray(encode_frame(KIND_REQUEST, 1, {"q": "retire",
                                                        "name": "m"}))
        data[2] = 99
        with pytest.raises(ProtocolError, match="version"):
            FrameDecoder().feed(bytes(data))

    def test_bad_kind_raises(self):
        data = bytearray(encode_frame(KIND_REQUEST, 1, {"q": "retire",
                                                        "name": "m"}))
        data[3] = 42
        with pytest.raises(ProtocolError, match="kind"):
            FrameDecoder().feed(bytes(data))
        with pytest.raises(ProtocolError, match="kind"):
            encode_frame(42, 1, {})

    def test_version_1_frame_is_refused(self):
        body = b'{"q":"retire","name":"m"}'
        with pytest.raises(ProtocolError, match="unsupported protocol version 1"):
            FrameDecoder().feed(raw_header(len(body), version=1) + body)

    def test_oversized_announcement_raises_before_buffering(self):
        with pytest.raises(ProtocolError, match="ceiling"):
            FrameDecoder().feed(raw_header(MAX_FRAME_BYTES + 1))

    def test_ceiling_bounds_meta_and_tail_together(self, monkeypatch):
        import repro.serve.protocol as protocol

        payload = Payload({"k": "v"}, b"\0" * 64)
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        with pytest.raises(ProtocolError, match="ceiling"):
            encode_frame(KIND_RESPONSE, 1, payload)

    def test_non_json_payload_raises(self):
        with pytest.raises(ProtocolError, match="JSON"):
            FrameDecoder().feed(raw_frame(b"\xff\xfe not json"))

    def test_non_object_payload_raises(self):
        with pytest.raises(ProtocolError, match="object"):
            FrameDecoder().feed(raw_frame(b"[1,2,3]"))

    def test_meta_longer_than_payload_raises(self):
        meta = b'{"q":"retire","name":"m"}'
        body = struct.pack("!I", len(meta) + 1) + meta
        with pytest.raises(ProtocolError, match="meta section"):
            FrameDecoder().feed(raw_header(len(body)) + body)
        # A body too short to hold even the meta length.
        with pytest.raises(ProtocolError, match="meta section"):
            FrameDecoder().feed(raw_header(2) + b"\0\0")

    def test_tail_rides_behind_the_meta(self):
        data = encode_frame(KIND_RESPONSE, 5, Payload({"k": 1}, b"\x01\x02"))
        meta_length = struct.unpack_from("!I", data, HEADER_BYTES)[0]
        meta = data[HEADER_BYTES + 4 : HEADER_BYTES + 4 + meta_length]
        assert meta == b'{"k":1}'
        assert data[HEADER_BYTES + 4 + meta_length :] == b"\x01\x02"
        (frame,) = FrameDecoder().feed(data)
        assert frame.payload == {"k": 1}
        assert bytes(frame.payload.tail) == b"\x01\x02"

    def test_unserializable_payload_raises(self):
        with pytest.raises(ProtocolError, match="serializable"):
            encode_frame(KIND_REQUEST, 1, {"x": object()})
        with pytest.raises(ProtocolError, match="serializable"):
            encode_frame(KIND_REQUEST, 1, {"x": float("nan")})


class TestValues:
    @pytest.mark.parametrize(
        "value", [0, 1, -7, "text", "", True, False, None, 1.5, -0.25,
                  1e300, 5e-324]
    )
    def test_json_native_values_round_trip_exactly(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_int_float_bool_stay_distinct(self):
        assert decode_value(encode_value(1)) is not True
        assert type(decode_value(encode_value(1))) is int
        assert type(decode_value(encode_value(1.0))) is float
        assert decode_value(encode_value(True)) is True

    def test_nonfinite_floats_tagged(self):
        assert encode_value(float("nan")) == {"__float__": "nan"}
        assert math.isnan(decode_value({"__float__": "nan"}))
        assert decode_value(encode_value(float("inf"))) == float("inf")
        assert decode_value(encode_value(float("-inf"))) == float("-inf")

    def test_malformed_value_payload_raises(self):
        with pytest.raises(ProtocolError):
            decode_value({"__float__": "seven"})


PREDICATES = [
    TRUE,
    FALSE,
    Comparison("age", Op.GE, 30),
    Comparison("income", Op.LT, 45_000.5),
    Comparison("name", Op.NE, "bob"),
    InSet("region", ("north", "south")),
    InSet("age", (1, 2, 3)),
    Interval("age", low=18, high=65),
    Interval("income", low=0.0, high=None, low_closed=False),
    Interval("income", low=None, high=9.5, high_closed=False),
    And((Comparison("a", Op.EQ, 1), Comparison("b", Op.EQ, 2))),
    Or((Comparison("a", Op.EQ, 1), InSet("b", ("x", "y")))),
    Not(Comparison("a", Op.GT, 0)),
    Or(
        (
            And((Comparison("a", Op.LE, 3), Interval("b", low=1, high=2))),
            Not(InSet("c", ("q",))),
        )
    ),
]


class TestPredicates:
    @pytest.mark.parametrize("predicate", PREDICATES, ids=repr)
    def test_round_trip(self, predicate):
        assert decode_predicate(encode_predicate(predicate)) == predicate

    def test_unknown_tag_raises(self):
        with pytest.raises(ProtocolError, match="unknown predicate tag"):
            decode_predicate({"p": "xor"})

    def test_malformed_payload_raises(self):
        with pytest.raises(ProtocolError):
            decode_predicate({"nope": 1})
        with pytest.raises(ProtocolError):
            decode_predicate({"p": "cmp", "col": "a"})


MINING_PREDICATES = [
    PredictionEquals("risk_tree", "high"),
    PredictionEquals("clusters", 2),
    PredictionIn("risk_tree", ("high", "medium")),
    PredictionJoinPrediction("risk_tree", "risk_nb"),
    PredictionJoinColumn("risk_tree", "risk"),
]


class TestRequests:
    @pytest.mark.parametrize("mining", MINING_PREDICATES, ids=repr)
    def test_query_request_round_trip(self, mining):
        request = QueryRequest(
            query=MiningQuery(
                "customers",
                relational_predicate=Comparison("age", Op.GE, 30),
                mining_predicates=(mining,),
            ),
            optimize=False,
            timeout=1.5,
        )
        assert decode_request(encode_request(request)) == request

    def test_match_request_round_trip(self):
        request = MatchRequest(
            rows=(
                {"age": 30, "income": 50_000.0},
                {"age": 61, "income": 9_999.25},
            ),
            segments=("young", "affluent"),
            timeout=None,
        )
        assert decode_request(encode_request(request)) == request

    def test_match_request_none_segments(self):
        request = MatchRequest(rows=({"a": 1},), segments=None)
        assert decode_request(encode_request(request)) == request

    def test_deploy_and_retire_round_trip(self, customer_tree):
        deploy = DeployRequest(model=customer_tree.to_dict(), rows=None)
        assert decode_request(encode_request(deploy)) == deploy
        retire = RetireRequest(name="risk_tree")
        assert decode_request(encode_request(retire)) == retire

    def test_unknown_request_tag_raises(self):
        with pytest.raises(ProtocolError, match="unknown request tag"):
            decode_request({"q": "explode"})

    def test_unencodable_request_raises(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_request("not a request")  # type: ignore[arg-type]


class TestResponses:
    def test_serve_result_drops_report(self):
        result = ServeResult(
            rows=({"age": 30, "risk": "high"},),
            strategy="rewrite",
            queue_seconds=0.001,
            execute_seconds=0.01,
            collapsed=True,
            report="not-a-real-report",  # type: ignore[arg-type]
        )
        decoded = decode_response(encode_response(result))
        assert decoded.rows == result.rows
        assert decoded.strategy == "rewrite"
        assert decoded.collapsed is True
        assert decoded.report is None

    def test_segment_match_result_round_trip(self):
        result = SegmentMatchResult(
            memberships=(("young",), (), ("young", "affluent")),
            segment_names=("affluent", "young"),
            catalog_version=4,
            queue_seconds=0.0,
            match_seconds=0.002,
            collapsed=False,
            coalesced=True,
            mask_stats=MaskCacheStats(
                computed=3, shared=1, constants_skipped=0,
                plan_hits=2, plan_misses=1,
            ),
        )
        assert decode_response(encode_response(result)) == result

    def test_control_results_round_trip(self):
        deploy = DeployResult(
            name="m", version=2, catalog_version=5,
            labels=("high", "low"),
        )
        assert decode_response(encode_response(deploy)) == deploy
        retire = RetireResult(name="m", version=2)
        assert decode_response(encode_response(retire)) == retire

    def test_unknown_response_tag_raises(self):
        with pytest.raises(ProtocolError, match="unknown response tag"):
            decode_response({"r": "explode"})


def result_over(rows) -> ServeResult:
    return ServeResult(
        rows=rows, strategy="optimized", queue_seconds=0.0,
        execute_seconds=0.0, collapsed=False, report=None,
    )


def through_a_frame(result):
    stream = encode_frame(KIND_RESPONSE, 1, encode_response(result))
    (frame,) = FrameDecoder().feed(stream)
    return decode_response(frame.payload)


class TestColumnarRows:
    ROWS = (
        {"f": 1.5, "i": 2, "s": "x", "b": True, "n": None, "m": 1},
        {"f": -0.0, "i": -(2**63), "s": "", "b": False, "n": None, "m": 1.0},
        {"f": float("inf"), "i": 2**63 - 1, "s": "y", "b": True, "n": None,
         "m": "one"},
    )

    def test_per_column_buffer_or_json_rule(self):
        payload = encode_response(result_over(self.ROWS))
        table = payload["rows"]
        assert table["n"] == 3
        assert table["names"] == ["f", "i", "s", "b", "n", "m"]
        tags = [column[0] for column in table["cols"]]
        assert tags == ["f", "i", "j", "j", "j", "j"]
        assert [c[1] for c in table["cols"][:2]] == [24, 24]
        assert len(payload.tail) == 48
        assert struct.unpack_from("<3d", payload.tail, 0) == (
            1.5, -0.0, float("inf"),
        )
        assert struct.unpack_from("<3q", payload.tail, 24) == (
            2, -(2**63), 2**63 - 1,
        )

    def test_rows_decode_to_a_rowset_with_exact_types(self):
        decoded = through_a_frame(result_over(self.ROWS)).rows
        assert isinstance(decoded, RowSet)
        assert decoded == self.ROWS
        for got, sent in zip(decoded, self.ROWS):
            assert list(got) == list(sent)  # column order
            for name in sent:
                assert type(got[name]) is type(sent[name]), name
        assert math.copysign(1.0, decoded[1]["f"]) == -1.0

    def test_int_overflowing_int64_falls_back_to_json(self):
        rows = ({"i": 2**63}, {"i": -(2**63) - 1})
        payload = encode_response(result_over(rows))
        assert payload["rows"]["cols"][0][0] == "j"
        assert through_a_frame(result_over(rows)).rows == rows

    def test_empty_and_zero_column_tables(self):
        assert len(through_a_frame(result_over(())).rows) == 0
        empty = RowSet(("a", "b"), ((), ()))
        decoded = through_a_frame(result_over(empty)).rows
        assert decoded.names == ("a", "b") and len(decoded) == 0
        bare = through_a_frame(result_over(({}, {}, {}))).rows
        assert list(bare) == [{}, {}, {}]

    def test_rows_without_columns_are_capped_both_ways(self):
        with pytest.raises(ProtocolError, match="rows without columns"):
            encode_response(result_over(({},) * (MAX_BARE_ROWS + 1)))
        payload = encode_response(result_over(()))
        payload["rows"]["n"] = 10**15  # ~100 bytes announcing 10^15 rows
        with pytest.raises(ProtocolError, match="malformed row table header"):
            decode_response(payload)
        payload["rows"]["n"] = MAX_BARE_ROWS
        assert len(decode_response(payload).rows) == MAX_BARE_ROWS

    def test_ragged_rows_cross_as_padded_columns(self):
        rows = ({"a": 1, "b": None}, {"b": 2.5}, {}, {"c": "x", "a": 3})
        payload = encode_request(MatchRequest(rows=rows))
        table = payload["rows"]
        assert table["names"] == ["a", "b", "c"]
        assert table["absent"] == [[0, 2], [1, 0], [1, 2], [2, 0], [2, 1],
                                   [2, 2], [3, 1]]
        assert [column[0] for column in table["cols"]] == ["j", "j", "j"]
        stream = encode_frame(KIND_REQUEST, 1, payload)
        (frame,) = FrameDecoder().feed(stream)
        decoded = decode_request(frame.payload).rows
        assert decoded == rows and isinstance(decoded, tuple)
        assert type(decoded[0]["a"]) is int and decoded[0]["b"] is None
        # Uniform rows carry no such list: the body is the plain table.
        assert "absent" not in encode_request(MatchRequest(rows[:1]))["rows"]

    @pytest.mark.parametrize(
        "absent", [[[0, 5]], [[9, 0]], [[1, 0], [1, 0]], [[0]], [["0", 0]], 7]
    )
    def test_damaged_absent_list_is_typed(self, absent):
        payload = encode_request(MatchRequest(rows=({"a": 1}, {"b": 2})))
        payload["rows"]["absent"] = absent
        with pytest.raises(ProtocolError, match="malformed row table"):
            decode_request(payload)

    def test_deploy_rows_cross_columnar(self, customer_tree):
        rows = ({"age": 30, "income": 1.5}, {"age": 31, "income": 2.5})
        request = DeployRequest(model=customer_tree.to_dict(), rows=rows)
        stream = encode_frame(KIND_REQUEST, 1, encode_request(request))
        (frame,) = FrameDecoder().feed(stream)
        decoded = decode_request(frame.payload)
        assert isinstance(decoded.rows, RowSet)
        assert decoded == request

    def test_memberships_cross_as_indexes(self):
        result = SegmentMatchResult(
            memberships=(("b", "a"), ()), segment_names=("a", "b"),
            catalog_version=1, queue_seconds=0.0, match_seconds=0.0,
            collapsed=False, coalesced=False, mask_stats=MaskCacheStats(),
        )
        payload = encode_response(result)
        assert payload["memberships"] == [[1, 0], []]
        assert decode_response(payload) == result
        for damaged in ([[2]], [["a"]], [3]):
            payload["memberships"] = damaged
            with pytest.raises(ProtocolError, match="malformed response"):
                decode_response(payload)


class TestDamagedColumnarBody:
    """Each way a columnar body can lie about itself is a ProtocolError."""

    def damaged(self, **changes):
        payload = encode_response(
            result_over(({"f": 1.5, "i": 2}, {"f": 2.5, "i": 3}))
        )
        table = payload["rows"]
        table.update(changes.pop("table", {}))
        for index, descriptor in changes.pop("cols", {}).items():
            table["cols"][index] = descriptor
        tail = changes.pop("tail", payload.tail)
        return Payload(payload, tail)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"tail": b"\0" * 31}, "16 bytes at byte 16 .* a 31-byte tail"),
            ({"cols": {1: ["i", 24]}}, "24 bytes at byte 16 .* a 32-byte tail"),
            ({"cols": {0: ["f", 12]}}, "12 bytes at byte 0 is not 8-byte values"),
            ({"cols": {0: ["f", -8]}}, "-8 bytes at byte 0 is not 8-byte values"),
            ({"cols": {0: ["f", "16"]}}, "'16' bytes at byte 0 is not 8-byte"),
            ({"cols": {0: ["f", 8]}}, "column of 1 values in a 2-row table"),
            ({"cols": {1: ["j", [1, 2, 3]]}}, "column of 3 values"),
            ({"table": {"n": 3}}, "column of 2 values in a 3-row table"),
            ({"table": {"n": -1}}, "malformed row table header"),
            ({"table": {"n": 10**15, "names": [], "cols": []}},
             "malformed row table header n=1000000000000000"),
            ({"table": {"names": ["f", 7]}}, "malformed row table header"),
            ({"table": {"names": ["f"]}}, "malformed row table"),
            ({"cols": {0: ["x", 16]}}, "unknown column tag 'x'"),
            ({"cols": {0: ["j", 5]}}, "malformed row table"),
            ({"cols": {0: "f"}}, "malformed row table"),
            ({"table": {"cols": None}}, "malformed row table"),
        ],
    )
    def test_each_inconsistency_is_typed(self, changes, message):
        with pytest.raises(ProtocolError, match=message):
            decode_response(self.damaged(**changes))

    def frame(self) -> bytes:
        rows = tuple({"f": i / 7, "i": i, "s": str(i)} for i in range(40))
        return encode_frame(
            KIND_RESPONSE, 9, encode_response(result_over(rows))
        )

    def test_truncation_never_yields_a_frame(self):
        data = self.frame()
        for cut in range(len(data)):
            assert FrameDecoder().feed(data[:cut]) == []

    def test_single_bit_flips_decode_or_fail_typed(self):
        """Flip every bit of the header and meta, and a stride of tail
        bits: the stream either still decodes or fails as ProtocolError —
        a frame announcing more bytes than arrived just waits."""
        data = self.frame()
        meta_end = HEADER_BYTES + 4 + struct.unpack_from(
            "!I", data, HEADER_BYTES
        )[0]
        bits = list(range(meta_end * 8)) + list(
            range(meta_end * 8, len(data) * 8, 61)
        )
        outcomes = set()
        for bit in bits:
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                frames = FrameDecoder().feed(bytes(flipped))
                for frame in frames:
                    decode_response(frame.payload)
                outcomes.add("decoded" if frames else "waiting")
            except ProtocolError:
                outcomes.add("typed")
        assert outcomes == {"decoded", "waiting", "typed"}


class TestErrors:
    def test_every_typed_error_round_trips_by_class(self):
        for name in dir(exceptions):
            cls = getattr(exceptions, name)
            if not (isinstance(cls, type) and issubclass(cls, ReproError)):
                continue
            decoded = decode_error(encode_error(cls("boom")))
            assert type(decoded) is cls
            assert "boom" in str(decoded)

    def test_specific_serving_errors(self):
        assert isinstance(
            decode_error(encode_error(QueueFullError("full"))),
            QueueFullError,
        )
        assert isinstance(
            decode_error(encode_error(RequestTimeoutError("late"))),
            RequestTimeoutError,
        )

    def test_unknown_class_falls_back_to_serve_error(self):
        decoded = decode_error(
            {"error": "FutureProtocolError", "message": "huh"}
        )
        assert type(decoded) is ServeError
        assert "FutureProtocolError" in str(decoded)
        assert "huh" in str(decoded)

    def test_malformed_error_payload_raises(self):
        with pytest.raises(ProtocolError):
            decode_error({"message": "no class"})
