"""The serving wire protocol (``repro.serve.protocol``).

A versioned, length-prefixed framed codec: every message on a serving
connection is one **frame** — a fixed 16-byte header (magic, protocol
version, frame kind, request id, body length) followed by the body: a
4-byte meta length, a canonical-JSON **meta** object, and a binary
**tail**.  The request id multiplexes concurrent requests over one
connection; the kind separates requests from responses and typed
errors.  :class:`FrameDecoder` is an incremental parser: feed it bytes
in any fragmentation — one byte at a time, several frames concatenated,
split mid-header — and it yields exactly the frames that arrived
(property-tested in ``tests/property/test_protocol_roundtrip.py``).

The payload codecs round-trip every typed request
(:class:`~repro.serve.engine.QueryRequest`,
:class:`~repro.serve.engine.MatchRequest`, and the
deploy/retire control messages), every typed response, and every
:class:`~repro.exceptions.ReproError` subclass (by class name, with a
:class:`~repro.exceptions.ServeError` fallback for unknown names).
Row payloads cross **column-wise** into a
:class:`~repro.core.columns.RowSet`: per column the meta announces
either a tail buffer — little-endian float64 when every value is exactly
a ``float``, int64 when every value is exactly an ``int`` that fits — or
a JSON value list; ragged rows cross null-padded over the union of their
columns with the padded cells listed, and come back as a tuple of dicts.
Values survive exactly: buffers are bit-exact, JSON
distinguishes ``1``/``1.0``/``True`` and Python's ``repr``-based float
serialization round-trips every finite float; the non-finite floats JSON
cannot carry are tagged ``{"__float__": "nan" | "inf" | "-inf"}``.

The one deliberate loss: a :class:`~repro.serve.engine.ServeResult`
crossing the wire drops its ``report`` (the full
:class:`~repro.sql.miningext.ExecutionReport` with plan objects and
prediction maps is a debugging artifact of in-process serving, not part
of the serving contract) — ``report`` is ``None`` on the client side.
In-process loopback keeps it, so existing tests see no change.

Malformed input — bad magic, unknown version or kind, oversized or
truncated payloads, a meta or column buffer overrunning its frame, a
column of the wrong length, a column-less table announcing more than
:data:`MAX_BARE_ROWS` rows, unknown tags — raises
:class:`~repro.exceptions.ProtocolError` rather than anything
json/struct-flavored, so transports can fail connections typed.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Sequence
from itertools import chain

import numpy as np

import repro.exceptions as _exceptions
from repro.core.columns import Row, RowSet
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
    Predicate,
    Value,
)
from repro.core.rewrite import (
    MiningPredicate,
    PredictionEquals,
    PredictionIn,
    PredictionJoinColumn,
    PredictionJoinPrediction,
)
from repro.exceptions import (
    PredicateError,
    ProtocolError,
    ReproError,
    RewriteError,
    SchemaError,
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

PROTOCOL_VERSION = 2
MAGIC = b"RS"

#: Frame kinds.
KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_ERROR = 3
_KINDS = frozenset({KIND_REQUEST, KIND_RESPONSE, KIND_ERROR})

#: Header: magic(2s) version(B) kind(B) request_id(Q) length(I).
_HEADER = struct.Struct("!2sBBQI")
HEADER_BYTES = _HEADER.size
#: The body opens with the byte length of its meta section.
_META_LENGTH = struct.Struct("!I")

#: Hard body ceiling — a corrupt length field must not make the
#: decoder buffer gigabytes before noticing.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Rows a table without columns may announce: nothing in the frame grows
#: with that count, so the frame ceiling alone would not bound it.
MAX_BARE_ROWS = 1 << 16

#: Column tag -> dtype of its tail buffer.
_BUFFER_DTYPES = {"f": np.dtype("<f8"), "i": np.dtype("<i8")}


class Payload(dict):
    """A frame body: the JSON meta object plus the binary tail its
    column descriptors consume in order."""

    __slots__ = ("tail",)

    def __init__(self, meta: dict, tail: "bytes | memoryview" = b"") -> None:
        super().__init__(meta)
        self.tail = tail


class Frame:
    """One decoded frame: kind, request id, and parsed payload."""

    __slots__ = ("kind", "request_id", "payload")

    def __init__(self, kind: int, request_id: int, payload: Payload) -> None:
        self.kind = kind
        self.request_id = request_id
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Frame(kind={self.kind}, request_id={self.request_id}, "
            f"payload={self.payload!r})"
        )


def canonical_body(payload: dict) -> bytes:
    """A payload's frame body: meta length, canonical-JSON meta, then the
    binary tail (none for a plain ``dict``).  Equal payloads, equal bytes."""
    try:
        meta = json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        ).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ProtocolError(
            f"payload is not frame-serializable: {error}"
        ) from error
    tail = getattr(payload, "tail", b"")
    return b"".join((_META_LENGTH.pack(len(meta)), meta, tail))


def encode_frame(kind: int, request_id: int, payload: dict) -> bytes:
    """Serialize one frame to bytes: header, then the payload's body."""
    if kind not in _KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    body = canonical_body(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, kind, request_id, len(body)
    )
    return header + body


class FrameDecoder:
    """Incremental frame parser over an arbitrarily fragmented stream.

    :meth:`feed` accepts any byte chunking and returns every frame
    completed by the new bytes (possibly none, possibly several).
    Protocol violations raise :class:`~repro.exceptions.ProtocolError`;
    after one, the stream is unrecoverable and the connection should be
    closed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        self._buffer.extend(data)
        frames: list[Frame] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                return frames
            magic, version, kind, request_id, length = _HEADER.unpack_from(
                self._buffer
            )
            if magic != MAGIC:
                raise ProtocolError(
                    f"bad frame magic {bytes(magic)!r} (expected {MAGIC!r})"
                )
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"unsupported protocol version {version} "
                    f"(speaking {PROTOCOL_VERSION})"
                )
            if kind not in _KINDS:
                raise ProtocolError(f"unknown frame kind {kind}")
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame announces {length} bytes, over the "
                    f"{MAX_FRAME_BYTES}-byte ceiling"
                )
            if len(self._buffer) < HEADER_BYTES + length:
                return frames
            body = bytes(
                self._buffer[HEADER_BYTES : HEADER_BYTES + length]
            )
            del self._buffer[: HEADER_BYTES + length]
            tail_start = _META_LENGTH.size
            if length >= tail_start:
                tail_start += _META_LENGTH.unpack_from(body)[0]
            if tail_start > length:
                raise ProtocolError(
                    f"frame meta section ends at byte {tail_start} of a "
                    f"{length}-byte payload"
                )
            try:
                meta = json.loads(
                    body[_META_LENGTH.size : tail_start].decode("utf-8")
                )
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ProtocolError(
                    f"frame meta is not valid JSON: {error}"
                ) from error
            if not isinstance(meta, dict):
                raise ProtocolError(
                    "frame meta must be a JSON object, got "
                    f"{type(meta).__name__}"
                )
            payload = Payload(meta, memoryview(body)[tail_start:])
            frames.append(Frame(kind, request_id, payload))


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def encode_value(value: "Value | None"):
    """One predicate/row value into its JSON form.

    int / str / bool / None and every finite float are JSON-native and
    round-trip exactly; non-finite floats are tagged.
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {"__float__": "nan"}
        return {"__float__": "inf" if value > 0 else "-inf"}
    return value


def decode_value(encoded):
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, dict):
        try:
            return float(encoded["__float__"])
        except (KeyError, ValueError, TypeError):
            raise ProtocolError(
                f"malformed value payload {encoded!r}"
            ) from None
    return encoded


def _encode_table(rows, tail: list[bytes]) -> dict:
    """A row payload as column descriptors, its buffers appended to
    ``tail``.  A column crosses as ``["f" | "i", byte length]`` only when
    a buffer reproduces every value *and its exact type*; None, bool, str,
    mixed and out-of-int64 columns cross as ``["j", values]``.  Ragged
    rows cross over the union of their columns, null-padded, with the
    padded ``[row, column]`` cells listed under ``"absent"``."""
    absent = None
    try:
        table = RowSet.from_rows(rows)
    except SchemaError:
        names = tuple(dict.fromkeys(chain.from_iterable(rows)))
        absent = [
            [i, j]
            for i, row in enumerate(rows)
            for j, name in enumerate(names)
            if name not in row
        ]
        padded = [[row.get(name) for row in rows] for name in names]
        table = RowSet(names, padded, len(rows))
    if not table.names and len(table) > MAX_BARE_ROWS:
        raise ProtocolError(
            f"{len(table)} rows without columns exceed the "
            f"{MAX_BARE_ROWS}-row ceiling"
        )
    columns: list[list] = []
    for column in table.columns:
        kinds = set(map(type, column))
        buffer = None
        if kinds == {float}:
            tag, buffer = "f", np.array(column, dtype="<f8")
        elif kinds == {int}:
            try:
                tag, buffer = "i", np.array(column, dtype="<i8")
            except OverflowError:
                pass
        if buffer is None:
            columns.append(["j", [encode_value(v) for v in column]])
        else:
            tail.append(buffer.tobytes())
            columns.append([tag, buffer.nbytes])
    encoded = {"n": len(table), "names": list(table.names), "cols": columns}
    if absent is not None:
        encoded["absent"] = absent
    return encoded


def _decode_table(encoded: dict, payload: dict) -> "Sequence[Row]":
    """Inverse of :func:`_encode_table`: a :class:`RowSet` whose buffers
    are read off the payload's tail in column order, or a tuple of dicts
    when cells are absent.  Every inconsistency is a
    :class:`ProtocolError`."""
    tail = getattr(payload, "tail", b"")
    try:
        count, names = encoded["n"], encoded["names"]
        if (
            not isinstance(count, int)
            or count < 0
            or (not names and count > MAX_BARE_ROWS)
            or not all(isinstance(name, str) for name in names)
        ):
            raise ProtocolError(
                f"malformed row table header n={count!r} names={names!r}"
            )
        columns: list[list] = []
        offset = 0
        for tag, body in encoded["cols"]:
            if tag == "j":
                column = [decode_value(value) for value in body]
            elif tag in _BUFFER_DTYPES:
                if (
                    not isinstance(body, int)
                    or body % 8
                    or not 0 <= body <= len(tail) - offset
                ):
                    raise ProtocolError(
                        f"column buffer of {body!r} bytes at byte {offset} is "
                        f"not 8-byte values inside a {len(tail)}-byte tail"
                    )
                column = np.frombuffer(
                    tail, _BUFFER_DTYPES[tag], body // 8, offset
                ).tolist()
                offset += body
            else:
                raise ProtocolError(f"unknown column tag {tag!r}")
            if len(column) != count:
                raise ProtocolError(
                    f"column of {len(column)} values in a {count}-row table"
                )
            columns.append(column)
        table = RowSet(names, columns, count)
        if "absent" not in encoded:
            return table
        ragged = list(table)
        for i, j in encoded["absent"]:
            del ragged[i][names[j]]
        return tuple(ragged)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, SchemaError) as error:
        raise ProtocolError(f"malformed row table: {error}") from error


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def encode_predicate(predicate: Predicate) -> dict:
    """One relational predicate node into its tagged JSON form."""
    if predicate is TRUE or type(predicate).__name__ == "TruePredicate":
        return {"p": "true"}
    if predicate is FALSE or type(predicate).__name__ == "FalsePredicate":
        return {"p": "false"}
    if isinstance(predicate, Comparison):
        return {
            "p": "cmp",
            "col": predicate.column,
            "op": predicate.op.value,
            "v": encode_value(predicate.value),
        }
    if isinstance(predicate, InSet):
        return {
            "p": "in",
            "col": predicate.column,
            "vs": [encode_value(v) for v in predicate.values],
        }
    if isinstance(predicate, Interval):
        payload: dict = {
            "p": "iv",
            "col": predicate.column,
            "lc": predicate.low_closed,
            "hc": predicate.high_closed,
        }
        if predicate.low is not None:
            payload["lo"] = encode_value(predicate.low)
        if predicate.high is not None:
            payload["hi"] = encode_value(predicate.high)
        return payload
    if isinstance(predicate, And):
        return {
            "p": "and",
            "ops": [encode_predicate(op) for op in predicate.operands],
        }
    if isinstance(predicate, Or):
        return {
            "p": "or",
            "ops": [encode_predicate(op) for op in predicate.operands],
        }
    if isinstance(predicate, Not):
        return {"p": "not", "op": encode_predicate(predicate.operand)}
    raise ProtocolError(
        f"cannot encode predicate type {type(predicate).__name__}"
    )


def decode_predicate(payload: dict) -> Predicate:
    """Inverse of :func:`encode_predicate`."""
    try:
        tag = payload["p"]
    except (TypeError, KeyError):
        raise ProtocolError(
            f"malformed predicate payload {payload!r}"
        ) from None
    try:
        if tag == "true":
            return TRUE
        if tag == "false":
            return FALSE
        if tag == "cmp":
            return Comparison(
                payload["col"], Op(payload["op"]), decode_value(payload["v"])
            )
        if tag == "in":
            return InSet(
                payload["col"],
                tuple(decode_value(v) for v in payload["vs"]),
            )
        if tag == "iv":
            return Interval(
                payload["col"],
                low=decode_value(payload["lo"])
                if "lo" in payload
                else None,
                high=decode_value(payload["hi"])
                if "hi" in payload
                else None,
                low_closed=payload["lc"],
                high_closed=payload["hc"],
            )
        if tag == "and":
            return And(
                tuple(decode_predicate(op) for op in payload["ops"])
            )
        if tag == "or":
            return Or(
                tuple(decode_predicate(op) for op in payload["ops"])
            )
        if tag == "not":
            return Not(decode_predicate(payload["op"]))
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError, PredicateError) as error:
        # PredicateError: well-formed JSON that breaks a constructor's
        # invariant (empty IN set, inverted interval, one-operand AND).
        raise ProtocolError(
            f"malformed predicate payload {payload!r}: {error}"
        ) from error
    raise ProtocolError(f"unknown predicate tag {tag!r}")


def encode_mining_predicate(predicate: MiningPredicate) -> dict:
    """One mining predicate into its tagged JSON form."""
    if isinstance(predicate, PredictionEquals):
        return {
            "m": "eq",
            "model": predicate.model_name,
            "label": encode_value(predicate.label),
        }
    if isinstance(predicate, PredictionIn):
        return {
            "m": "in",
            "model": predicate.model_name,
            "labels": [encode_value(v) for v in predicate.labels],
        }
    if isinstance(predicate, PredictionJoinPrediction):
        return {
            "m": "join_pred",
            "a": predicate.model_a,
            "b": predicate.model_b,
        }
    if isinstance(predicate, PredictionJoinColumn):
        return {
            "m": "join_col",
            "model": predicate.model_name,
            "col": predicate.column,
        }
    raise ProtocolError(
        f"cannot encode mining predicate type {type(predicate).__name__}"
    )


def decode_mining_predicate(payload: dict) -> MiningPredicate:
    """Inverse of :func:`encode_mining_predicate`."""
    try:
        tag = payload["m"]
        if tag == "eq":
            return PredictionEquals(
                payload["model"], decode_value(payload["label"])
            )
        if tag == "in":
            return PredictionIn(
                payload["model"],
                tuple(decode_value(v) for v in payload["labels"]),
            )
        if tag == "join_pred":
            return PredictionJoinPrediction(payload["a"], payload["b"])
        if tag == "join_col":
            return PredictionJoinColumn(payload["model"], payload["col"])
    except ProtocolError:
        raise
    except (KeyError, TypeError, RewriteError) as error:
        raise ProtocolError(
            f"malformed mining predicate payload {payload!r}: {error}"
        ) from error
    raise ProtocolError(f"unknown mining predicate tag {tag!r}")


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def encode_request(
    request: "QueryRequest | MatchRequest | DeployRequest | RetireRequest",
) -> Payload:
    """One typed request into its tagged payload."""
    tail: list[bytes] = []
    return Payload(_request_meta(request, tail), b"".join(tail))


def _request_meta(request, tail: list[bytes]) -> dict:
    if isinstance(request, QueryRequest):
        return {
            "q": "query",
            "table": request.query.table,
            "rel": encode_predicate(request.query.relational_predicate),
            "mine": [
                encode_mining_predicate(p)
                for p in request.query.mining_predicates
            ],
            "optimize": request.optimize,
            "timeout": request.timeout,
        }
    if isinstance(request, MatchRequest):
        return {
            "q": "match",
            "rows": _encode_table(request.rows, tail),
            "segments": None
            if request.segments is None
            else list(request.segments),
            "timeout": request.timeout,
        }
    if isinstance(request, DeployRequest):
        # to_dict payloads are JSON-native by the interchange contract
        # (save_model writes them with plain json.dumps), so the model
        # body crosses verbatim.
        return {
            "q": "deploy",
            "model": request.model,
            "rows": None
            if request.rows is None
            else _encode_table(request.rows, tail),
        }
    if isinstance(request, RetireRequest):
        return {"q": "retire", "name": request.name}
    raise ProtocolError(
        f"cannot encode request type {type(request).__name__}"
    )


def _decode_timeout(value) -> "float | None":
    """A request timeout off the wire: null or a positive number."""
    if value is None:
        return None
    # JSON's own numbers only: ``true`` is an int to isinstance.
    if type(value) not in (int, float) or not value > 0:
        raise ProtocolError(
            f"timeout must be null or a number > 0, got {value!r}"
        )
    return value


def decode_request(
    payload: dict,
) -> "QueryRequest | MatchRequest | DeployRequest | RetireRequest":
    """Inverse of :func:`encode_request`."""
    try:
        tag = payload["q"]
        if tag == "query":
            return QueryRequest(
                query=MiningQuery(
                    table=payload["table"],
                    relational_predicate=decode_predicate(payload["rel"]),
                    mining_predicates=tuple(
                        decode_mining_predicate(p) for p in payload["mine"]
                    ),
                ),
                optimize=payload["optimize"],
                timeout=_decode_timeout(payload["timeout"]),
            )
        if tag == "match":
            return MatchRequest(
                rows=_decode_table(payload["rows"], payload),
                segments=None
                if payload["segments"] is None
                else tuple(payload["segments"]),
                timeout=_decode_timeout(payload["timeout"]),
            )
        if tag == "deploy":
            return DeployRequest(
                model=payload["model"],
                rows=None
                if payload["rows"] is None
                else _decode_table(payload["rows"], payload),
            )
        if tag == "retire":
            return RetireRequest(name=payload["name"])
    except ProtocolError:
        raise
    except (KeyError, TypeError) as error:
        raise ProtocolError(
            f"malformed request payload: {error}"
        ) from error
    raise ProtocolError(f"unknown request tag {tag!r}")


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


def encode_response(
    result: "ServeResult | SegmentMatchResult | DeployResult | RetireResult",
) -> Payload:
    """One typed response into its tagged payload."""
    tail: list[bytes] = []
    return Payload(_response_meta(result, tail), b"".join(tail))


def _response_meta(result, tail: list[bytes]) -> dict:
    if isinstance(result, ServeResult):
        return {
            "r": "result",
            "rows": _encode_table(result.rows, tail),
            "strategy": result.strategy,
            "queue_seconds": result.queue_seconds,
            "execute_seconds": result.execute_seconds,
            "collapsed": result.collapsed,
        }
    if isinstance(result, SegmentMatchResult):
        index = {name: i for i, name in enumerate(result.segment_names)}
        return {
            "r": "match",
            "memberships": [
                [index[name] for name in names]
                for names in result.memberships
            ],
            "segment_names": list(result.segment_names),
            "catalog_version": result.catalog_version,
            "queue_seconds": result.queue_seconds,
            "match_seconds": result.match_seconds,
            "collapsed": result.collapsed,
            "coalesced": result.coalesced,
            "mask_stats": {
                "computed": result.mask_stats.computed,
                "shared": result.mask_stats.shared,
                "constants_skipped": result.mask_stats.constants_skipped,
                "plan_hits": result.mask_stats.plan_hits,
                "plan_misses": result.mask_stats.plan_misses,
            },
        }
    if isinstance(result, DeployResult):
        return {
            "r": "deploy",
            "name": result.name,
            "version": result.version,
            "catalog_version": result.catalog_version,
            "labels": [encode_value(v) for v in result.labels],
        }
    if isinstance(result, RetireResult):
        return {"r": "retire", "name": result.name, "version": result.version}
    raise ProtocolError(
        f"cannot encode response type {type(result).__name__}"
    )


def decode_response(
    payload: dict,
) -> "ServeResult | SegmentMatchResult | DeployResult | RetireResult":
    """Inverse of :func:`encode_response` (``ServeResult.report`` is
    ``None`` — execution reports do not cross the wire)."""
    try:
        tag = payload["r"]
        if tag == "result":
            return ServeResult(
                rows=_decode_table(payload["rows"], payload),
                strategy=payload["strategy"],
                queue_seconds=payload["queue_seconds"],
                execute_seconds=payload["execute_seconds"],
                collapsed=payload["collapsed"],
                report=None,
            )
        if tag == "match":
            stats = payload["mask_stats"]
            names = tuple(payload["segment_names"])
            return SegmentMatchResult(
                memberships=tuple(
                    tuple(names[i] for i in m)
                    for m in payload["memberships"]
                ),
                segment_names=names,
                catalog_version=payload["catalog_version"],
                queue_seconds=payload["queue_seconds"],
                match_seconds=payload["match_seconds"],
                collapsed=payload["collapsed"],
                coalesced=payload["coalesced"],
                mask_stats=MaskCacheStats(
                    computed=stats["computed"],
                    shared=stats["shared"],
                    constants_skipped=stats["constants_skipped"],
                    plan_hits=stats["plan_hits"],
                    plan_misses=stats["plan_misses"],
                ),
            )
        if tag == "deploy":
            return DeployResult(
                name=payload["name"],
                version=payload["version"],
                catalog_version=payload["catalog_version"],
                labels=tuple(decode_value(v) for v in payload["labels"]),
            )
        if tag == "retire":
            return RetireResult(
                name=payload["name"], version=payload["version"]
            )
    except ProtocolError:
        raise
    except (KeyError, TypeError, IndexError) as error:
        raise ProtocolError(
            f"malformed response payload: {error}"
        ) from error
    raise ProtocolError(f"unknown response tag {tag!r}")


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def _error_registry() -> dict[str, type]:
    """Every :class:`~repro.exceptions.ReproError` subclass, by name."""
    registry: dict[str, type] = {}
    for name in dir(_exceptions):
        obj = getattr(_exceptions, name)
        if isinstance(obj, type) and issubclass(obj, ReproError):
            registry[name] = obj
    return registry


_ERRORS = _error_registry()


def encode_error(error: BaseException) -> dict:
    """One exception into its wire form (class name plus message)."""
    return {"error": type(error).__name__, "message": str(error)}


def decode_error(payload: dict) -> ReproError:
    """Inverse of :func:`encode_error`.

    Unknown class names decode as plain
    :class:`~repro.exceptions.ServeError` carrying the original class
    name in the message — a newer server must not crash an older
    client's decoder.
    """
    try:
        name = payload["error"]
        message = payload["message"]
    except (TypeError, KeyError):
        raise ProtocolError(
            f"malformed error payload {payload!r}"
        ) from None
    cls = _ERRORS.get(name)
    if cls is None:
        return ServeError(f"{name}: {message}")
    try:
        return cls(message)
    except TypeError:
        return ServeError(f"{name}: {message}")
