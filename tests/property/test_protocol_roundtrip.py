"""Property tests of the serving wire codec (hypothesis).

Four laws the protocol layer must uphold under arbitrary input:

1. **Frame streams are fragmentation-proof** — any sequence of frames,
   with or without a binary tail, concatenated back-to-back and fed to
   a :class:`FrameDecoder` in any chunking (including one byte at a
   time), decodes to exactly the frames that were encoded, in order.
2. **Requests round-trip** — ``decode_request(encode_request(r)) == r``
   for generated query and match requests over generated predicate
   trees, ragged row dicts and row tables.
3. **Values survive exactly** — int/str/bool/None and every finite
   float keep both value and type across the wire; NaN round-trips to
   NaN (compared through ``math.isnan``, since ``nan != nan``).
4. **Tables survive exactly** — a generated table of float, int, bool,
   None, str and mixed columns (empty and zero-column ones included)
   comes back with the same names, order, values *and exact types*
   whichever way each column crossed, buffer or JSON.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core.optimizer import MiningQuery
from repro.core.predicates import (
    Comparison,
    InSet,
    Interval,
    Not,
    Op,
    Predicate,
    conjunction,
    disjunction,
)
from repro.core.rewrite import (
    PredictionEquals,
    PredictionIn,
    PredictionJoinColumn,
    PredictionJoinPrediction,
)
from repro.core.columns import RowSet
from repro.serve.engine import MatchRequest, QueryRequest
from repro.serve.protocol import (
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    FrameDecoder,
    Payload,
    decode_request,
    decode_response,
    decode_value,
    encode_frame,
    encode_request,
    encode_response,
    encode_value,
)

from tests.serve.test_protocol import result_over

COLUMNS = ("age", "income", "region")
MODELS = ("risk_tree", "risk_nb")

finite_floats = st.floats(allow_nan=False, allow_infinity=False)

#: Values legal inside predicates (must be mutually orderable per type).
predicate_values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(
        allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
    ),
    st.text(min_size=0, max_size=8),
)

#: Floats a buffer must carry bit-exactly, specials included.
column_floats = st.one_of(
    finite_floats,
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
)
#: Ints around the float53 and int64 edges as well as ordinary ones.
column_ints = st.one_of(
    st.integers(-(2**53), 2**53),
    st.sampled_from(
        [2**53, -(2**53), 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]
    ),
)

#: Values legal inside rows — anything the codec claims to carry.
row_values = st.one_of(
    st.none(),
    st.booleans(),
    column_ints,
    column_floats,
    st.text(min_size=0, max_size=12),
)

#: One column's value strategy: a pure kind (which may cross as a
#: buffer) or a mix (which must cross as JSON).
column_kinds = st.sampled_from(
    [
        column_floats,
        column_ints,
        st.booleans(),
        st.none(),
        st.text(min_size=0, max_size=12),
        row_values,
    ]
)


@st.composite
def tables(draw, max_rows: int = 6) -> tuple:
    """A tuple of row dicts sharing one column set (possibly none)."""
    names = draw(st.lists(st.sampled_from(COLUMNS), max_size=3, unique=True))
    count = draw(st.integers(0, max_rows))
    columns = [
        draw(st.lists(draw(column_kinds), min_size=count, max_size=count))
        for _ in names
    ]
    return tuple(
        {name: column[i] for name, column in zip(names, columns)}
        for i in range(count)
    )


@st.composite
def atoms(draw) -> Predicate:
    column = draw(st.sampled_from(COLUMNS))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Comparison(
            column, draw(st.sampled_from(list(Op))), draw(predicate_values)
        )
    if kind == 1:
        # Homogeneous value type: InSet sorts its members.
        values = draw(
            st.one_of(
                st.lists(
                    st.integers(-50, 50), min_size=1, max_size=4, unique=True
                ),
                st.lists(
                    st.text(min_size=0, max_size=6),
                    min_size=1,
                    max_size=4,
                    unique=True,
                ),
            )
        )
        return InSet(column, tuple(values))
    low = draw(st.integers(-20, 20))
    high = draw(st.integers(low, 25))
    return Interval(
        column,
        low,
        high,
        low_closed=draw(st.booleans()),
        high_closed=draw(st.booleans()),
    )


def predicate_trees():
    return st.recursive(
        atoms(),
        lambda children: st.one_of(
            st.builds(
                lambda xs: conjunction(xs),
                st.lists(children, min_size=2, max_size=3),
            ),
            st.builds(
                lambda xs: disjunction(xs),
                st.lists(children, min_size=2, max_size=3),
            ),
            st.builds(Not, children),
        ),
        max_leaves=8,
    )


@st.composite
def mining_predicates(draw):
    model = draw(st.sampled_from(MODELS))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return PredictionEquals(model, draw(predicate_values))
    if kind == 1:
        labels = draw(
            st.lists(
                st.text(min_size=1, max_size=6),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        return PredictionIn(model, tuple(labels))
    if kind == 2:
        return PredictionJoinPrediction(MODELS[0], MODELS[1])
    return PredictionJoinColumn(model, draw(st.sampled_from(COLUMNS)))


@st.composite
def query_requests(draw) -> QueryRequest:
    return QueryRequest(
        query=MiningQuery(
            table=draw(st.sampled_from(("customers", "orders"))),
            relational_predicate=draw(predicate_trees()),
            mining_predicates=tuple(
                draw(st.lists(mining_predicates(), max_size=3))
            ),
        ),
        optimize=draw(st.booleans()),
        timeout=draw(st.one_of(st.none(), st.floats(0.001, 60))),
    )


@st.composite
def match_requests(draw) -> MatchRequest:
    # Ragged row dicts as callers may hand them in, or a typed table.
    ragged = st.lists(
        st.dictionaries(st.sampled_from(COLUMNS), row_values, max_size=3),
        max_size=4,
    ).map(tuple)
    rows = draw(st.one_of(ragged, tables(max_rows=4)))
    segments = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.text(min_size=1, max_size=8), max_size=3, unique=True
            ).map(tuple),
        )
    )
    return MatchRequest(
        rows=rows,
        segments=segments,
        timeout=draw(st.one_of(st.none(), st.floats(0.001, 60))),
    )


def rows_equivalent(a, b, key_order: bool = True) -> bool:
    """Row equality in value *and exact type* (``True`` is not ``1``,
    ``1`` is not ``1.0``, ``-0.0`` is not ``0.0``) where NaN equals NaN,
    column order included unless ``key_order`` is off (ragged rows come
    back keyed in the order the columns first appeared)."""
    if len(a) != len(b):
        return False
    for left, right in zip(a, b):
        if set(left) != set(right) or (key_order and list(left) != list(right)):
            return False
        for column in left:
            lv, rv = left[column], right[column]
            if type(lv) is not type(rv):
                return False
            if isinstance(lv, float):
                if math.isnan(lv) != math.isnan(rv):
                    return False
                if not math.isnan(lv) and (
                    lv != rv or math.copysign(1.0, lv) != math.copysign(1.0, rv)
                ):
                    return False
            elif lv != rv:
                return False
    return True


# ---------------------------------------------------------------------------
# 1. Frame streams survive arbitrary fragmentation
# ---------------------------------------------------------------------------

json_payloads = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**40), 2**40),
        finite_floats,
        st.text(max_size=12),
        st.lists(st.integers(-5, 5), max_size=3),
    ),
    max_size=4,
)

frame_specs = st.lists(
    st.tuples(
        st.sampled_from([KIND_REQUEST, KIND_RESPONSE, KIND_ERROR]),
        st.integers(0, 2**64 - 1),
        json_payloads,
        st.binary(max_size=24),
    ),
    max_size=5,
)


def stream_of(specs) -> bytes:
    return b"".join(
        encode_frame(kind, request_id, Payload(meta, tail))
        for kind, request_id, meta, tail in specs
    )


def seen(frames) -> list[tuple]:
    return [
        (f.kind, f.request_id, dict(f.payload), bytes(f.payload.tail))
        for f in frames
    ]


@settings(max_examples=60, deadline=None)
@given(specs=frame_specs, data=st.data())
def test_concatenated_frames_survive_any_chunking(specs, data):
    stream = stream_of(specs)
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(0, max(len(stream), 0)),
                max_size=8,
            )
        )
    )
    decoder = FrameDecoder()
    frames = []
    previous = 0
    for cut in cuts + [len(stream)]:
        frames.extend(decoder.feed(stream[previous:cut]))
        previous = cut
    assert seen(frames) == specs


@settings(max_examples=20, deadline=None)
@given(specs=frame_specs)
def test_frames_survive_byte_by_byte_delivery(specs):
    stream = stream_of(specs)
    decoder = FrameDecoder()
    frames = []
    for i in range(len(stream)):
        frames.extend(decoder.feed(stream[i : i + 1]))
    assert seen(frames) == specs


# ---------------------------------------------------------------------------
# 2. Requests round-trip
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(request=query_requests())
def test_query_requests_round_trip(request):
    payload = encode_frame(KIND_REQUEST, 1, encode_request(request))
    (frame,) = FrameDecoder().feed(payload)
    assert decode_request(frame.payload) == request


@settings(max_examples=80, deadline=None)
@given(request=match_requests())
def test_match_requests_round_trip(request):
    payload = encode_frame(KIND_REQUEST, 1, encode_request(request))
    (frame,) = FrameDecoder().feed(payload)
    decoded = decode_request(frame.payload)
    assert decoded.segments == request.segments
    assert decoded.timeout == request.timeout
    assert rows_equivalent(decoded.rows, request.rows, key_order=False)
    ragged = len({frozenset(row) for row in request.rows}) > 1
    assert isinstance(decoded.rows, tuple if ragged else RowSet)


# ---------------------------------------------------------------------------
# 3. Value fidelity
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(value=row_values)
def test_values_survive_exactly(value):
    # Through a real frame, so JSON serialization is part of the law.
    stream = encode_frame(KIND_REQUEST, 1, {"v": encode_value(value)})
    (frame,) = FrameDecoder().feed(stream)
    decoded = decode_value(frame.payload["v"])
    if isinstance(value, float) and math.isnan(value):
        assert isinstance(decoded, float) and math.isnan(decoded)
    else:
        assert decoded == value
        assert type(decoded) is type(value)


# ---------------------------------------------------------------------------
# 4. Table fidelity, however the frames arrive
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(rows=tables())
def test_tables_survive_exactly(rows):
    stream = encode_frame(KIND_RESPONSE, 1, encode_response(result_over(rows)))
    (frame,) = FrameDecoder().feed(stream)
    decoded = decode_response(frame.payload).rows
    assert isinstance(decoded, RowSet)
    assert rows_equivalent(decoded, rows)
    if rows:
        assert decoded.names == tuple(rows[0])


@settings(max_examples=40, deadline=None)
@given(first=tables(), second=tables())
def test_tables_survive_byte_by_byte_and_concatenated_delivery(first, second):
    stream = b"".join(
        encode_frame(KIND_RESPONSE, rid, encode_response(result_over(rows)))
        for rid, rows in enumerate((first, second))
    )
    whole = FrameDecoder().feed(stream)
    decoder = FrameDecoder()
    trickled = []
    for i in range(len(stream)):
        trickled.extend(decoder.feed(stream[i : i + 1]))
    for frames in (whole, trickled):
        assert [f.request_id for f in frames] == [0, 1]
        for frame, rows in zip(frames, (first, second)):
            assert rows_equivalent(decode_response(frame.payload).rows, rows)
