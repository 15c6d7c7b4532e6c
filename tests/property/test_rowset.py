"""``RowSet`` ≡ the tuple of dicts it was built from (hypothesis).

:class:`~repro.core.columns.RowSet` is the one row representation from
the SQLite cursor to the wire client, and every consumer written against
a tuple of row dicts must keep working on it unchanged: ``len``,
indexing (negative too), slicing, iteration, ``==`` in both directions,
``take`` and concatenation all agree with the plain dict list, and an
iterated row is a real ``dict`` that ``json.dumps`` accepts.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columns import ColumnBatch, RowSet, concat_rows
from repro.exceptions import SchemaError

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63) - 1, 2**63),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)


@st.composite
def dict_rows(draw, names=None) -> list[dict]:
    if names is None:
        names = draw(
            st.lists(st.sampled_from("abcd"), max_size=4, unique=True)
        )
    count = draw(st.integers(0, 6))
    return [
        {name: draw(values) for name in names} for _ in range(count)
    ]


@settings(max_examples=150, deadline=None)
@given(rows=dict_rows(), data=st.data())
def test_rowset_reads_as_its_dict_rows(rows, data):
    table = RowSet.from_rows(rows)
    assert len(table) == len(rows)
    assert list(table) == rows
    assert table == rows and rows == table
    assert table == tuple(rows) and tuple(rows) == table
    assert not table != rows
    for index in range(-len(rows), len(rows)):
        assert table[index] == rows[index]
    for bad in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            table[bad]
    cut = data.draw(st.slices(len(rows)))
    assert isinstance(table[cut], RowSet)
    assert table[cut] == rows[cut]
    picks = data.draw(
        st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=8)
        if rows
        else st.just([])
    )
    expected = [rows[i] for i in picks]
    assert table.take(picks) == expected
    assert table.take(np.array(picks, dtype=np.int64)) == expected
    for got, sent in zip(table, rows):
        assert type(got) is dict
        assert list(got) == list(sent)  # column order
        assert all(type(got[k]) is type(sent[k]) for k in sent)
        assert json.dumps(got, sort_keys=True) == json.dumps(
            sent, sort_keys=True
        )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_concat_agrees_with_list_concatenation(data):
    names = data.draw(
        st.lists(st.sampled_from("abcd"), max_size=3, unique=True)
    )
    parts = data.draw(
        st.lists(dict_rows(names=names), min_size=1, max_size=3)
    )
    flat = [row for part in parts for row in part]
    # Empty dict lists carry no column names; keep the parts that do.
    tables = [RowSet(names, _columns(part, names), len(part)) for part in parts]
    merged = concat_rows(tables)
    assert isinstance(merged, RowSet) or len(tables) == 1
    assert merged == flat
    # Mixed with a plain dict list the result degrades to rows, not error.
    assert concat_rows([tables[0], list(parts[0])]) == parts[0] + parts[0]


def _columns(rows, names):
    return [[row[name] for row in rows] for name in names]


def test_unequal_content_is_unequal():
    table = RowSet.from_rows([{"a": 1, "b": 2.0}])
    assert table != [{"a": 1, "b": 2.5}]
    assert table != [{"a": 1}]
    assert table != []
    assert table != RowSet.from_rows([{"b": 2.0, "a": 2}])
    assert table == RowSet.from_rows([{"b": 2.0, "a": 1}])  # order-free


def test_ragged_rows_are_not_a_table():
    with pytest.raises(SchemaError, match="one column set"):
        RowSet.from_rows([{"a": 1}, {"b": 1}])
    with pytest.raises(SchemaError, match="one column set"):
        RowSet.from_rows([{"a": 1}, {"a": 1, "b": 2}])
    with pytest.raises(SchemaError):
        RowSet(("a", "b"), [(1, 2), (3,)])


def test_rowset_holds_no_dict_copy():
    table = RowSet.from_rows([{"a": 1}, {"a": 2}])
    assert table[0] is not table[0]
    assert all(
        not isinstance(getattr(table, slot), (dict, list))
        for slot in RowSet.__slots__
    )


class TestColumnBatchOverRowSet:
    TABLE = RowSet(
        ("n", "s", "m"),
        [(1, 2.5, 3, True), ("w", "x", "y", "z"), (1, None, "a", 2)],
    )

    def test_columns_come_from_the_table_not_from_rows(self):
        batch = ColumnBatch(self.TABLE)
        assert batch.rows() is self.TABLE
        assert list(batch.column("s")) == ["w", "x", "y", "z"]
        assert list(batch.numeric("n")) == [1.0, 2.5, 3.0, 1.0]
        assert batch.kind("m") == "mixed"
        assert batch.has_column("n") and not batch.has_column("nope")

    def test_take_is_lazy_and_composes(self):
        batch = ColumnBatch(self.TABLE)
        batch.numeric("n")
        child = batch.take(np.array([3, 1, 0])).take(np.array([2, 0]))
        assert len(child) == 2
        assert list(child.numeric("n")) == [1.0, 1.0]
        # A column first touched after the takes is gathered from the base.
        assert list(child.column("s")) == ["w", "z"]
        assert child.kind("m") == "numeric"
        assert child.rows() == [self.TABLE[0], self.TABLE[3]]

    def test_equals_the_batch_over_the_same_dict_rows(self):
        dict_batch = ColumnBatch(list(self.TABLE))
        table_batch = ColumnBatch(self.TABLE)
        for name in self.TABLE.names:
            assert list(table_batch.column(name)) == list(
                dict_batch.column(name)
            )
            assert table_batch.kind(name) == dict_batch.kind(name)
        assert np.array_equal(
            table_batch.matrix(["n"]), dict_batch.matrix(["n"])
        )
