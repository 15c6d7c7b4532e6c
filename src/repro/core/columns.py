"""Columnar rows: the :class:`RowSet` table and the :class:`ColumnBatch` view.

The paper's central cost observation is that *model application* dominates
mining-query execution.  :class:`RowSet` keeps a result column-wise from
the SQLite cursor to the wire, so no per-row object exists unless a
consumer iterates; :class:`ColumnBatch` turns its columns into NumPy
arrays **once per batch**, so that predicates
(:meth:`repro.core.predicates.Predicate.evaluate_batch`) evaluate as
whole-array masks and every model family's ``predict_batch`` scores all
rows with matrix arithmetic instead of a Python loop.

Columns materialize lazily: only columns a predicate or model actually
touches are converted, each at most once per batch.  Two views of a
column exist — the *object* view (original Python values, exact for
equality tests and label joins) and the *numeric* view (a ``float64``
cast for ordered comparisons and distance math).  Filtering only ever
selects row positions, so a vectorized execution returns byte-identical
rows to the scalar path.

The numeric view is strict: a column holding a value that is neither
``int`` nor ``float`` (a string, a ``None``) refuses to cast with
:class:`~repro.exceptions.PredicateError`, mirroring the scalar
algebra's raise on ordered comparison — NumPy would cast ``None`` to NaN
and silently *change the answer*.  :meth:`ColumnBatch.matrix` keeps the
lenient ``float()``-style cast the model kernels documented (numeric
strings convert), cached per column so predicate evaluation and model
scoring share one conversion per column per batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from typing import Mapping

import numpy as np

from repro.exceptions import PredicateError, SchemaError

#: A data row: column name -> value (matches :data:`repro.mining.base.Row`).
Row = Mapping[str, object]


class RowSet(Sequence):
    """An immutable columnar table that reads as a sequence of row dicts.

    ``names`` are the column names in row-key order, ``columns`` one
    value tuple per name.  It is *the* row representation from the
    SQLite cursor (``Database.query_rows`` transposes into it) through
    :class:`ColumnBatch` and the executor's ``take`` of survivors to the
    wire codec, which ships and rebuilds the columns.  Consumers that
    want rows get them unchanged: ``len``, index, slice, ``==`` against
    any sequence of mappings, and iteration building one fresh ``dict``
    per row on demand — none is kept, so a table costs only its columns.
    """

    __slots__ = ("names", "columns", "_length")

    def __init__(self, names, columns, length: int | None = None) -> None:
        self.names: tuple[str, ...] = tuple(names)
        self.columns: tuple[tuple, ...] = tuple(map(tuple, columns))
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self._length = length
        widths = [len(column) for column in self.columns]
        if len(self.names) != len(widths) or widths != [length] * len(widths):
            raise SchemaError(
                f"{len(self.names)} names over columns of lengths {widths} "
                f"do not make a {length}-row table"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "RowSet":
        """The table holding ``rows``, in the first row's column order;
        :class:`~repro.exceptions.SchemaError` if they are ragged."""
        if isinstance(rows, RowSet):
            return rows
        if not rows:
            return cls((), ())
        keys = rows[0].keys()
        if any(row.keys() != keys for row in rows):
            raise SchemaError(
                f"rows do not share one column set {sorted(keys)}"
            )
        return cls(keys, [[row[name] for row in rows] for name in keys], len(rows))

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[dict]:
        names = self.names
        if not names:
            return ({} for _ in range(self._length))
        return (dict(zip(names, values)) for values in zip(*self.columns))

    def __getitem__(self, index):
        if isinstance(index, slice):
            size = len(range(*index.indices(self._length)))
            return RowSet(self.names, [c[index] for c in self.columns], size)
        position = index + self._length if index < 0 else index
        if not 0 <= position < self._length:
            raise IndexError("RowSet index out of range")
        return {n: column[position] for n, column in zip(self.names, self.columns)}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowSet) and other.names == self.names:
            return self._length == other._length and self.columns == other.columns
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(other) == self._length and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RowSet({list(self)!r})"

    def column(self, name: str) -> tuple:
        """The values of one column; ``KeyError`` for an unknown name."""
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def take(self, indices: Sequence[int]) -> "RowSet":
        """The rows at ``indices`` (any int sequence or array), in order."""
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()
        return RowSet(
            self.names,
            [tuple(map(column.__getitem__, indices)) for column in self.columns],
            len(indices),
        )


def concat_rows(parts: Sequence[Sequence[Row]]) -> Sequence[Row]:
    """Several row sequences as one — column-wise, as a :class:`RowSet`,
    when all of them are tables over the same columns."""
    first = parts[0]
    if all(isinstance(p, RowSet) and p.names == first.names for p in parts):
        stacked = zip(*(p.columns for p in parts))
        return RowSet(
            first.names, map(chain.from_iterable, stacked), sum(map(len, parts))
        )
    return [row for part in parts for row in part]


class ColumnBatch:
    """A read-only columnar view over a sequence of rows.

    Construction is O(1): no column is touched until requested.  Over a
    :class:`RowSet` a column is read straight from the table and no row
    is ever built; over any other sequence of mappings it is gathered
    from the rows.  Use :meth:`take` to restrict the batch to a subset of
    rows — already materialized columns are sliced with NumPy fancy
    indexing rather than rebuilt, and the subset's rows themselves are
    only gathered if :meth:`rows` is called, which is what makes
    short-circuit masking cheap.
    """

    __slots__ = (
        "_base",
        "_positions",
        "_taken",
        "_objects",
        "_numeric_cache",
        "_lenient_cache",
        "_kinds",
    )

    def __init__(self, rows: Sequence[Row]) -> None:
        #: The sequence the batch was built over and, for a :meth:`take`
        #: child, the positions in it the child stands for (``None`` =
        #: all of it); ``_taken`` is the child's own rows once gathered.
        self._base: Sequence[Row] = rows
        self._positions: np.ndarray | None = None
        self._taken: Sequence[Row] | None = None
        self._objects: dict[str, np.ndarray] = {}
        self._numeric_cache: dict[str, np.ndarray] = {}
        self._lenient_cache: dict[str, np.ndarray] = {}
        self._kinds: dict[str, str] = {}

    def __len__(self) -> int:
        if self._positions is None:
            return len(self._base)
        return len(self._positions)

    def rows(self) -> Sequence[Row]:
        """The underlying row mappings, in batch order."""
        base = self._base
        if self._positions is None:
            return base
        if self._taken is None:
            if isinstance(base, RowSet):
                self._taken = base.take(self._positions)
            else:
                self._taken = [base[i] for i in self._positions.tolist()]
        return self._taken

    def has_column(self, name: str) -> bool:
        """Whether the batch's rows carry ``name`` (vacuously true if empty)."""
        if len(self) == 0:
            return True
        if isinstance(self._base, RowSet):
            return name in self._base.names
        return name in self.rows()[0]

    def column(self, name: str) -> np.ndarray:
        """Object-dtype array of the raw column values.

        Raises :class:`~repro.exceptions.PredicateError` for a missing
        column, mirroring scalar :func:`repro.core.predicates._lookup`.
        """
        cached = self._objects.get(name)
        if cached is not None:
            return cached
        try:
            if len(self) == 0:
                gathered: Iterable[object] = ()
            elif isinstance(self._base, RowSet):
                gathered = self._base.column(name)
                if self._positions is not None:
                    gathered = map(gathered.__getitem__, self._positions.tolist())
            else:
                gathered = [row[name] for row in self.rows()]
        except KeyError:
            raise PredicateError(f"row has no column {name!r}") from None
        values = np.fromiter(gathered, dtype=object, count=len(self))
        self._objects[name] = values
        return values

    def kind(self, name: str) -> str:
        """Value kind of a column: ``numeric``, ``string`` or ``mixed``.

        ``numeric`` means *every* value is an ``int`` or ``float`` (bools
        included — they are ints to the scalar algebra too); ``string``
        means every value is a ``str``.  A column holding anything else —
        a ``None``, a mix of strings and numbers — is ``mixed``, and any
        attempt to use it as one uniform type fails loudly.  An empty
        batch reports ``numeric`` (there is nothing to contradict it, and
        every mask over it is empty anyway).
        """
        kind = self._kinds.get(name)
        if kind is None:
            has_str = has_num = has_other = False
            for value_type in set(map(type, self.column(name))):
                if issubclass(value_type, str):
                    has_str = True
                elif issubclass(value_type, (int, float)):
                    has_num = True
                else:
                    has_other = True
            if has_other or (has_str and has_num):
                kind = "mixed"
            elif has_str:
                kind = "string"
            else:
                kind = "numeric"
            self._kinds[name] = kind
        return kind

    def is_numeric(self, name: str) -> bool:
        """True when every value in the column is an ``int`` or ``float``."""
        return self.kind(name) == "numeric"

    def numeric(self, name: str) -> np.ndarray:
        """``float64`` view of a numeric column.

        Raises :class:`~repro.exceptions.PredicateError` when the column
        holds a string or a non-numeric value such as ``None`` — an
        ordered comparison against it would raise in the scalar algebra,
        and casting ``None`` to NaN would silently answer ``False``
        where the scalar path raises.
        """
        cached = self._numeric_cache.get(name)
        if cached is not None:
            return cached
        if not self.is_numeric(name):
            raise PredicateError(
                f"column {name!r} holds non-numeric values; "
                "cannot use it numerically"
            )
        converted = self.column(name).astype(np.float64)
        self._numeric_cache[name] = converted
        return converted

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """``(len(batch), len(names))`` float matrix of feature columns.

        Values are converted with ``float()`` semantics (the same cast the
        scalar ``predict`` implementations apply per row), so numeric
        strings convert and non-numeric ones raise.  Pure numeric columns
        share the :meth:`numeric` cache — one conversion per column per
        batch whether a column is touched by predicate evaluation, model
        scoring, or both; columns needing the lenient cast (numeric
        strings) are cached separately so repeated :meth:`matrix` calls
        never re-convert either way.
        """
        if not names:
            return np.zeros((len(self), 0), dtype=float)
        stacked = np.empty((len(self), len(names)), dtype=float)
        for j, name in enumerate(names):
            stacked[:, j] = self._feature_column(name)
        return stacked

    def _feature_column(self, name: str) -> np.ndarray:
        """One feature column as float64, cached (strict or lenient)."""
        if self.is_numeric(name):
            return self.numeric(name)
        cached = self._lenient_cache.get(name)
        if cached is not None:
            return cached
        converted = self.column(name).astype(np.float64)
        self._lenient_cache[name] = converted
        return converted

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        """A sub-batch of the given row positions (in the given order).

        Materialized column caches carry over as NumPy slices, so
        narrowing an already-scored batch costs O(selected) per touched
        column instead of a rebuild.
        """
        indices = np.asarray(indices, dtype=np.intp)
        child = ColumnBatch(self._base)
        child._positions = (
            indices if self._positions is None else self._positions[indices]
        )
        child._objects = {
            name: values[indices] for name, values in self._objects.items()
        }
        child._numeric_cache = {
            name: values[indices]
            for name, values in self._numeric_cache.items()
        }
        child._lenient_cache = {
            name: values[indices]
            for name, values in self._lenient_cache.items()
        }
        # Pure kinds carry over; a subset of a mixed column may shed one of
        # its kinds, so "mixed" verdicts are recomputed on demand.
        child._kinds = {
            name: kind
            for name, kind in self._kinds.items()
            if kind != "mixed"
        }
        return child

    def select(self, mask: np.ndarray) -> list[Row]:
        """The original row mappings where ``mask`` is true."""
        rows = self.rows()
        return [rows[i] for i in np.flatnonzero(mask)]
