"""SQLite-backed relational store.

This is the paper's "Microsoft SQL Server" substitute (see DESIGN.md): a
real SQL engine with a cost-based planner that turns selective AND/OR
predicates into index seeks (``SEARCH ... USING INDEX``) and multi-index OR
plans, and whose chosen plan we can introspect via ``EXPLAIN QUERY PLAN``.
"""

from __future__ import annotations

import itertools
import os
import sqlite3
import time
from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.core.columns import RowSet
from repro.core.predicates import Predicate, Value
from repro.exceptions import DatabaseError, SchemaError
from repro.sql.compiler import (
    count_statement,
    quote_identifier,
    select_statement,
)
from repro.sql.schema import TableSchema, check_identifier

Row = dict[str, Value]

#: Insert batch size; keeps memory flat while loading million-row tables.
_BATCH = 5_000

#: Names successive in-memory databases uniquely within one process.
_MEMORY_SEQUENCE = itertools.count(1)


def _memory_uri() -> str:
    """A fresh shared-cache URI for one private in-memory database.

    Plain ``:memory:`` databases are invisible to every other connection,
    which makes them impossible to serve from a connection pool.  Naming
    the database (``file:...?mode=memory&cache=shared``) keeps it fully
    in-memory and private to this process while letting
    :meth:`Database.for_thread` open sibling connections onto the same
    data.  The pid + counter name keeps independent :class:`Database`
    instances isolated from each other.
    """
    return (
        f"file:repro-mem-{os.getpid()}-{next(_MEMORY_SEQUENCE)}"
        "?mode=memory&cache=shared"
    )


class Database:
    """A thin, explicit wrapper around one SQLite connection.

    Use as a context manager or call :meth:`close` explicitly.  All helpers
    raise :class:`~repro.exceptions.DatabaseError` with the offending SQL on
    failure.

    One :class:`Database` wraps one connection and is **not** safe to share
    across threads (sqlite3 enforces thread affinity).  For concurrent
    serving, :meth:`for_thread` opens a sibling connection onto the same
    data — in-memory databases are created through a named shared-cache URI
    precisely so siblings can attach.  The sibling shares this instance's
    schema registry by reference, so tables and indexes created through any
    handle are visible to all of them.  An in-memory database lives as long
    as its *primary* handle: close the primary last.
    """

    def __init__(
        self,
        path: str = ":memory:",
        *,
        uri: bool = False,
        read_only: bool = False,
        check_same_thread: bool = True,
    ) -> None:
        if path == ":memory:":
            path = _memory_uri()
            uri = True
        self._path = path
        self._uri = uri
        self.read_only = read_only
        self._connection = sqlite3.connect(
            path, uri=uri, check_same_thread=check_same_thread
        )
        # Analytics workload: bigger cache, no per-statement fsync cost.
        self._connection.execute("PRAGMA cache_size = -64000")
        self._connection.execute("PRAGMA synchronous = OFF")
        if read_only:
            # Serving connections are read-only by contract; the pragma
            # turns an accidental write into a hard sqlite error.
            self._connection.execute("PRAGMA query_only = ON")
        self._tables: dict[str, TableSchema] = {}
        self._indexes: dict[str, tuple[str, tuple[str, ...]]] = {}

    @property
    def path(self) -> str:
        """The connection target (a URI for in-memory databases)."""
        return self._path

    def for_thread(self, read_only: bool = True) -> "Database":
        """A sibling :class:`Database` for use by another thread.

        Opens a new connection onto the same underlying database (shared
        in-memory cache or the same file) and shares this instance's
        table/index registries by reference.  The default is a read-only
        serving connection (``PRAGMA query_only = ON``); pass
        ``read_only=False`` for a writable sibling.

        The sibling is created with ``check_same_thread=False`` so a pool
        coordinator may *close* it from another thread; queries must still
        come from one thread at a time.
        """
        sibling = Database(
            self._path,
            uri=self._uri,
            read_only=read_only,
            check_same_thread=False,
        )
        sibling._tables = self._tables
        sibling._indexes = self._indexes
        return sibling

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        self._connection.close()

    # -- DDL and loading ----------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        if schema.name in self._tables:
            raise DatabaseError(f"table {schema.name!r} already exists")
        self.execute(schema.create_statement())
        self._tables[schema.name] = schema

    def schema(self, table: str) -> TableSchema:
        try:
            return self._tables[table]
        except KeyError:
            raise DatabaseError(f"no table named {table!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def insert_rows(
        self, table: str, rows: Iterable[Mapping[str, Value]]
    ) -> int:
        """Bulk-insert rows in batches; returns the number inserted."""
        schema = self.schema(table)
        columns = schema.column_names
        placeholders = ", ".join("?" for _ in columns)
        column_list = ", ".join(quote_identifier(c) for c in columns)
        statement = (
            f'INSERT INTO {quote_identifier(table)} ({column_list}) '
            f"VALUES ({placeholders})"
        )
        inserted = 0
        batch: list[tuple[Value, ...]] = []
        for row in rows:
            try:
                batch.append(tuple(row[c] for c in columns))
            except KeyError as exc:
                raise DatabaseError(
                    f"row is missing column {exc.args[0]!r} required by "
                    f"table {table!r}"
                ) from exc
            if len(batch) >= _BATCH:
                self._connection.executemany(statement, batch)
                inserted += len(batch)
                batch = []
        if batch:
            self._connection.executemany(statement, batch)
            inserted += len(batch)
        self._connection.commit()
        return inserted

    def create_index(
        self, table: str, columns: Sequence[str], name: str | None = None
    ) -> str:
        """Create a (possibly composite) index; returns its name."""
        schema = self.schema(table)
        for column in columns:
            try:
                schema.column(column)
            except SchemaError as exc:
                raise DatabaseError(str(exc)) from exc
        if name is None:
            name = f"idx_{table}_" + "_".join(columns)
        check_identifier(name)
        if name in self._indexes:
            raise DatabaseError(f"index {name!r} already exists")
        column_list = ", ".join(quote_identifier(c) for c in columns)
        self.execute(
            f'CREATE INDEX {quote_identifier(name)} ON '
            f"{quote_identifier(table)} ({column_list})"
        )
        self._indexes[name] = (table, tuple(columns))
        return name

    def drop_index(self, name: str) -> None:
        if name not in self._indexes:
            raise DatabaseError(f"no index named {name!r}")
        self.execute(f"DROP INDEX {quote_identifier(name)}")
        del self._indexes[name]

    def drop_all_indexes(self, table: str | None = None) -> None:
        for name, (index_table, _) in list(self._indexes.items()):
            if table is None or index_table == table:
                self.drop_index(name)

    def index_names(self, table: str | None = None) -> list[str]:
        return sorted(
            name
            for name, (index_table, _) in self._indexes.items()
            if table is None or index_table == table
        )

    def analyze(self) -> None:
        """Refresh SQLite's planner statistics (``ANALYZE``)."""
        self.execute("ANALYZE")

    # -- querying -------------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[Value] = ()) -> sqlite3.Cursor:
        try:
            return self._connection.execute(sql, parameters)
        except sqlite3.Error as exc:
            raise DatabaseError(f"{exc} (while executing: {sql})") from exc

    def query_rows(self, sql: str) -> RowSet:
        """The full result as one columnar table.

        The cursor's tuples are transposed straight into columns; no
        per-row object is built until a caller iterates the result.
        """
        cursor = self.execute(sql)
        names = [column[0] for column in cursor.description]
        fetched = cursor.fetchall()
        columns = zip(*fetched) if fetched else [()] * len(names)
        return RowSet(names, columns, len(fetched))

    def iter_rows(self, sql: str) -> Iterator[Row]:
        cursor = self.execute(sql)
        names = [column[0] for column in cursor.description]
        for row in cursor:
            yield dict(zip(names, row))

    def select(self, table: str, predicate: Predicate) -> RowSet:
        return self.query_rows(select_statement(table, predicate))

    def count(self, table: str, predicate: Predicate) -> int:
        cursor = self.execute(count_statement(table, predicate))
        return int(cursor.fetchone()[0])

    def row_count(self, table: str) -> int:
        cursor = self.execute(
            f"SELECT COUNT(*) FROM {quote_identifier(table)}"
        )
        return int(cursor.fetchone()[0])

    def selectivity(self, table: str, predicate: Predicate) -> float:
        """Measured (not estimated) selectivity of a predicate."""
        total = self.row_count(table)
        if total == 0:
            raise DatabaseError(f"table {table!r} is empty")
        return self.count(table, predicate) / total

    def timed_fetch(self, sql: str) -> tuple[int, float]:
        """Execute and fully fetch ``sql``; returns (row count, seconds).

        Fetching every row mirrors the paper's methodology: the client
        consumes the full result of ``SELECT *`` / the envelope query.
        """
        started = time.perf_counter()
        cursor = self.execute(sql)
        count = 0
        while True:
            chunk = cursor.fetchmany(_BATCH)
            if not chunk:
                break
            count += len(chunk)
        return count, time.perf_counter() - started

    def explain(self, sql: str) -> list[tuple[int, int, int, str]]:
        """Raw ``EXPLAIN QUERY PLAN`` rows for a statement."""
        cursor = self.execute(f"EXPLAIN QUERY PLAN {sql}")
        return [
            (int(r[0]), int(r[1]), int(r[2]), str(r[3]))
            for r in cursor.fetchall()
        ]

    def sample_rows(self, table: str, limit: int, seed: int = 0) -> RowSet:
        """Deterministic pseudo-random sample used for statistics building.

        Rows are ranked by a two-stage multiplicative hash of the rowid
        (Knuth's 2654435761 then the ANSI-C LCG multiplier, each reduced
        by a different prime — the second stage makes the seed reshuffle
        the ranking instead of merely shifting hash values) and the
        ``limit`` best-ranked rows are returned.  The hash scatters
        selections uniformly over the whole rowid range, so the sample is
        identical regardless of insertion batching and never aliases with
        the period of a repeated-doubling table the way stride sampling
        does, nor truncates to a table prefix.
        """
        total = self.row_count(table)
        if total <= limit:
            return self.query_rows(
                f"SELECT * FROM {quote_identifier(table)}"
            )
        rank = (
            f"((rowid * 2654435761 + {seed}) % 2147483647) "
            f"* 1103515245 % 4294967291"
        )
        return self.query_rows(
            f"SELECT * FROM {quote_identifier(table)} "
            f"ORDER BY {rank}, rowid LIMIT {limit}"
        )


def load_table(
    db: Database,
    table: str,
    rows: Sequence[Mapping[str, Value]],
) -> TableSchema:
    """Create a table from sample rows and load them; returns the schema."""
    schema = TableSchema.from_rows(table, rows)
    db.create_table(schema)
    db.insert_rows(table, rows)
    return schema
