"""Compile predicate IR to SQLite WHERE-clause text (the SQL lowering).

Upper envelopes are AND/OR expressions of simple selection predicates; this
module renders them in exactly the shape SQLite's planner can exploit for
index seeks and multi-index OR plans.  Literals are rendered inline (with
strict escaping) rather than as bind parameters so that ``EXPLAIN QUERY
PLAN`` output corresponds one-to-one with the executed statement.

The compiler is a :class:`~repro.ir.visitor.PredicateVisitor` — the same
dispatch mechanism the batch lowering uses, with SQL text as the target.

NULL semantics.  ``Predicate.evaluate`` is the semantic source of truth,
and it is two-valued: a ``None`` value is simply a value that equals
nothing (``!=`` and ``NOT IN`` hold, ``=`` and ``IN`` do not).  SQL's
three-valued logic instead makes every comparison against NULL unknown,
silently *excluding* NULL rows from negated atoms — which would make a
pushed-down envelope drop rows the model still predicts on, an
unsoundness, not a style difference.  The lowering therefore maintains
*truth parity* (the SQL expression is TRUE exactly when ``evaluate``
returns True) on every node:

* ``col != v``   lowers to ``(col != v OR col IS NULL)``,
* ``NOT IN``     lowers to ``(col NOT IN (...) OR col IS NULL)``,
* generic ``NOT`` lowers to ``(inner) IS NOT TRUE`` — unlike ``NOT``,
  ``IS NOT TRUE`` maps unknown to true, matching the negation of a
  two-valued inner predicate.

Ordered comparisons (``<``, intervals) are exempt: ``evaluate`` raises on
a ``None`` ordered against a bound, so there is no defined behavior to
match and the bare SQL form (which excludes NULLs) is kept.
"""

from __future__ import annotations

from repro.core.predicates import (
    And,
    Comparison,
    FalsePredicate,
    InSet,
    Interval,
    Not,
    Op,
    Or,
    Predicate,
    TruePredicate,
    Value,
)
from repro.exceptions import PredicateError
from repro.ir.visitor import PredicateVisitor
from repro.sql.schema import check_identifier


def quote_identifier(name: str) -> str:
    """Bracket-quote a validated identifier.

    Square brackets (the SQL Server style, which SQLite accepts) are used
    deliberately instead of standard double quotes: SQLite's legacy
    double-quoted-string fallback silently turns a misspelled
    ``"column"`` into a string *literal*, so a typo would return an empty
    result instead of an error.  Bracketed identifiers fail loudly.
    """
    return f"[{check_identifier(name)}]"


def render_literal(value: Value) -> str:
    """Render a predicate constant as a SQL literal."""
    if isinstance(value, bool):
        raise PredicateError("boolean literals are not supported; use 0/1")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    raise PredicateError(f"cannot render literal {value!r}")


class SQLLowering(PredicateVisitor):
    """Lower an IR predicate to a SQLite boolean expression.

    Stateless; one shared instance serves every :func:`compile_predicate`
    call.  Each method returns an expression string whose truth value
    matches ``Predicate.evaluate`` row by row (see the module docstring
    for the NULL-parity contract).
    """

    __slots__ = ()

    def visit_true(self, pred: TruePredicate) -> str:
        return "1=1"

    def visit_false(self, pred: FalsePredicate) -> str:
        return "1=0"

    def visit_comparison(self, pred: Comparison) -> str:
        column = quote_identifier(pred.column)
        literal = render_literal(pred.value)
        if pred.op is Op.NE:
            # evaluate() treats None as unequal to every constant; SQL's
            # NULL != v is unknown and would drop the row.  The rendered
            # form self-parenthesizes because it is an OR expression.
            return f"({column} != {literal} OR {column} IS NULL)"
        return f"{column} {pred.op.value} {literal}"

    def visit_in_set(self, pred: InSet) -> str:
        column = quote_identifier(pred.column)
        values = ", ".join(render_literal(v) for v in pred.values)
        return f"{column} IN ({values})"

    def visit_interval(self, pred: Interval) -> str:
        column = quote_identifier(pred.column)
        if (
            pred.low is not None
            and pred.high is not None
            and pred.low_closed
            and pred.high_closed
        ):
            low = render_literal(pred.low)
            high = render_literal(pred.high)
            return f"{column} BETWEEN {low} AND {high}"
        parts = []
        if pred.low is not None:
            op = Op.GE if pred.low_closed else Op.GT
            parts.append(f"{column} {op.value} {render_literal(pred.low)}")
        if pred.high is not None:
            op = Op.LE if pred.high_closed else Op.LT
            parts.append(f"{column} {op.value} {render_literal(pred.high)}")
        return " AND ".join(parts)

    def visit_not(self, pred: Not) -> str:
        if isinstance(pred.operand, InSet):
            inner = pred.operand
            column = quote_identifier(inner.column)
            values = ", ".join(render_literal(v) for v in inner.values)
            # None is a member of no set, so evaluate() holds on NULL
            # rows; bare NOT IN would exclude them.
            return f"({column} NOT IN ({values}) OR {column} IS NULL)"
        # IS NOT TRUE maps unknown to true: the negation of a two-valued
        # inner predicate, where NOT (...) would map unknown to unknown
        # and silently exclude the row.
        return f"({self.visit(pred.operand)}) IS NOT TRUE"

    def visit_and(self, pred: And) -> str:
        return " AND ".join(self._parenthesize(o) for o in pred.operands)

    def visit_or(self, pred: Or) -> str:
        return " OR ".join(self._parenthesize(o) for o in pred.operands)

    def _parenthesize(self, pred: Predicate) -> str:
        text = self.visit(pred)
        if isinstance(pred, (And, Or)):
            return f"({text})"
        return text


_LOWERING = SQLLowering()


def compile_predicate(pred: Predicate) -> str:
    """Render a predicate tree as a SQL boolean expression."""
    return _LOWERING.visit(pred)


def select_statement(
    table: str,
    predicate: Predicate,
    columns: str = "*",
) -> str:
    """``SELECT <columns> FROM <table> WHERE <predicate>``.

    A TRUE predicate omits the WHERE clause, matching the paper's
    ``SELECT * FROM T`` baseline query exactly.
    """
    base = f'SELECT {columns} FROM {quote_identifier(table)}'
    if isinstance(predicate, TruePredicate):
        return base
    return f"{base} WHERE {compile_predicate(predicate)}"


def count_statement(table: str, predicate: Predicate) -> str:
    """``SELECT COUNT(*) ...`` used for selectivity measurement."""
    return select_statement(table, predicate, columns="COUNT(*)")

