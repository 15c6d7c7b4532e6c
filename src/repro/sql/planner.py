"""Physical-plan capture and comparison.

The paper's plan-change experiment (Section 5.2.1) records, per query,
whether adding the upper envelope changed the optimizer's physical plan,
where *changed* means (a) one or more indexes were chosen, or (b) a
"Constant Scan" answered the query without touching data (the envelope was
FALSE).  This module reproduces that bookkeeping on SQLite: plans are parsed
from ``EXPLAIN QUERY PLAN`` and classified as full scans, index searches
(including multi-index OR), or constant scans.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro import obs
from repro.core.predicates import FalsePredicate, Predicate
from repro.sql.compiler import select_statement
from repro.sql.database import Database

_SEARCH_INDEX = re.compile(r"USING (?:COVERING )?INDEX (\S+)")


class AccessPath(enum.Enum):
    """Classification of how a query touches the table."""

    FULL_SCAN = "full-scan"
    INDEX_SEARCH = "index-search"
    CONSTANT_SCAN = "constant-scan"


@dataclass(frozen=True)
class Plan:
    """A captured physical plan for one query."""

    access_path: AccessPath
    index_names: tuple[str, ...]
    detail: tuple[str, ...]

    @property
    def uses_index(self) -> bool:
        return self.access_path is AccessPath.INDEX_SEARCH

    @property
    def is_constant(self) -> bool:
        return self.access_path is AccessPath.CONSTANT_SCAN

    def changed_from(self, baseline: "Plan") -> bool:
        """The paper's plan-change criterion against a baseline plan."""
        if self.is_constant:
            return True
        if self.uses_index and not baseline.uses_index:
            return True
        return False


#: The plan of the ``SELECT * FROM T`` baseline: always a full scan.
FULL_SCAN_PLAN = Plan(AccessPath.FULL_SCAN, (), ("SCAN (baseline)",))

#: The plan when the predicate is provably FALSE: no data access at all.
CONSTANT_SCAN_PLAN = Plan(
    AccessPath.CONSTANT_SCAN, (), ("CONSTANT SCAN (predicate is FALSE)",)
)


def capture_plan(db: Database, table: str, predicate: Predicate) -> Plan:
    """Plan of ``SELECT * FROM table WHERE predicate``."""
    return capture_select_plan(db, table, predicate).plan


def parse_explain(rows: list[tuple[int, int, int, str]]) -> Plan:
    """Classify raw ``EXPLAIN QUERY PLAN`` output."""
    details = tuple(text for *_ids, text in rows)
    indexes: list[str] = []
    saw_scan = False
    for text in details:
        match = _SEARCH_INDEX.search(text)
        if match:
            indexes.append(match.group(1))
        elif text.startswith("SCAN"):
            saw_scan = True
    if indexes and not saw_scan:
        return Plan(AccessPath.INDEX_SEARCH, tuple(sorted(set(indexes))), details)
    return Plan(AccessPath.FULL_SCAN, tuple(sorted(set(indexes))), details)


@dataclass(frozen=True)
class SelectPlan:
    """The SELECT statement the executor issues and its captured plan."""

    sql: str
    plan: Plan


def capture_select_plan(
    db: Database, table: str, predicate: Predicate
) -> SelectPlan:
    """Render ``SELECT * FROM table WHERE predicate`` once and plan it.

    The flat statement is the only SQL issued: the choice of access path
    is left to SQLite's optimizer over the tuned indexes (paper §4), and
    the plan recorded is the plan of exactly the text that runs.

    A FALSE predicate is resolved to a constant scan *before* reaching the
    engine — the optimizer knows the envelope is empty from the catalog and
    never needs the data (paper Section 5.2.1 case (b)).
    """
    with obs.span("plan.capture", table=table) as sp:
        sql = select_statement(table, predicate)
        if isinstance(predicate, FalsePredicate):
            plan = CONSTANT_SCAN_PLAN
        else:
            plan = parse_explain(db.explain(sql))
        if obs.enabled():
            sp.update(
                access_path=plan.access_path.value,
                indexes=list(plan.index_names),
            )
        return SelectPlan(sql=sql, plan=plan)


@dataclass(frozen=True)
class PlanComparison:
    """Side-by-side of the baseline plan and the envelope plan."""

    baseline: Plan
    with_envelope: Plan

    @property
    def changed(self) -> bool:
        return self.with_envelope.changed_from(self.baseline)


def compare_plans(
    db: Database,
    table: str,
    baseline_predicate: Predicate,
    envelope_predicate: Predicate,
) -> PlanComparison:
    """Capture and compare plans with and without the upper envelope."""
    return PlanComparison(
        baseline=capture_plan(db, table, baseline_predicate),
        with_envelope=capture_plan(db, table, envelope_predicate),
    )
