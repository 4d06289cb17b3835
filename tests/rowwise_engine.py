"""Row-at-a-time domain and link checks, kept as a reference for the
engine's bound and set-at-a-time ones, and lookup_ids, the bulk column
read its tests compare with Database.lookup.

A domain row is judged by the oracle's judge (oracle.judge_row), which
walks both chains at the row through Database.lookup, one name at every
hop, where the engine reads the store's bound columns after one guarded
read. check_link_update walks the reverse indexes one target row at a
time, through Database.inverse, and evaluates the other chain at each
affected row on its own, through Database.lookup. It derives every walk
from the occurrence's side and position, not from the plan the engine
reads (Occurrence.head, reverse and other). apply_mutation merges every
check's violations through dedupe, sorting them with a key.
tests/test_differential.py replays it beside the engine, the oracle and
SQLite, and asserts the engine gives the same verdicts, violation for
violation, and counts the same rows_inspected.
"""

from __future__ import annotations

from funcdiag.dsl import Action, Mutation
from funcdiag.engine import (
    ChangedLink,
    MutationResolveError,
    Outcome,
    Verdict,
    Violation,
    _constraint_violation,
    _holds_when_equal,
    _store_violation,
    dispatch,
    eval_chain,
    raw_apply,
    resolve_mutation,
    sort_violations,
)
from funcdiag.model import ChainSpec, Occurrence, Side
from funcdiag.oracle import judge_row
from funcdiag.store import Database, RowId, StoreError, Value

import store_layout


def lookup_ids(db: Database, set_name: str, fn_name: str, xs: list[int]) -> list[Value]:
    """fn_name's value at each row of set_name whose id is in `xs`, in
    order: Database.lookup for a whole level of rows, read from the
    column as the engine's bound walks read it.

    Counts +1 per row read. A missing row or function raises the error
    lookup raises, after counting the rows lookup would have read
    before it.
    """
    values = store_layout.cells(db, set_name, fn_name, xs)
    if values is None:
        return [db.lookup(RowId(set_name, x), fn_name) for x in xs]
    db.counter.rows_inspected += len(values)
    return values


def affected_rows(db: Database, chain: ChainSpec, position: int, r: RowId) -> frozenset[RowId]:
    frontier: frozenset[RowId] = frozenset((r,))
    for fn in chain.functions[position:]:
        frontier = frozenset().union(
            *[db.inverse(fn.domain, fn.name, target) for target in frontier]
        )
        if not frontier:
            break
    return frontier


def eval_head(db: Database, chain: ChainSpec, position: int, start: Value) -> Value:
    """`start`, written at `position`, taken through the outer functions."""
    for fn in reversed(chain.functions[: position - 1]):
        if start is None:
            return None
        start = db.lookup(start, fn.name)
    return start


def check_link_update(
    db: Database, occurrence: Occurrence, r: RowId, new_value: Value
) -> list[Violation]:
    constraint = occurrence.constraint
    chain = constraint.chain(occurrence.side)
    head = eval_head(db, chain, occurrence.position, new_value)
    if head is None:
        return []
    other = constraint.chain(occurrence.side.other)
    changed = ChangedLink(occurrence.set_name, occurrence.function_name, r)
    head_is_left = occurrence.side is Side.LEFT
    holds_when_equal = _holds_when_equal(constraint)
    violations: list[Violation] = []
    for x in affected_rows(db, chain, occurrence.position, r):
        other_value = eval_chain(db, other, x)
        if other_value is None or (head == other_value) is holds_when_equal:
            continue
        left, right = (head, other_value) if head_is_left else (other_value, head)
        violations.append(_constraint_violation(constraint, x, left, right, changed))
    return violations


def dedupe(violations: list[Violation]) -> list[Violation]:
    seen: set[tuple[str | None, RowId | None]] = set()
    unique: list[Violation] = []
    for violation in sort_violations(violations):
        key = (violation.constraint, violation.witness)
        if key in seen:
            continue
        seen.add(key)
        unique.append(violation)
    return unique


def apply_mutation(db: Database, m: Mutation, handles: dict | None = None) -> Verdict:
    """engine.apply_mutation, with the checks above."""
    handles = handles if handles is not None else {}
    try:
        values, row = resolve_mutation(m, handles)
        before = db.read_row(row) if m.action is Action.UPDATE else None
        row = raw_apply(db, m, values, row)
    except (MutationResolveError, StoreError) as exc:
        return Verdict(Outcome.REJECTED, (_store_violation(str(exc)),))

    violations: list[Violation] = []
    if m.action is Action.INSERT:
        for constraint in db.schema.constraints_on(row.set_name):
            violations.extend(judge_row(db, constraint, row))
    elif m.action is Action.UPDATE:
        changed = {
            name: value
            for name, value in values.items()
            if before[name] != value
        }
        for constraint in db.schema.constraints_on(row.set_name):
            if (
                constraint.left.innermost.name in changed
                or constraint.right.innermost.name in changed
            ):
                violations.extend(judge_row(db, constraint, row))
        table = dispatch(db.schema)
        for fn_name in sorted(changed):
            for occ in table.get((row.set_name, fn_name), ()):
                if occ.position < occ.constraint.chain(occ.side).length:
                    violations.extend(check_link_update(db, occ, row, changed[fn_name]))

    if violations:
        db.undo_write(row, before)
        return Verdict(Outcome.REJECTED, tuple(dedupe(violations)))
    if m.action is Action.INSERT and m.handle:
        handles[m.handle] = row
    return Verdict(Outcome.APPLIED, (), row=row)
