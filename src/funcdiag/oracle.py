"""Brute-force ground truth for the incremental engine, sharing no check
with it.

judge_row decides one constraint at one domain row. Null: each chain is
walked by name, innermost first, one Database.lookup per hop, and stops
at its first null; a null side holds vacuously. The right chain is read
only when the left is non-null, as the engine reads, so both count the
same rows_inspected. Comparison: commutative holds when the values are
equal, anti-commutative when they differ. Blame: full_check blames every
violating row; oracle_apply applies the mutation raw to a clone, takes
the cells of the written row (the one row a store write changes) whose
value differs between the two states, and blames a violating row when
a walk of either chain read one of them, even if it violated before.
Deliberately O(rows x chain length) per check; tests lean on it,
production paths do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, MutableMapping

from .dsl import Action, Mutation
from .engine import (
    MutationResolveError,
    Outcome,
    Verdict,
    Violation,
    ViolationKind,
    _store_violation,
    raw_apply,
    resolve_mutation,
    sort_violations,
)
from .model import ChainSpec, ConstraintKind, DiagramConstraint
from .store import Database, RowId, StoreError, Value


@dataclass(frozen=True)
class OracleReport:
    violations: tuple[Violation, ...]
    rows_scanned: int


def full_check(db: Database) -> OracleReport:
    """Evaluate every constraint at every row of its domain set."""
    violations: list[Violation] = []
    scanned = 0
    for constraint in db.schema.constraints:
        for x in db.rows(constraint.domain_set):
            scanned += 1
            violations.extend(judge_row(db, constraint, x))
    return OracleReport(tuple(sort_violations(violations)), scanned)


def oracle_apply(
    db: Database,
    m: Mutation,
    handles: MutableMapping[str, RowId] | None = None,
) -> Verdict:
    """Decide a mutation by scratch application plus a re-check of every
    domain row whose chains read a cell the mutation changed.

    On REJECTED, `db` is untouched.
    """
    handles = handles if handles is not None else {}
    try:
        values, row = resolve_mutation(m, handles)
    except MutationResolveError as exc:
        return Verdict(Outcome.REJECTED, (_store_violation(str(exc)),))

    scratch = db.clone()
    try:
        written = raw_apply(scratch, m, values, row) or row
    except StoreError as exc:
        return Verdict(Outcome.REJECTED, (_store_violation(str(exc)),))

    changed = _changed_cells(db, scratch, written)
    violations = [
        v
        for constraint in scratch.schema.constraints
        for x in scratch.rows(constraint.domain_set)
        for v in judge_row(scratch, constraint, x, changed)
    ]
    if violations:
        return Verdict(Outcome.REJECTED, tuple(sort_violations(violations)))

    applied_row = raw_apply(db, m, values, row)
    if m.action is Action.INSERT and m.handle and applied_row is not None:
        handles[m.handle] = applied_row
    return Verdict(Outcome.APPLIED, (), row=applied_row)


def judge_row(
    db: Database, constraint: DiagramConstraint, x: RowId, changed: Container | None = None
) -> list[Violation]:
    """The violation of `constraint` at x, a live row of its domain set, as
    a list of none or one; given `changed` cells, only if a walk read one."""
    left, read = _walk(db, constraint.left, x, changed or ())
    if left is None:
        return []
    right, read_right = _walk(db, constraint.right, x, changed or ())
    holds = right is None or (left == right) is (constraint.kind is ConstraintKind.COMMUTATIVE)
    if holds or not (changed is None or read or read_right):
        return []
    kind = ViolationKind(constraint.kind.value)
    return [Violation(constraint.id, kind, x, left, right, None, constraint)]


def _walk(db: Database, chain: ChainSpec, x: RowId, cells: Container) -> tuple[Value, bool]:
    """`chain`'s value at x, and whether its walk read one of `cells`."""
    current, read = x, False
    for name in chain.inward:
        if current is None:
            break
        read = read or (current, name) in cells
        current = db.lookup(current, name)
    return current, read


def _changed_cells(before: Database, after: Database, row: RowId) -> set[tuple[RowId, str]]:
    """The (row, function) cells of `row` whose value differs between two
    stores; a row in only one of them differs in every cell."""
    old = before.read_row(row) if before.row_exists(row) else None
    new = after.read_row(row) if after.row_exists(row) else None
    return {
        (row, name) for name in old or new
        if old is None or new is None or old[name] != new[name]
    }
