"""Brute-force ground truth for the incremental engine.

full_check re-evaluates every constraint at every domain row, with the
same comparison and null semantics the engine uses. oracle_apply judges a
mutation with the engine's definition of "violated": it applies the
mutation raw to a clone, finds every cell whose value changed by comparing
the written row (the one row a store write changes) in the two states,
and checks every domain row whose post-state chain, on either side, reads
a changed cell. A row that violates but reads no changed cell is not
blamed on the mutation; a row that reads one is, even if it violated
before. Deliberately O(rows x chain length) per check; tests lean on it,
production paths do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableMapping

from .dsl import Action, Mutation
from .engine import (
    MutationResolveError,
    Outcome,
    Verdict,
    Violation,
    _store_violation,
    check_domain_row,
    raw_apply,
    resolve_mutation,
    sort_violations,
)
from .model import ChainSpec
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
            violations.extend(check_domain_row(db, constraint, x))
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
        if _reads_any(scratch, constraint.left, x, changed)
        or _reads_any(scratch, constraint.right, x, changed)
        for v in check_domain_row(scratch, constraint, x)
    ]
    if violations:
        return Verdict(Outcome.REJECTED, tuple(sort_violations(violations)))

    applied_row = raw_apply(db, m, values, row)
    if m.action is Action.INSERT and m.handle and applied_row is not None:
        handles[m.handle] = applied_row
    return Verdict(Outcome.APPLIED, (), row=applied_row)


def _changed_cells(before: Database, after: Database, row: RowId) -> set[tuple[RowId, str]]:
    """The (row, function) cells of `row` whose value differs between two
    stores; a row in only one of them differs in every cell."""
    old = before.read_row(row) if before.row_exists(row) else None
    new = after.read_row(row) if after.row_exists(row) else None
    return {
        (row, name) for name in old or new
        if old is None or new is None or old[name] != new[name]
    }


def _reads_any(db: Database, chain: ChainSpec, x: RowId, cells: set) -> bool:
    """Whether evaluating `chain` at x reads one of `cells`."""
    current: Value = x
    for name in chain.inward:
        if current is None:
            return False
        if (current, name) in cells:
            return True
        current = db.lookup(current, name)
    return False
