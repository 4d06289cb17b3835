"""Incremental enforcement of diagram constraints on mutations.

Every mutation is written to the store first, through the store's own
validation, and then checked on the written state; on any violation the
store takes the write back (Database.undo_write), so a rejected mutation
leaves the database bit-identical to its pre-mutation state. This is the
shape of the paper's generated handlers, which check the row as the user
edited it and cancel and undo on a violation.

Checks come in two flavors. A domain-row check fires when a row of a
constraint's domain set is inserted, or updated in either chain's own
column: it evaluates both chains for that row. A link-update check fires
when an interior chain function changes at some row r, and works on sets,
as the paper's handlers do with one query: it computes the new composed
head once (the prefix walk from the written value), collects the ids of
every domain row whose chain passes through r (the reverse-reachability
walk over the store's indexes, one bulk read per level for the whole
frontier), evaluates the other chain over all of those rows one level at
a time, and compares each value with the head. The walks and the other
chain are the written position's plan (model.Occurrence), built once per
schema, and bound once per store to the reverse indexes and columns they
read (Database.walks), so no level resolves a name. A null anywhere in a
chain makes the instance vacuously satisfied, so a row leaves the walk at
the level where it reads null.

A link check reports its witnesses sorted and each once, so a rejection
that one check alone reports needs no merging; violations from two or
more checks are merged, sorted and deduplicated. A violation is data: it
keeps the constraint it breaks, and its message is formatted by that
constraint (DiagramConstraint.format_message) only when it is read, so a
rejection with many witness rows costs one small tuple per witness until
someone prints it. How a violation is laid out in a report, as a text
line or as JSON, is the command-line front end's business (cli.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, repeat
from operator import eq, itemgetter, ne
from typing import Collection, Iterable, Mapping, MutableMapping, NamedTuple

from .dsl import Action, BindingValue, HandleRef, Mutation
from .model import (
    ChainSpec,
    ConstraintKind,
    DiagramConstraint,
    Occurrence,
    Schema,
    Side,
)
from .store import Database, RowId, StoreError, Value


class Outcome(Enum):
    APPLIED = "applied"
    REJECTED = "rejected"


class ViolationKind(Enum):
    COMMUTATIVE = "commutative"
    ANTI_COMMUTATIVE = "anti-commutative"
    STORE_ERROR = "store-error"


# Looked up once per constraint kind: calling an Enum by value costs about
# a microsecond, once per link check or domain-check violation.
_VIOLATION_KINDS = {kind: ViolationKind(kind.value) for kind in ConstraintKind}
# Read once: reading an Enum member from its class is slow.
_COMMUTATIVE, _LEFT = ConstraintKind.COMMUTATIVE, Side.LEFT
_INSERT, _UPDATE = Action.INSERT, Action.UPDATE
_APPLIED, _REJECTED = Outcome.APPLIED, Outcome.REJECTED
_X = itemgetter(1)  # a RowId's x, read in C


# The records are slotted, not frozen, as dsl's script records are: a frozen
# dataclass sets each field through object.__setattr__, about a microsecond
# per record. Nothing changes a record once built, so they hash by value.
@dataclass(slots=True, unsafe_hash=True)
class ChangedLink:
    """The (set, function, row) whose update triggered a violation."""

    set_name: str
    function: str
    row: RowId


class Violation(NamedTuple):
    """One broken constraint at one witness row, or one store error.

    `source` is the violated constraint, or the store error's text; the
    message is formatted from it each time it is read. Being a tuple, a
    violation compares and hashes all seven fields, `source` included.
    """

    constraint: str | None
    kind: ViolationKind
    witness: RowId | None
    left: Value
    right: Value
    changed: ChangedLink | None
    source: DiagramConstraint | str

    @property
    def message(self) -> str:
        if isinstance(self.source, str):
            return self.source
        return self.source.format_message(self.left, self.right, self.witness)


@dataclass(slots=True, unsafe_hash=True)
class Verdict:
    outcome: Outcome
    violations: tuple[Violation, ...]
    row: RowId | None = field(default=None, compare=False)

    @property
    def applied(self) -> bool:
        return self.outcome is _APPLIED

    @property
    def rejected(self) -> bool:
        return self.outcome is _REJECTED


def dispatch(schema: Schema) -> dict[tuple[str, str], tuple[Occurrence, ...]]:
    """Static placement of checks: (set, function) -> chain occurrences.

    Every chain position of every admitted constraint appears exactly
    once; a function used by both sides gets one occurrence per side.
    The table is built once per schema and shared; do not mutate it.
    """
    return schema.occurrences


# ---------------------------------------------------------------------------
# Chain evaluation
# ---------------------------------------------------------------------------


def eval_chain(db: Database, chain: ChainSpec, x: RowId) -> Value:
    """Composed chain value at x, innermost function first; null propagates."""
    current: Value = x
    for name in chain.inward:
        if current is None:
            return None
        current = db.lookup(current, name)
    return current


def eval_prefix(db: Database, occurrence: Occurrence, start: Value) -> Value:
    """Take `start`, a value written at the occurrence's position, to the
    chain's codomain through occurrence.head; null propagates."""
    current = start
    for fn in occurrence.head:
        if current is None:
            return None
        current = db.lookup(current, fn.name)
    return current


def affected_rows(db: Database, occurrence: Occurrence, r: RowId) -> list[int]:
    """Ids, ascending, of the domain rows whose chain reaches r at the
    occurrence's position.

    Walks the store's bound reverse indexes of occurrence.reverse over
    row ids, one level at a time for the whole frontier, counting as
    Database.inverse_ids does; at the innermost position the walk is
    empty and the row is itself in the domain set.
    """
    frontier: Collection[int] = (r.x,)
    counter = db.counter
    for index in db.walks[id(occurrence)][0]:
        counter.rows_inspected += len(frontier)
        frontier = set().union(*map(index.get, frontier, repeat(())))
        if not frontier:
            break
    return sorted(frontier)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_domain_row(
    db: Database, constraint: DiagramConstraint, x: RowId
) -> list[Violation]:
    """Evaluate both chains at x in the store's current state.

    The engine calls this after writing the mutation, so it judges the
    post-mutation state; the oracle calls it on whole databases. No
    violation when either side is null.
    """
    left = eval_chain(db, constraint.left, x)
    if left is None:
        return []
    right = eval_chain(db, constraint.right, x)
    if right is None or (left == right) is _holds_when_equal(constraint):
        return []
    return [_constraint_violation(constraint, x, left, right, None)]


def check_link_update(
    db: Database, occurrence: Occurrence, r: RowId, new_value: Value
) -> list[Violation]:
    """Check every domain row affected by the link at r taking `new_value`.

    The new composed head is computed once from `new_value`. The check
    then works on sets: affected_rows gives the ids of every affected
    row, the other chain is evaluated over all of them one level at a
    time in the store's current state, and each is compared with the
    head. All violating rows are reported, sorted by witness and each
    once, each witness the RowId the store holds for it.
    """
    constraint = occurrence.constraint
    assert occurrence.reverse, "innermost positions are domain checks"
    head = eval_prefix(db, occurrence, new_value)
    if head is None:
        return []
    # The other chain over every affected row, one bound column per level,
    # +1 per row read, as Database.lookup counts; a row leaves at its first null.
    rows = ids = affected_rows(db, occurrence, r)
    counter = db.counter
    for column in db.walks[id(occurrence)][1]:
        values = list(map(column.__getitem__, ids))
        counter.rows_inspected += len(values)
        if None in values:
            rows = [x for x, value in zip(rows, values) if value is not None]
            values = [value for value in values if value is not None]
        ids = map(_X, values)
    # True where a row breaks the constraint; compared in C.
    mask = list(map(ne if _holds_when_equal(constraint) else eq, repeat(head), values))
    if True not in mask:
        return []
    changed = ChangedLink(occurrence.set_name, occurrence.function_name, r)
    witnesses = db.row_ids(constraint.domain_set, compress(rows, mask))
    heads, others = repeat(head), compress(values, mask)
    lefts, rights = (heads, others) if occurrence.side is _LEFT else (others, heads)
    cids, kinds = repeat(constraint.id), repeat(_VIOLATION_KINDS[constraint.kind])
    # zip reuses its result tuple, so tuple.__new__ (no NamedTuple's Python
    # __new__) leaves one new object per witness: the record.
    fields = zip(cids, kinds, witnesses, lefts, rights, repeat(changed), repeat(constraint))
    return list(map(tuple.__new__, repeat(Violation), fields))


def _holds_when_equal(constraint: DiagramConstraint) -> bool:
    """Whether two non-null chain values satisfy the constraint exactly
    when they are equal: commutative constraints need equal values,
    anti-commutative ones different values."""
    return constraint.kind is _COMMUTATIVE


# ---------------------------------------------------------------------------
# Mutation application
# ---------------------------------------------------------------------------


class MutationResolveError(Exception):
    """A symbolic reference in a mutation has no applied row behind it."""


@dataclass(slots=True, unsafe_hash=True)
class ResolvedMutation:
    action: Action
    set_name: str | None
    row: RowId | None
    values: dict[str, Value]


def resolve_mutation(m: Mutation, handles: Mapping[str, RowId]) -> ResolvedMutation:
    """Replace symbolic handles with concrete rows."""
    values: dict[str, Value] = {}
    for binding in m.bindings:
        value: BindingValue = binding.value
        if isinstance(value, HandleRef):
            value = _resolve_ref(value, handles)
        values[binding.function] = value
    row = _resolve_ref(m.row_ref, handles)
    action = m.action
    if action is _INSERT:
        return ResolvedMutation(action, m.set_name, row, values)
    if row is None:
        raise MutationResolveError(f"{action.value} statement names no row")
    return ResolvedMutation(action, None, row, values)


def _resolve_ref(ref: HandleRef | RowId | None, handles: Mapping[str, RowId]) -> RowId | None:
    if ref is None or isinstance(ref, RowId):
        return ref
    row = handles.get(ref.name)
    if row is None:
        raise MutationResolveError(f"handle @{ref.name} does not name an applied insert")
    return row


def raw_apply(db: Database, resolved: ResolvedMutation) -> RowId | None:
    """Apply a resolved mutation with store-level validation only."""
    if resolved.action is _INSERT:
        assert resolved.set_name is not None
        return db.insert_row(resolved.set_name, resolved.values)
    assert resolved.row is not None
    if resolved.action is _UPDATE:
        db.set_values(resolved.row, resolved.values)
        return resolved.row
    db.delete_row(resolved.row)
    return None


def apply_mutation(
    db: Database,
    m: Mutation,
    handles: MutableMapping[str, RowId] | None = None,
) -> Verdict:
    """Write one mutation, check the written state, and keep or undo it.

    The store validates the write itself: store-level failures (missing
    required values, dangling references, RESTRICT on delete, unresolved
    handles) reject with a store-error violation, and nothing is written.
    Otherwise the domain-row and link-update checks run on the written
    state over the rows the write can affect; any violation rejects with
    one violation per offending witness row, and the write is undone, so
    a rejected mutation leaves the store as it was. On an applied insert
    carrying a handle, `handles` gains the new row.
    """
    handles = handles if handles is not None else {}
    try:
        resolved = resolve_mutation(m, handles)
        action = resolved.action
        before = db.read_row(resolved.row) if action is _UPDATE else None
        row = raw_apply(db, resolved)
    except (MutationResolveError, StoreError) as exc:
        return Verdict(_REJECTED, (_store_violation(str(exc)),))

    # One list per check run, sorted by witness and without repeats, so a
    # verdict that one check alone reports needs no merge.
    reports: list[list[Violation]] = []
    if action is _INSERT:
        for constraint in db.schema.constraints_on(row.set_name):
            reports.append(check_domain_row(db, constraint, row))
    elif action is _UPDATE:
        changed = {
            name: value
            for name, value in resolved.values.items()
            if before[name] != value
        }
        for constraint in db.schema.constraints_on(row.set_name):
            if (
                constraint.left.innermost.name in changed
                or constraint.right.innermost.name in changed
            ):
                reports.append(check_domain_row(db, constraint, row))
        table = dispatch(db.schema)
        for fn_name in sorted(changed):
            for occ in table.get((row.set_name, fn_name), ()):
                if occ.reverse:
                    reports.append(check_link_update(db, occ, row, changed[fn_name]))

    reports = [report for report in reports if report]
    if reports:
        db.undo_write(row, before)
        if len(reports) == 1:
            return Verdict(_REJECTED, tuple(reports[0]))
        merged = [violation for report in reports for violation in report]
        return Verdict(_REJECTED, tuple(_dedupe(merged)))
    if action is _INSERT and m.handle:
        handles[m.handle] = row
    return Verdict(_APPLIED, (), row)


def sort_violations(violations: Iterable[Violation]) -> list[Violation]:
    return sorted(
        violations,
        key=lambda v: (v.constraint or "", v.witness or ("", 0)),
    )


def _dedupe(violations: list[Violation]) -> list[Violation]:
    seen: set[tuple[str | None, RowId | None]] = set()
    unique: list[Violation] = []
    for violation in sort_violations(violations):
        key = (violation.constraint, violation.witness)
        if key in seen:
            continue
        seen.add(key)
        unique.append(violation)
    return unique


def _constraint_violation(
    constraint: DiagramConstraint,
    witness: RowId,
    left: Value,
    right: Value,
    changed: ChangedLink | None,
) -> Violation:
    kind = _VIOLATION_KINDS[constraint.kind]
    return Violation(constraint.id, kind, witness, left, right, changed, constraint)


def _store_violation(message: str) -> Violation:
    return Violation(None, ViolationKind.STORE_ERROR, None, None, None, None, message)
