"""Incremental enforcement of diagram constraints on mutations.

A mutation passes one resolver, resolve_mutation, and then the store's
writer for its action, which raw_apply picks; apply_mutation writes an
update through that writer, Database.set_values, itself, because it
returns the old values of the columns it writes. The store validates the
write itself, and the checks run on the written state; on any violation
the store takes the write back from those values (Database.undo_write),
so a rejected mutation leaves the database bit-identical to its
pre-mutation state. This is the shape of the paper's generated
handlers, which check the row as the user edited it and cancel and undo
on a violation.

Checks come in two flavors. A domain-row check fires when a row of a
constraint's domain set is inserted, or updated in either chain's own
column: it evaluates both chains for that row, which must be a row of
the domain set. Its one guarded read, the left chain's first cell
through Database.lookup, refuses a row that is not live; every later
read is a column of the constraint's domain walks, bound once per store
(Database.walks), and follows a link cell the store keeps pointing at a
live row. A link-update check fires when an interior chain function
changes at some row r, and works on sets, as the paper's handlers do
with one query: it computes the new composed head once (the prefix walk
from the written value), collects the ids of every domain row whose
chain passes through r (the reverse-reachability walk over the store's
indexes, one bulk read per level for the whole frontier), evaluates the
other chain over all of those rows one level at a time, and compares
each value with the head. A function maps each row to one value, so the
preimages of distinct rows are disjoint: each level of the walk is a
plain list, no row on it twice, and only the last one is sorted. One
count of the values equal to the head (list.count, in C) decides a
commutative check before anything is built: all equal accepts, none
equal makes every affected row a witness as it stands, and only a mix
builds the mask that picks the witnesses. An anti-commutative check
accepts when the head is not among the values (`in`), and counts only
once it has a violation, to the same end. The walks and the other chain
are the written position's plan (model.Occurrence), built once per
schema, and bound once per store to the reverse indexes and columns they
read (Database.walks), so no level resolves a name. A null anywhere in a
chain makes the instance vacuously satisfied, so a row leaves the walk
at the interior level where it reads null. Only a nullable function can
read null there: the store validates every write and RESTRICT keeps
every link pointing at a live row, so a level of a non-nullable function
is not searched for nulls. At the last level no row need leave: a null
never equals the non-null head, so `in` decides an anti-commutative
check as the values stand, and only a commutative check, whose count
and mask would take a null for a witness, leaves the null rows out.

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
from itertools import chain, compress, repeat
from operator import eq, itemgetter, ne
from typing import Iterable, Mapping, MutableMapping, NamedTuple, NoReturn

from .dsl import Action, BindingValue, HandleRef, Mutation
from .model import (
    ChainSpec,
    ConstraintKind,
    DiagramConstraint,
    Occurrence,
    Schema,
    Side,
)
from .store import Database, RowId, StoreError, UnknownRow, Value


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
    """Composed chain value at x, innermost function first; null propagates.

    Every hop resolves a name through Database.lookup. No check calls
    this: domain and link checks read the store's bound walks."""
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
    Database.inverse would for each of its rows; the innermost position
    has no walk, and the row is itself in the domain set.
    Each level concatenates its rows' preimages, which are disjoint
    because a function maps each row to one value, so no level holds a
    row twice and none needs a set.
    """
    frontier = [r.x]
    if not occurrence.reverse:
        return frontier
    counter = db.counter
    for index in db.walks[id(occurrence)][0]:
        counter.rows_inspected += len(frontier)
        frontier = list(chain.from_iterable(map(index.__getitem__, frontier)))
        if not frontier:
            return frontier
    frontier.sort()
    return frontier


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_domain_row(
    db: Database, constraint: DiagramConstraint, x: RowId
) -> list[Violation]:
    """Evaluate both chains at x, a row of the domain set, in the store's
    current state.

    The engine calls this after writing the mutation, so it judges the
    post-mutation state. No violation when either side is null. The one
    guarded read, lookup of the left chain's first cell, refuses a row
    that is not live; every later read is a bound column
    (Database.domain_walks), counted +1 as lookup counts, and a chain
    stops at its first null. A constraint the store did not bind, one
    built with replace() say, is bound for this call alone.
    """
    left = db.lookup(x, constraint.left.inward[0])
    if x.set_name != constraint.domain_set:
        raise UnknownRow(
            f"{x!r} is not a row of {constraint.domain_set!r}, the domain set of {constraint.id!r}"
        )
    lefts, rights = db.walks.get(id(constraint)) or db.domain_walks(constraint)
    right = x
    reads = 0
    for column in lefts:
        if left is None:
            break
        left = column[left.x]
        reads += 1
    if left is not None:
        for column in rights:
            right = column[right.x]
            reads += 1
            if right is None:
                break
    db.counter.rows_inspected += reads
    if left is None or right is None or (left == right) is _holds_when_equal(constraint):
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
    once, each witness the RowId the store holds for it. The count of
    values equal to the head (for an anti-commutative check, taken only
    once `in` has found a violation) decides: when every affected row
    breaks the constraint, the rows and their values are the witnesses as
    they stand, and only when some rows hold does a mask pick the rest.

    A row that reads null at an interior level leaves the walk, as its
    instance is vacuously satisfied, but only a nullable level is searched
    for nulls: a non-nullable column of a live row never holds one. At
    the last level a null stays among the values unless the constraint is
    commutative: it never equals the head, so it neither fails an
    anti-commutative check nor matches its mask, where a commutative
    count and mask would take it for a witness.
    """
    constraint = occurrence.constraint
    assert occurrence.reverse, "innermost positions are domain checks"
    head = eval_prefix(db, occurrence, new_value)
    if head is None:
        return []
    # The other chain over every affected row, one bound column per level,
    # +1 per row read, as Database.lookup counts.
    rows = ids = affected_rows(db, occurrence, r)
    counter = db.counter
    _, interior, (column, nullable) = db.walks[id(occurrence)]
    for level, level_nullable in interior:
        values = list(map(level.__getitem__, ids))
        counter.rows_inspected += len(values)
        if level_nullable and None in values:
            rows, values = _drop_nulls(rows, values)
        ids = map(_X, values)
    values = list(map(column.__getitem__, ids))
    counter.rows_inspected += len(values)
    # Decided in C: every row holds (accept), every row breaks the
    # constraint (mask stays falsy), or a mask, True where a row breaks it,
    # picks the witnesses.
    if _holds_when_equal(constraint):
        if nullable and None in values:
            rows, values = _drop_nulls(rows, values)
        equal = values.count(head)
        if equal == len(values):
            return []
        mask = equal and list(map(ne, repeat(head), values))
    elif head not in values:
        return []
    else:
        mask = values.count(head) != len(values) and list(map(eq, repeat(head), values))
    if mask:
        rows, values = compress(rows, mask), compress(values, mask)
    changed = ChangedLink(occurrence.set_name, occurrence.function_name, r)
    witnesses = db.row_ids(constraint.domain_set, rows)
    heads = repeat(head)
    lefts, rights = (heads, values) if occurrence.side is _LEFT else (values, heads)
    cids, kinds = repeat(constraint.id), repeat(_VIOLATION_KINDS[constraint.kind])
    # zip reuses its result tuple, so tuple.__new__ (no NamedTuple's Python
    # __new__) leaves one new object per witness: the record.
    fields = zip(cids, kinds, witnesses, lefts, rights, repeat(changed), repeat(constraint))
    return list(map(tuple.__new__, repeat(Violation), fields))


def _drop_nulls(rows: list[int], values: list[Value]) -> tuple[list[int], list[Value]]:
    """The rows, and their values, whose value is not null."""
    return (
        [x for x, value in zip(rows, values) if value is not None],
        [value for value in values if value is not None],
    )


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


def resolve_mutation(
    m: Mutation, handles: Mapping[str, RowId]
) -> tuple[dict[str, Value], RowId | None]:
    """The mutation's values by function and the row it names (None for an
    insert), each handle looked up in `handles` where it stands: plain
    store values, ready for raw_apply."""
    values: dict[str, Value] = {}
    for binding in m.bindings:
        value: BindingValue = binding.value
        if type(value) is HandleRef:
            value = handles.get(value.name) or _unbound(value)
        values[binding.function] = value
    row = m.row_ref
    if type(row) is HandleRef:
        row = handles.get(row.name) or _unbound(row)
    elif row is None and m.action is not _INSERT:
        raise MutationResolveError(f"{m.action.value} statement names no row")
    return values, row


def _unbound(ref: HandleRef) -> NoReturn:
    raise MutationResolveError(f"handle @{ref.name} does not name an applied insert")


def raw_apply(
    db: Database, m: Mutation, values: Mapping[str, Value], row: RowId | None
) -> RowId | None:
    """Write `m`, resolved into `values` and `row`, with store-level
    validation only; returns the inserted or updated row, None on a delete."""
    action = m.action
    if action is _INSERT:
        return db.insert_row(m.set_name, values)
    if action is _UPDATE:
        db.set_values(row, values)
        return row
    db.delete_row(row)
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
        values, row = resolve_mutation(m, handles)
        action = m.action
        if action is _UPDATE:
            before = db.set_values(row, values)
        else:
            before, row = None, raw_apply(db, m, values, row)
    except (MutationResolveError, StoreError) as exc:
        return Verdict(_REJECTED, (_store_violation(str(exc)),))

    # One list per check that found something, sorted by witness and
    # without repeats, so a verdict that one check alone reports needs no
    # merge.
    reports: list[list[Violation]] = []
    if action is _INSERT:
        for constraint in db.schema.constraints_on(row.set_name):
            if report := check_domain_row(db, constraint, row):
                reports.append(report)
    elif action is _UPDATE:
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
                if report := check_domain_row(db, constraint, row):
                    reports.append(report)
        table = dispatch(db.schema)
        # In name order: of two violations of one constraint at one
        # witness, _dedupe keeps the first, whatever order the mutation
        # binds its columns in.
        for fn_name in sorted(changed):
            for occ in table.get((row.set_name, fn_name), ()):
                if occ.reverse and (report := check_link_update(db, occ, row, changed[fn_name])):
                    reports.append(report)

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
