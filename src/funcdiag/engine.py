"""Incremental enforcement of diagram constraints on mutations.

Each insert and update runs the handler of its statement shape, as the
paper generates one event handler per form and per control. A shape is
the action, the set (an update's is its row's) and the bound function
names in binding order; apply_mutation finds the shape's handler with
one dict lookup (Database.handlers), after looking up an update's row
handle to learn its set. The handler resolves the bindings' handles
inline, in order, with resolve_mutation's errors (resolve_mutation
itself first takes an insert that names a row, which no script writes,
for its errors alone); calls the store's writer for the set and the
names (Database.writer), which validates the values in binding order and
writes them; and then runs exactly the kernels the shape can fire, each
called directly: the domain kernels of the set's constraints in
constraint order (an update's only when it changed a column one of their
chains starts with), then, on an update, the link kernels of each changed
column, in name order. A function bound twice takes its first position
and its last value, as a dict would. Deletes, and statements whose set is
unknown or whose update row resolves to no row, take one path:
resolve_mutation, then raw_apply, which refuses all but a delete.

The store validates the write itself, and the checks run on the written
state; on any violation the store takes the write back from its
before-image (Database.undo_write), so a rejected mutation leaves the
database bit-identical to its pre-mutation state. This is the shape of
the paper's generated handlers, which check the row as the user edited
it and cancel and undo on a violation. A verdict is whole when
apply_mutation returns: every check has run and every witness is built,
and no work is left for later.

Checks come in two flavors. A domain-row check fires when a row of a
constraint's domain set is inserted, or updated in either chain's own
column: it evaluates both chains for that row, which must be a row of
the domain set. A link-update check fires when an interior chain function
changes at some row r, and works on sets, as the paper's handlers do
with one query: it computes the new composed head once (the head walk
from the written value), collects the ids of every domain row whose
chain passes through r (the reverse-reachability walk over the store's
indexes, one bulk read per level for the whole frontier), evaluates the
other chain over all of those rows one level at a time, and compares
each value with the head. A function maps each row to one value, so the
preimages of distinct rows are disjoint: each level of the walk is a
plain list, no row on it twice, and only the last one is sorted, in
place.

Each check runs a kernel: straight-line Python generated for the shape
of its chains, as the paper generates each constraint's handlers. A
domain kernel is one guarded read, the left chain's first cell through
Database.lookup, which refuses a row that is not live, then one column
read per remaining hop of either chain, each followed by its null test,
and the comparison. A link kernel is the head's hops; the reverse levels
(one level is `sorted(R0[r.x])`); the other chain's interior levels,
with a null search emitted only after a level whose function is
nullable; its last level; and the kind's decision. One count of the
values equal to the head (list.count, in C) decides a commutative check
before anything is built: all equal accepts, none equal makes every
affected row a witness as it stands, and only a mix builds the mask that
picks the witnesses. An anti-commutative check accepts when the head is
not among the values (`in`), and counts only once it has a violation, to
the same end. Rows read are counted as Database.lookup and inverse
would, +1 per row read and +1 per target consulted, as one sum at each
exit of the kernel.

A kernel's source holds only names the generator makes (H0, R1, I0, L,
head, rows, ...) and this module's helpers; it is generated from the
chain's shape alone (how many hops, how deep, which levels nullable, the
kind), so no schema name, value or template is ever spliced into it. A
handler's source is generated from its statement's shape alone in the
same way (how many values, which is each function's last, which kernels
test which changed columns), and so is a writer's (store.py). Each
source is compiled once per shape, so at most once per schema
(_domain_binder, _link_binder, _handler_binder). Binding is separate: a
kernel is bound once per store, on first use, to that store's columns,
reverse indexes and counter, read from the walks Database._bind binds by
name once per store (Database.walks), and kept in Database.kernels; a
handler is bound once per store to its writer, its kernels and the names
whose change it tests, and kept in Database.handlers. clone() leaves
both empty for the copy to bind its own. No level resolves a name, and
no statement binds or compiles anything but on its shape's first use.
check_domain_row and check_link_update run one kernel each, bound on
first use; the handlers do not call them.

A null anywhere in a chain makes the instance vacuously satisfied, so a
row leaves the link walk at the interior level where it reads null. Only
a nullable function can read null there: the store validates every write
and RESTRICT keeps every link pointing at a live row, so a level of a
non-nullable function is not searched for nulls. At the last level no
row need leave: a null never equals the non-null head, so `in` decides
an anti-commutative check as the values stand, and only a commutative
check, whose count and mask would take a null for a witness, leaves the
null rows out.

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
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import attrgetter, eq, itemgetter, ne
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
from .store import Database, RowId, StoreError, UnknownRow, UnknownSet, Value, compile_binder


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
    this: the checks run kernels bound to the store's columns."""
    current: Value = x
    for name in chain.inward:
        if current is None:
            return None
        current = db.lookup(current, name)
    return current


def eval_prefix(db: Database, occurrence: Occurrence, start: Value) -> Value:
    """Take `start`, a value written at the occurrence's position, to the
    chain's codomain through the head's bound columns (Database.walks),
    counting +1 per row read as lookup does; null propagates. A link
    kernel unrolls the same walk; no check calls this."""
    if not occurrence.head:
        return start
    for column in db.walks[id(occurrence)][0]:
        if start is None:
            break
        start = column[start.x]
        db.counter.rows_inspected += 1
    return start


def affected_rows(db: Database, occurrence: Occurrence, r: RowId) -> list[int]:
    """Ids, ascending, of the domain rows whose chain reaches r at the
    occurrence's position.

    Walks the store's bound reverse indexes of occurrence.reverse over
    row ids, one level at a time for the whole frontier, counting as
    Database.inverse would for each of its rows; at the innermost position
    there is no index to walk, and the row is itself in the domain set.
    Each level concatenates its rows' preimages, which are disjoint
    because a function maps each row to one value, so no level holds a
    row twice and none needs a set. A link kernel unrolls the same walk;
    no check calls this.
    """
    frontier = [r.x]
    counter = db.counter
    for index in db.walks[id(occurrence)][1]:
        counter.rows_inspected += len(frontier)
        frontier = list(chain.from_iterable(map(index.__getitem__, frontier)))
        if not frontier:
            return frontier
    frontier.sort()
    return frontier


# ---------------------------------------------------------------------------
# Checks: one kernel per constraint and per chain position
# ---------------------------------------------------------------------------


def check_domain_row(
    db: Database, constraint: DiagramConstraint, x: RowId
) -> list[Violation]:
    """Evaluate both chains at x, a row of the domain set, in the store's
    current state.

    The engine calls this after writing the mutation, so it judges the
    post-mutation state. No violation when either side is null. It runs
    the constraint's domain kernel, bound to this store on first use. The
    kernel's one guarded read, lookup of the left chain's first cell,
    refuses a row that is not live; every later read is a column of the
    constraint's domain walks (Database.walks), counted +1 as lookup
    counts, and a chain stops at its first null. A constraint the store
    did not bind raises KeyError before anything is counted;
    oracle.judge_row judges one at a row without a binding.
    """
    return _domain_kernel(db, constraint)(db, x)


def check_link_update(
    db: Database, occurrence: Occurrence, r: RowId, new_value: Value
) -> list[Violation]:
    """Check every domain row affected by the link at r taking `new_value`.

    It runs the occurrence's link kernel, bound to this store on first
    use; an occurrence the store did not bind raises KeyError before
    anything is counted, whatever the value. The kernel computes the new
    composed head once from `new_value`, collects the ids of every
    affected row, evaluates the other chain over all of them one level at
    a time in the store's current state, and compares each value with the
    head (see the module docstring). All violating rows are reported,
    sorted by witness and each once, each witness the RowId the store
    holds for it.
    """
    return _link_kernel(db, occurrence)(db, r, new_value)


def _domain_kernel(db: Database, constraint: DiagramConstraint):
    """The constraint's domain kernel, bound to `db` on first use."""
    kernel = db.kernels.get(id(constraint))
    if kernel is None:
        lefts, rights = db.walks[id(constraint)]
        binder = _domain_binder(len(lefts), len(rights), _holds_when_equal(constraint))
        first = constraint.left.inward[0]
        kernel = db.kernels[id(constraint)] = binder(
            db.counter, constraint, first, constraint.domain_set, *lefts, *rights
        )
    return kernel


def _link_kernel(db: Database, occurrence: Occurrence):
    """The occurrence's link kernel, bound to `db` on first use."""
    kernel = db.kernels.get(id(occurrence))
    if kernel is None:
        heads, reverse, interior, (last, last_nullable) = db.walks[id(occurrence)]
        assert reverse, "innermost positions are domain checks"
        binder = _link_binder(
            len(heads),
            len(reverse),
            tuple(nullable for _, nullable in interior),
            last_nullable,
            _holds_when_equal(occurrence.constraint),
        )
        kernel = db.kernels[id(occurrence)] = binder(
            db.counter, occurrence, *heads, *reverse, *(column for column, _ in interior), last
        )
    return kernel


# The binders are compiled once per chain shape, so at most once per schema:
# binding a kernel to a store, or to a clone, calls one and compiles nothing.


@lru_cache(maxsize=1024)
def _domain_binder(lefts: int, rights: int, commutative: bool):
    """The binder of a domain kernel: `lefts` columns after the left
    chain's first cell, `rights` columns of the right chain.

    bind(C, O, F, S, A0.., B0..) takes the counter, the constraint, the
    name of the left chain's first function, the domain set and the
    columns, innermost first; check(D, x) judges row x of store D.
    """
    body = ["a = D.lookup(x, F)", "if x[0] != S:", "    _not_in_domain(O, x)"]
    body += _accept_if("a is None")
    for i in range(lefts):
        body += [f"a = A{i}[a[1]]", *_accept_if("a is None", i + 1)]
    for j in range(rights):
        body.append(f"b = B{j}[{'b' if j else 'x'}[1]]")
        if j + 1 < rights:
            body += _accept_if("b is None", lefts + j + 1)
    body.append(f"C.rows_inspected += {lefts + rights}")
    body += _accept_if(f"b is None or a {'==' if commutative else '!='} b")
    body.append("return [_constraint_violation(O, x, a, b, None)]")
    columns = [*(f"A{i}" for i in range(lefts)), *(f"B{j}" for j in range(rights))]
    return compile_binder(["C", "O", "F", "S", *columns], "D, x", body, "check", globals())


@lru_cache(maxsize=1024)
def _link_binder(
    heads: int, depth: int, nullable: tuple[bool, ...], last_nullable: bool, commutative: bool
):
    """The binder of a link kernel: `heads` head columns, `depth` reverse
    indexes, an interior level of the other chain per flag of `nullable`
    (whether its function is), and its last level.

    bind(C, O, H0.., R0.., I0.., L) takes the counter, the occurrence and
    the walk's columns and indexes in the order Database.walks holds them;
    check(D, r, head) checks row r of store D taking the value `head`.
    Rows read are counted once per exit, as one sum.
    """
    body = _accept_if("head is None")
    for i in range(heads):
        body += [f"head = H{i}[head[1]]", *_accept_if("head is None", i + 1)]
    if depth == 1:
        body.append("rows = sorted(R0[r[1]])")
    else:
        body.append("F0 = R0[r[1]]")
        for i in range(1, depth):
            frontier = "rows" if i + 1 == depth else f"F{i}"
            body.append(f"{frontier} = list(chain.from_iterable(map(R{i}.__getitem__, F{i - 1})))")
    # The head's reads and the reverse walk's: one row, then each frontier.
    constant, terms = heads + 1, [f"len(F{i})" for i in range(depth - 1)]

    def count(levels: int) -> str:
        """Rows read so far, `levels` of the other chain's read since the
        last nullable one, each over every row of `rows`."""
        read = [f"{levels} * len(rows)" if levels > 1 else "len(rows)"] if levels else []
        return " + ".join([str(constant)] * bool(constant) + terms + read)

    body += _accept_if("not rows", count(0))
    if depth > 1:
        body.append("rows.sort()")
    ids, levels = "rows", 0
    for i, can_be_null in enumerate(nullable):
        body.append(f"values = list(map(I{i}.__getitem__, {ids}))")
        levels += 1
        if can_be_null:
            body += [f"n = {count(levels)}", "if None in values:"]
            body.append("    rows, values = _drop_nulls(rows, values)")
            constant, terms, levels = 0, ["n"], 0
        ids = "map(_X, values)"
    body.append(f"values = list(map(L.__getitem__, {ids}))")
    body.append(f"C.rows_inspected += {count(levels + 1)}")
    if commutative:
        if last_nullable:
            body += ["if None in values:", "    rows, values = _drop_nulls(rows, values)"]
        body += ["equal = values.count(head)", *_accept_if("equal == len(values)"), "if equal:"]
        body.append("    mask = list(map(ne, repeat(head), values))")
    else:
        body += [*_accept_if("head not in values"), "if values.count(head) != len(values):"]
        body.append("    mask = list(map(eq, repeat(head), values))")
    body += [
        "    rows, values = compress(rows, mask), compress(values, mask)",
        "return _link_violations(D, O, r, head, rows, values)",
    ]
    columns = [
        *(f"H{i}" for i in range(heads)),
        *(f"R{i}" for i in range(depth)),
        *(f"I{i}" for i in range(len(nullable))),
        "L",
    ]
    return compile_binder(["C", "O", *columns], "D, r, head", body, "check", globals())


def _accept_if(test: str, counted: int | str = 0) -> list[str]:
    """Kernel lines that accept when `test` holds, once they have counted
    `counted`, the rows read so far."""
    count = [f"    C.rows_inspected += {counted}"] if counted else []
    return [f"if {test}:", *count, "    return []"]


def _link_violations(
    db: Database, occurrence: Occurrence, r: RowId, head: Value, rows: Iterable[int], values
) -> list[Violation]:
    """One violation per witness: each of `rows`, ids of the domain set in
    ascending order, whose other chain reads the matching item of
    `values` where the link at r now gives `head`."""
    constraint = occurrence.constraint
    changed = ChangedLink(occurrence.set_name, occurrence.function_name, r)
    witnesses = db.row_ids(constraint.domain_set, rows)
    heads = repeat(head)
    lefts, rights = (heads, values) if occurrence.side is _LEFT else (values, heads)
    cids, kinds = repeat(constraint.id), repeat(_VIOLATION_KINDS[constraint.kind])
    # zip reuses its result tuple, so tuple.__new__ (no NamedTuple's Python
    # __new__) leaves one new object per witness: the record.
    fields = zip(cids, kinds, witnesses, lefts, rights, repeat(changed), repeat(constraint))
    return list(map(tuple.__new__, repeat(Violation), fields))


def _not_in_domain(constraint: DiagramConstraint, x: RowId) -> NoReturn:
    raise UnknownRow(
        f"{x!r} is not a row of {constraint.domain_set!r}, the domain set of {constraint.id!r}"
    )


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

    An insert or update runs its shape's handler (see the module
    docstring), found by one lookup of (action, set, bound names); an
    update's set is its row's, so the row's handle is looked up first,
    and a row it does not resolve to is left for the one path to refuse.
    """
    if handles is None:
        handles = {}
    action, row = m.action, m.row_ref
    if action is _INSERT:
        if row is not None:  # an insert's row is resolved for its errors alone
            try:
                resolve_mutation(m, handles)
            except MutationResolveError as exc:
                return _refused(exc)
        set_name = m.set_name
    elif action is _UPDATE:
        if type(row) is HandleRef:
            row = handles.get(row.name)
        if not isinstance(row, RowId):  # an unbound handle, or no row named
            return _one_path(db, m, handles)
        set_name = row[0]
    else:
        return _one_path(db, m, handles)
    key = (action, set_name, *map(_FUNCTION, m.bindings))
    handler = db.handlers.get(key) or _bind_handler(db, key)
    return handler(db, m, handles, row)


def _one_path(db: Database, m: Mutation, handles: Mapping[str, RowId]) -> Verdict:
    """A delete, or an insert or update that no handler takes because it
    names an unknown set or a row that does not resolve: resolve it and
    write it through raw_apply, which refuses all but a delete."""
    try:
        values, row = resolve_mutation(m, handles)
        row = raw_apply(db, m, values, row)
    except _REFUSALS as exc:
        return _refused(exc)
    assert m.action is Action.DELETE, "every insert and update with a set has a handler"
    return Verdict(_APPLIED, (), row)


def _unknown_set(db: Database, m: Mutation, handles: Mapping[str, RowId], row) -> Verdict:
    """The handler of every shape on an unknown set: the one path refuses it."""
    return _one_path(db, m, handles)


def _bind_handler(db: Database, key: tuple):
    """The handler of the statement shape `key`, (action, set, bound names
    in binding order), bound to `db` and kept in db.handlers; for an
    unknown set, _unknown_set."""
    action, set_name, *names = key
    bound = list(dict.fromkeys(names))  # a name bound twice: first position, last value
    lasts = tuple(len(names) - 1 - names[::-1].index(name) for name in bound)
    insert = action is _INSERT
    try:
        write = db.writer(set_name, tuple(bound), insert)
    except UnknownSet:
        handler = db.handlers[key] = _unknown_set
        return handler
    schema = db.schema
    domain, triggers = [], []
    for constraint in schema.constraints_on(set_name):
        innermost = {constraint.left.innermost.name, constraint.right.innermost.name}
        fired = () if insert else tuple(j for j, name in enumerate(bound) if name in innermost)
        if insert or fired:
            domain.append(_domain_kernel(db, constraint))
            triggers.append(fired)
    links, positions = [], []
    if not insert:
        # In name order: of two violations of one constraint at one
        # witness, _dedupe keeps the first, whatever order the statement
        # binds its columns in.
        for name in sorted(bound):
            for occ in schema.occurrences.get((set_name, name), ()):
                if occ.reverse:
                    links.append(_link_kernel(db, occ))
                    positions.append(bound.index(name))
    triggers, positions = tuple(triggers), tuple(positions)
    binder = _handler_binder(insert, len(names), lasts, triggers, positions)
    tested = (bound[j] for j in _tested(triggers, positions))
    handler = db.handlers[key] = binder(write, *domain, *links, *tested)
    return handler


@lru_cache(maxsize=1024)
def _handler_binder(
    insert: bool, n: int, lasts: tuple[int, ...], triggers: tuple, positions: tuple[int, ...]
):
    """The binder of the handler of an insert (`insert`) or update binding
    `n` values, whose j-th distinct function takes binding lasts[j]'s;
    that runs a domain kernel per item of `triggers`, on an update only
    when one of the distinct functions it lists changed, and a link
    kernel per item of `positions`, when that function changed.

    bind(W, K0.., L0.., N0..) takes the shape's writer, its domain and
    link kernels and the names of the functions whose change is tested;
    handle(D, m, handles, row) applies statement m to store D, `row`
    being an update's row, resolved.
    """
    values = [f"v{i}" for i in range(n)]
    body = [f"{', '.join(f'b{i}' for i in range(n))}{',' * (n == 1)} = m.bindings"] if n else []
    body.append("try:")
    for v, i in zip(values, range(n)):
        body += [
            f"    {v} = b{i}.value",
            f"    if type({v}) is HandleRef:",
            f"        {v} = handles.get({v}.name) or _unbound({v})",
        ]
    written = ", ".join(values[i] for i in lasts)
    body.append(f"    row = W({written})" if insert else f"    before = W(row, {written})")
    body += ["except _REFUSALS as e:", "    return _refused(e)"]
    tested = _tested(triggers, positions)
    names = {j: f"N{k}" for k, j in enumerate(tested)}
    if not insert:
        body += [f"c{j} = before[{names[j]}] != {values[lasts[j]]}" for j in tested]
    reports = []
    for k, fired in enumerate(triggers):
        reports.append(f"r{len(reports)}")
        guard = f"({' or '.join(f'c{j}' for j in fired)}) and " if not insert else ""
        body.append(f"{reports[-1]} = {guard}K{k}(D, row)")
    for k, j in enumerate(positions):
        reports.append(f"r{len(reports)}")
        body.append(f"{reports[-1]} = c{j} and L{k}(D, row, {values[lasts[j]]})")
    if reports:
        undone = "None" if insert else "before"
        body.append(f"if {' or '.join(reports)}:")
        body.append(f"    return _reject(D, row, {undone}, {', '.join(reports)})")
    if insert:
        body += ["h = m.handle", "if h:", "    handles[h] = row"]
    body.append("return Verdict(_APPLIED, (), row)")
    bound = [
        "W",
        *(f"K{k}" for k in range(len(triggers))),
        *(f"L{k}" for k in range(len(positions))),
        *names.values(),
    ]
    return compile_binder(bound, "D, m, handles, row", body, "handle", globals())


def _tested(triggers: tuple, positions: tuple[int, ...]) -> list[int]:
    """The distinct functions, by position, whose change a handler tests."""
    return sorted({j for fired in triggers for j in fired} | set(positions))


_REFUSALS = (MutationResolveError, StoreError)
_FUNCTION = attrgetter("function")  # a binding's function, read in C


def _refused(exc: Exception) -> Verdict:
    return Verdict(_REJECTED, (_store_violation(str(exc)),))


def _reject(db: Database, row: RowId, before: dict | None, *reports) -> Verdict:
    """Undo the write to `row` and reject with the reports' violations:
    one non-empty report as it stands, several merged."""
    db.undo_write(row, before)
    found = [report for report in reports if report]
    if len(found) == 1:
        return Verdict(_REJECTED, tuple(found[0]))
    return Verdict(_REJECTED, tuple(_dedupe([v for report in found for v in report])))


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
