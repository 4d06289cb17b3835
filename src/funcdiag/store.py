"""In-memory column store with dense surrogate keys and reverse link indexes.

Row ids start at 1 in each set, only grow, and are never reused (an
undone insert gives back only the last one), so every per-row structure
is a list indexed by the row id, like a column store's virtual-id column;
Database lists them. Link cells hold RowIds, which every reader of a link
wants, and are mirrored in a reverse index (target row -> set of source
rows). A read is one list index, but a deleted row keeps its slots, so
memory follows the ids issued, not the rows live. Writes enforce
referential integrity and nullability; deletes are RESTRICT-only.
Inserts and updates run one writer per statement shape: the set, whether
it inserts, and the function names bound, in order. A writer is
straight-line Python generated from that shape alone (how many values,
each one's kind and nullability, the functions an insert leaves unbound
and whether one of those is required), compiled once per shape, so no
schema name or value is ever spliced into its source. It validates the
values in binding order, with the errors and counts written out below;
then an insert's appends and indexes the row in one pass, so a refused
insert grows no list, and an update's writes the row in place, moves its
reverse-index entries and returns the before-image. A writer has
written, indexed and counted all of it when it returns, so no work is
left past the engine's apply_mutation either. insert_row,
set_values, validate_insert and validate_update each run the writer of
their shape, the last two with W=0, which validates alone. undo_write
takes back the latest insert or update and, trusting the pre-write
state, validates nothing.

Names are resolved once per store, not per value: a writer is bound, on
its shape's first use, to the set's table, which binds each function to
its column, reverse index and target set's ids, and kept in `writers`;
each constraint's two domain walks are bound to its chains' columns, and
the one walk of each chain position to its head's columns, reverse
indexes and other chain's columns. The walks feed the engine's check
kernels, which it binds to them on first use and keeps in `kernels`, and
the engine keeps a handler per statement shape in `handlers`, bound to
the shape's writer and kernels. All hold the store's own lists, never
copies, and are the only bindings; clone() binds the walks afresh to the
copy's, from the schema as the new store does, and leaves the copy's
writers, kernels and handlers to be bound to those.

The store counts rows it touches: +1 for every row whose values are read
(lookups, full-row reads, existence checks performed during validation)
and +1 per reverse-index consultation. A check's bound walk counts as
lookup and inverse would: +1 per row read and +1 per target
consulted. lookup reads the cell directly and looks for what is missing
only when that fails; it and read_row count +1 for a live row, even when
the function is unknown, and nothing for an unknown set or a row that is
not live: an id below 1, past the last, of a deleted row, a bool or not
an int names no row, never another one. set_values counts the +1 of the
before-image it returns in the same way, before it validates. The counter
measures work done, so it keeps advancing during mutations that end up
rejected; it is not part of the logical state captured by snapshot().
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, NoReturn, Union

from .model import FunctionDef, Schema


class RowId(NamedTuple):
    """Surrogate identifier of one row of one set.

    A tuple, so hashing, equality and ordering by (set_name, x) run in C.
    """

    set_name: str
    x: int

    def __repr__(self) -> str:
        return f"{self.set_name}#{self.x}"


Value = Union[int, str, RowId, None]
# Integer values are SQLite's: signed 64-bit.
INT_MIN, INT_MAX = -(2**63), 2**63 - 1
_DEAD = object()  # every cell of a dead row, and slot 0 of every column


class StoreError(Exception):
    """Raised when a write violates a store-level rule."""


class UnknownSet(StoreError):
    pass


class UnknownRow(StoreError):
    pass


class UnknownFunction(StoreError):
    pass


class MissingRequired(StoreError):
    pass


class DanglingReference(StoreError):
    pass


class ValueTypeMismatch(StoreError):
    pass


class RestrictViolation(StoreError):
    def __init__(self, message: str, referencing: tuple[RowId, ...]):
        super().__init__(message)
        self.referencing = referencing


class RowCounter:
    """Mutable rows-touched tally, shareable between a store and its clones."""

    __slots__ = ("rows_inspected",)

    def __init__(self) -> None:
        self.rows_inspected = 0


class Database:
    """Mutable column store bound to an immutable schema.

    Lists indexed by row id: `_ids[set]` holds the RowId insert_row
    returned for each live row, which rows, inverse and row_ids hand out,
    and None for a dead row and at slot 0, so its length is the next id;
    `_columns[set][function]` holds each row's value, and _DEAD for a dead
    row and at slot 0; `_reverse[(set, link)]`, indexed by the target's id,
    holds each target's set of source ids, and () for one without sources.
    A dead row keeps its slots, so memory follows the ids issued.
    `_tables[set][function]` is (function, column, reverse index or
    None, linked set's ids or None); `_into[set]` holds the reverse indexes
    of the links into the set, which grow and shrink with its ids;
    `walks[id(constraint)]` is (left chain's columns after the first, right
    chain's columns), innermost first, for each constraint: a domain check
    reads the left chain's first cell through lookup, its one guarded read,
    which refuses a row that is not live, then these, at ids that link
    cells hold or at the row it found live in the domain set.
    `walks[id(occ)]` is (head's columns innermost first, reverse indexes
    outermost first, other chain's interior levels innermost first, its
    last level) for every occurrence, innermost included, the ones link
    checks read; a level is (column, whether its function is nullable).
    The walks feed the check kernels: `kernels[id(constraint)]` and
    `kernels[id(occ)]` hold the engine's kernels bound to these walks
    and to the counter, which _bind empties and the engine fills on each
    kernel's first use. `writers[(insert, set, names)]` holds the writer
    of each statement shape used so far, and `handlers`, keyed by the
    engine, the engine's handlers bound to them and to the kernels; _bind
    empties both. No check binds a walk for one call;
    oracle.judge_row judges an ad-hoc constraint. A non-nullable column
    of a live row never holds null, because every write is validated and
    RESTRICT keeps each link cell pointing at a live row, so a link check
    looks for nulls only in a nullable level's values. Single writer;
    readers interleave only between mutations. clone() shares the counter
    by default, so scratch work counts, and binds its own tables and
    walks as __init__ does, so its writers, kernels and handlers, bound
    anew on first use, read, write and count the clone alone.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._ids: dict[str, list[RowId | None]] = {s.name: [None] for s in schema.sets}
        self._columns: dict[str, dict[str, list]] = {
            s.name: {fn.name: [_DEAD] for fn in schema.functions_of(s.name)} for s in schema.sets
        }
        self._reverse: dict[tuple[str, str], list[set[int] | tuple]] = {
            (fn.domain, fn.name): [()] for fn in schema.functions if fn.is_link
        }
        self.counter = RowCounter()
        self._bind()

    def _bind(self) -> None:
        """Bind tables and walks to this store's own lists, by the schema's
        names, and empty the writers, kernels and handlers bound to them."""
        columns, reverse, ids = self._columns, self._reverse, self._ids
        self._tables = {
            s: {
                f.name: (f, cs[f.name], reverse.get((s, f.name)), ids.get(f.codomain))
                for f in self.schema.functions_of(s)
            }
            for s, cs in columns.items()
        }
        self._into = {
            s: tuple(reverse[f.domain, f.name] for f in self.schema.links_into(s)) for s in ids
        }
        self.walks = {}
        self.kernels = {}
        self.writers = {}
        self.handlers = {}

        def column(f: FunctionDef) -> list:
            return columns[f.domain][f.name]

        for c in self.schema.constraints:
            lefts, rights = (tuple(map(column, reversed(ch.functions))) for ch in (c.left, c.right))
            self.walks[id(c)] = lefts[1:], rights
            for occ in c.occurrences:
                *interior, last = ((column(f), f.nullable) for f in reversed(occ.other.functions))
                self.walks[id(occ)] = (
                    tuple(map(column, occ.head)),
                    tuple(reverse[f.domain, f.name] for f in occ.reverse),
                    tuple(interior),
                    last,
                )

    @property
    def rows_inspected(self) -> int:
        return self.counter.rows_inspected

    # -- reads ---------------------------------------------------------

    def rows(self, set_name: str) -> tuple[RowId, ...]:
        ids = self._ids.get(set_name)
        if ids is None:
            raise UnknownSet(f"unknown set {set_name!r}")
        return tuple(filter(None, ids))

    def row_exists(self, row: RowId) -> bool:
        return _slot(self._ids.get(row.set_name, ()), row.x) is not None

    def lookup(self, row: RowId, fn_name: str) -> Value:
        x = row.x
        try:
            value = self._columns[row.set_name][fn_name][x]
            if value is _DEAD or x < 1 or x is True:  # a dead row's cell, slot -1 or True
                raise IndexError
        except (KeyError, IndexError, TypeError):
            self._row(row)  # an unknown set or a dead row raises, counting nothing
            self.counter.rows_inspected += 1
            raise UnknownFunction(f"no function {fn_name!r} on {row.set_name!r}")
        self.counter.rows_inspected += 1
        return value

    def read_row(self, row: RowId) -> dict[str, Value]:
        """The row's values by name; counts as lookup does."""
        self._row(row)  # an unknown set or a dead row raises, counting nothing
        self.counter.rows_inspected += 1
        x = row.x
        return {name: column[x] for name, column in self._columns[row.set_name].items()}

    def inverse(self, domain_set: str, fn_name: str, target: RowId) -> frozenset[RowId]:
        """Exact preimage of `target` under the link (domain_set, fn_name);
        counts +1 for the target consulted."""
        index = self._reverse.get((domain_set, fn_name))
        if index is None:
            raise UnknownFunction(f"no link function {fn_name!r} on {domain_set!r}")
        self.counter.rows_inspected += 1
        return frozenset(self.row_ids(domain_set, _slot(index, target.x) or ()))

    def row_ids(self, set_name: str, xs: Iterable[int]) -> list[RowId]:
        """The stored RowId of each of the live rows `xs` of set_name; counts nothing."""
        return list(map(self._ids[set_name].__getitem__, xs))

    # -- validation (read-only, raises StoreError) ----------------------

    def validate_insert(self, set_name: str, values: Mapping[str, Value]) -> dict[str, Value]:
        """Check an insert and return the full normalized row value map:
        `values` in order, then each function left unbound, null."""
        return self.writer(set_name, tuple(values), True)(*values.values(), W=0)

    def validate_update(self, row: RowId, values: Mapping[str, Value]) -> dict[str, Value]:
        return self.writer(row.set_name, tuple(values), False)(row, *values.values(), W=0)

    def validate_delete(self, row: RowId) -> None:
        """Refuse (RESTRICT) deleting a row that another row links to.

        A row's links to itself do not count: deleting it leaves no
        dangling reference, as in SQLite's foreign-key check.
        """
        self._row(row)
        referencing: list[RowId] = []
        for fn in self.schema.links_into(row.set_name):
            referencing.extend(sorted(self.inverse(fn.domain, fn.name, row) - {row}))
        if referencing:
            listed = ", ".join(repr(r) for r in referencing[:5])
            more = "" if len(referencing) <= 5 else f" and {len(referencing) - 5} more"
            raise RestrictViolation(
                f"cannot delete {row!r}: referenced by {listed}{more}",
                tuple(referencing),
            )

    # -- writes ----------------------------------------------------------

    def insert_row(self, set_name: str, values: Mapping[str, Value]) -> RowId:
        """Validate the row whole, then append and index it in one pass; counts +1, as _write."""
        return self.writer(set_name, tuple(values), True)(*values.values())

    def set_values(self, row: RowId, values: Mapping[str, Value]) -> dict[str, Value]:
        """Replace several values of one row, validating all before writing,
        and return the row's before-image: the old value of each column
        written, by name, which undo_write takes back.

        Counts +1 for that image once the row is found live, as read_row
        counts it, before the values are validated, so an update refused on
        a live row still counts it; then as validation and _write count.
        """
        return self.writer(row.set_name, tuple(values), False)(row, *values.values())

    def writer(self, set_name: str, names: tuple[str, ...], insert: bool):
        """The writer of an insert into set_name (`insert`) or of an update
        of one of its rows, binding the functions `names` in that order,
        bound to this store on first use and kept in `writers`.

        An insert's writer takes the values, an update's the row and then
        the values. Each validates them in order, then writes, counting
        as the module docstring says; called with W=0 it only validates,
        counting no image and no write, and returns the normalized values.
        An unknown set raises UnknownSet.
        """
        key = (insert, set_name, names)
        write = self.writers.get(key)
        if write is not None:
            return write
        table = self._tables.get(set_name)
        if table is None:
            raise UnknownSet(f"unknown set {set_name!r}")
        kinds: list[tuple[str, bool] | None] = []
        bound = [self.counter, self._ids[set_name], set_name]
        shape = None  # an insert's (links into the set, unbound functions, any required)
        for name in names:
            if name not in table:  # it raises, so no later position is reached
                kinds.append(None)
                bound.append(name)
                break
            fn, column, index, targets = table[name]
            kinds.append(("link" if index is not None else fn.codomain.value, fn.nullable))
            bound += [fn, column] if index is None else [fn, column, index, targets, fn.codomain]
        else:
            bound += names
            if insert:
                unbound = [fn for name, (fn, *_) in table.items() if name not in names]
                missing = [fn.name for fn in unbound if not fn.nullable][:1]
                bound += [*self._into[set_name], *(table[fn.name][1] for fn in unbound)]
                bound += [*(fn.name for fn in unbound), *missing]
                shape = (len(self._into[set_name]), len(unbound), bool(missing))
        binder = _writer_binder(insert, tuple(kinds), shape)
        write = self.writers[key] = binder(*bound)
        return write

    def delete_row(self, row: RowId) -> None:
        self.validate_delete(row)
        self._remove(row)

    def undo_write(self, row: RowId, before: Mapping[str, Value] | None) -> None:
        """Take back the latest write to the store, made to `row`.

        `before` is the before-image set_values returned, or None when the
        write was an insert. An undone insert removes the row and its
        reverse-index entries and drops its slots, the last ones, so a
        rejected insert burns no id; an undone update writes back the old
        values of the columns it wrote and re-points the reverse index.
        Nothing is validated and RESTRICT is not consulted: the pre-write
        state was valid and only this write has changed it since.
        """
        if before is None:
            self._remove(row)
            s = row.set_name
            for slots in (self._ids[s], *self._columns[s].values(), *self._into[s]):
                slots.pop()
        else:
            self._write(row, before)

    # -- whole-store operations ------------------------------------------

    def clone(self, share_counter: bool = True) -> "Database":
        other = object.__new__(Database)  # no empty store to throw away
        other.schema = self.schema
        other.counter = self.counter if share_counter else RowCounter()
        other._ids = {s: ids.copy() for s, ids in self._ids.items()}
        other._columns = {s: {n: c.copy() for n, c in t.items()} for s, t in self._columns.items()}
        other._reverse = {k: [s and set(s) for s in index] for k, index in self._reverse.items()}
        other._bind()
        return other

    def snapshot(self) -> dict:
        """Deep, comparison-friendly image of the logical state."""
        return {
            "next_ids": {s: len(ids) for s, ids in self._ids.items()},
            "tables": {
                s: {x: {n: column[x] for n, column in cs.items()} for _, x in self.rows(s)}
                for s, cs in self._columns.items()
            },
            "reverse": {
                f"{d}.{f}": {t: tuple(sorted(s)) for t, s in enumerate(index) if s}
                for (d, f), index in self._reverse.items()
            },
        }

    # -- internals ---------------------------------------------------------

    def _write(self, row: RowId, values: Mapping[str, Value]) -> dict[str, Value]:
        """Store already-validated values, re-point the reverse index and
        return the values replaced, by name. Its caller has found the row
        live or trusts it (undo_write)."""
        table = self._tables[row.set_name]
        self.counter.rows_inspected += 1
        x = row.x
        before = {}
        for name, value in values.items():
            _, column, index, _ = table[name]
            old = before[name] = column[x]
            if index is not None:  # a link: its cells hold RowIds or None
                if old is not None:
                    sources = index[old.x]
                    sources.discard(x)
                    if not sources:
                        index[old.x] = ()
                if value is not None:
                    sources = index[value.x]
                    if sources:
                        sources.add(x)
                    else:
                        index[value.x] = {x}
            column[x] = value
        return before

    def _remove(self, row: RowId) -> None:
        self._write(row, dict.fromkeys(self._row(row)))
        self._ids[row.set_name][row.x] = None
        for column in self._columns[row.set_name].values():
            column[row.x] = _DEAD

    def _row(self, row: RowId) -> dict[str, tuple]:
        """The table of row's set; raises unless row is live."""
        x = row.x
        try:
            if x > 0 and x is not True and self._ids[row.set_name][x] is not None:
                return self._tables[row.set_name]
        except (KeyError, IndexError, TypeError):
            pass
        if row.set_name not in self._ids:
            raise UnknownSet(f"unknown set {row.set_name!r}")
        raise UnknownRow(f"no row {row!r}")


def _slot(slots: list, x: int):
    """slots[x] when x is a row id, from 1 to the last; None otherwise."""
    try:
        return slots[x] if x > 0 and x is not True else None
    except (IndexError, TypeError):
        return None


# ---------------------------------------------------------------------------
# Writers: one per statement shape, generated once and bound per store
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _writer_binder(insert: bool, kinds: tuple, shape: tuple[int, int, bool] | None):
    """The binder of a writer: an insert's (`insert`) or an update's, of
    one value per item of `kinds`, each (kind, nullable) where the kind is
    "link", "text" or "integer", or None for an unknown function, the last
    item then; `shape` is a whole insert's (links into its set, functions
    it leaves unbound, whether one of those is required).

    bind(C, I, S, F0 K0 [X0 Y0 T0].., N0.., P0.., U0.., Z0.., [Q]) takes
    the counter, the set's ids and name; for each value its function and
    column, and for a link its reverse index, its target set's ids and
    that set's name (an unknown function's name alone); then the names
    bound; and a whole insert's reverse indexes into the set, each unbound
    function's column, their names and the first required one's.
    write(v0.., W=1), or an update's write(row, v0.., W=1), validates the
    values in order and writes them; W=0 only validates. After an unknown
    function's value it takes the rest unread. Reads of
    non-nullable links, an update's image (W) and the write are counted
    as one sum at each exit; a nullable link counts its read where it
    makes it.
    """
    update = not insert
    fields = ["C", "I", "S"]
    values = [f"v{i}" for i in range(len(kinds))]
    body = ["x = row[1]", "if _slot(I, x) is None:", "    _no_row(row)"] if update else []
    pending = 0  # reads made and not yet counted

    def counted(line: str, indent: str, extra: int = 0, image: bool = update) -> list[str]:
        """`line`, once every read made is counted, and an update's image."""
        terms = ["W"] * image + [str(pending + extra)] * bool(pending + extra)
        count = [f"{indent}C.rows_inspected += {' + '.join(terms)}"] if terms else []
        return [*count, f"{indent}{line}"]

    for i, kind in enumerate(kinds):
        v = values[i]
        if kind is None:
            fields.append(f"F{i}")
            body += counted(f"_unknown(S, F{i})", "")
            break
        what, nullable = kind
        fields += [f"F{i}", f"K{i}", *(f"{c}{i}" for c in "XYT" if what == "link")]
        if what == "link":
            tests = [
                (f"not isinstance({v}, RowId)", f"_not_a_row(F{i}, {v})"),
                (f"{v}[0] != T{i}", f"_other_set(F{i}, {v})"),
            ]
        elif what == "text":
            tests = [(f"not isinstance({v}, str)", f"_not_text(F{i}, {v})")]
        else:
            tests = [
                (f"type({v}) is not int and (isinstance({v}, bool) or not isinstance({v}, int))",
                 f"_not_integer(F{i}, {v})"),
                (f"not INT_MIN <= {v} <= INT_MAX", f"_out_of_range(F{i})"),
            ]
        if nullable:
            body.append(f"if {v} is not None:")
        else:
            body += [f"if {v} is None:", *counted(f"_not_null(F{i})", "    ")]
        indent = "    " * nullable
        for test, refusal in tests:
            body += [f"{indent}if {test}:", *counted(refusal, indent + "    ")]
        if what == "link":
            body += [f"{indent}C.rows_inspected += 1"] * nullable
            body.append(f"{indent}if _slot(Y{i}, {v}[1]) is None:")
            body += counted(f"_dangling(F{i}, {v})", indent + "    ", 1 - nullable)
            pending += 1 - nullable
    else:
        names = [f"N{i}" for i in range(len(kinds))]
        fields += names
        if update:
            image = ", ".join(map("{}: {}".format, names, values))
            body += ["if not W:", *counted(f"return {{{image}}}", "    ", image=False)]
            body.append(f"C.rows_inspected += {pending + 2}")
            for i, (what, nullable) in enumerate(kinds):
                body.append(f"o{i} = K{i}[x]")
                if what == "link":
                    body += _unindex(f"o{i}", f"X{i}", nullable)
                    body += _index(f"v{i}", f"X{i}", nullable)
                body.append(f"K{i}[x] = v{i}")
            before = ", ".join(f"{n}: o{i}" for i, n in enumerate(names))
            body.append(f"return {{{before}}}")
        else:
            into, unbound, missing = shape
            fields += [f"P{j}" for j in range(into)]
            fields += [f"U{j}" for j in range(unbound)]
            nulls = [f"Z{j}" for j in range(unbound)]
            fields += nulls + ["Q"] * missing
            if missing:
                body += counted("_missing(S, Q)", "")
            row = map("{}: {}".format, names + nulls, values + ["None"] * unbound)
            body += ["if not W:", *counted(f"return {{{', '.join(row)}}}", "    ")]
            body += ["x = len(I)", "row = _new(RowId, (S, x))", "I.append(row)"]
            body += [f"P{j}.append(())" for j in range(into)]
            body.append(f"C.rows_inspected += {pending + 1}")
            for i, (what, nullable) in enumerate(kinds):
                body.append(f"K{i}.append(v{i})")
                if what == "link":
                    body += _index(f"v{i}", f"X{i}", nullable)
            body += [f"U{j}.append(None)" for j in range(unbound)]
            body.append("return row")
    rest = ["*_"] * (kinds[-1:] == (None,))  # the values after an unknown function
    signature = ", ".join(["row"] * update + values + rest + ["W=1"])
    return compile_binder(fields, signature, body, "write", globals())


def _index(value: str, index: str, nullable: bool) -> list[str]:
    """Writer lines that add row x to the sources of the row `value` links to."""
    indent = "    " * nullable
    cell = f"{index}[{value}[1]]"
    lines = [f"s = {cell}", "if s:", "    s.add(x)", "else:", f"    {cell} = {{x}}"]
    return [f"if {value} is not None:"] * nullable + [indent + line for line in lines]


def _unindex(value: str, index: str, nullable: bool) -> list[str]:
    """Writer lines that take row x from the sources of the row `value` links to."""
    indent = "    " * nullable
    cell = f"{index}[{value}[1]]"
    lines = [f"s = {cell}", "s.discard(x)", "if not s:", f"    {cell} = ()"]
    return [f"if {value} is not None:"] * nullable + [indent + line for line in lines]


def compile_binder(bound: list[str], signature: str, body: list[str], name: str, scope: dict):
    """bind(*bound), which returns the function `name`(signature) running
    `body`. Both read `scope` as their globals, so a generated function
    calls the helpers its module holds when it runs."""
    lines = "".join(f"        {line}\n" for line in body)
    head = f"def bind({', '.join(bound)}):\n    def {name}({signature}):\n"
    source = f"{head}{lines}    return {name}\n"
    namespace: dict = {}
    exec(compile(source, f"<funcdiag {name}>", "exec"), scope, namespace)
    return namespace["bind"]


_new = tuple.__new__  # builds a RowId without NamedTuple's Python __new__


def _no_row(row: RowId) -> NoReturn:
    raise UnknownRow(f"no row {row!r}")


def _unknown(set_name: str, name: str) -> NoReturn:
    raise UnknownFunction(f"no function {name!r} on {set_name!r}")


def _missing(set_name: str, name: str) -> NoReturn:
    raise MissingRequired(f"insert into {set_name!r} misses required {name!r}")


def _not_null(fn: FunctionDef) -> NoReturn:
    raise MissingRequired(f"{fn.name!r} on {fn.domain!r} does not allow null")


def _not_a_row(fn: FunctionDef, value: object) -> NoReturn:
    raise ValueTypeMismatch(
        f"{fn.name!r} on {fn.domain!r} is a link to {fn.codomain!r}, got {type(value).__name__}"
    )


def _other_set(fn: FunctionDef, value: RowId) -> NoReturn:
    raise ValueTypeMismatch(
        f"{fn.name!r} on {fn.domain!r} links to {fn.codomain!r}, got row of {value.set_name!r}"
    )


def _dangling(fn: FunctionDef, value: RowId) -> NoReturn:
    raise DanglingReference(f"{fn.name!r} on {fn.domain!r} references missing {value!r}")


def _not_text(fn: FunctionDef, value: object) -> NoReturn:
    raise ValueTypeMismatch(f"{fn.name!r} on {fn.domain!r} holds text, got {type(value).__name__}")


def _not_integer(fn: FunctionDef, value: object) -> NoReturn:
    raise ValueTypeMismatch(
        f"{fn.name!r} on {fn.domain!r} holds integers, got {type(value).__name__}"
    )


def _out_of_range(fn: FunctionDef) -> NoReturn:
    raise ValueTypeMismatch(
        f"{fn.name!r} on {fn.domain!r} holds 64-bit integers, got one out of range"
    )
