"""In-memory column store with dense surrogate keys and reverse link indexes.

Row ids start at 1 in each set, only grow, and are never reused (an
undone insert gives back only the last one), so every per-row structure
is a list indexed by the row id, like a column store's virtual-id column;
Database lists them. Link cells hold RowIds, which every reader of a link
wants, and are mirrored in a reverse index (target row -> set of source
rows). A read is one list index, but a deleted row keeps its slots, so
memory follows the ids issued, not the rows live. Writes enforce
referential integrity and nullability; deletes are RESTRICT-only. An
insert validates its whole row, then appends and indexes it in one pass,
so a refused insert grows no list. undo_write takes back the latest
insert or update and, trusting the pre-write state, validates nothing.

Names are resolved once per store, not per value: validation and writes
read each set's table, which binds each function to its column, reverse
index and target set's ids; each constraint's two domain walks are
bound to its chains' columns, and the one walk of each chain position to
its head's columns, reverse indexes and other chain's columns. The walks
feed the engine's check kernels, which it binds to them on first use and
keeps in `kernels`. All hold the store's own lists, never copies, and are
the only bindings; clone() binds the walks afresh to the copy's, from the
schema as the new store does, and leaves the copy's kernels to be bound
to those.

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

from typing import Iterable, Mapping, NamedTuple, Union

from .model import FunctionDef, ScalarType, Schema


class RowId(NamedTuple):
    """Surrogate identifier of one row of one set.

    A tuple, so hashing, equality and ordering by (set_name, x) run in C.
    """

    set_name: str
    x: int

    def __repr__(self) -> str:
        return f"{self.set_name}#{self.x}"


Value = Union[int, str, RowId, None]
_TEXT = ScalarType.TEXT  # read once: reading an Enum member from its class is slow
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
    kernel's first use. No check binds a walk for one call;
    oracle.judge_row judges an ad-hoc constraint. A non-nullable column
    of a live row never holds null, because every write is validated and
    RESTRICT keeps each link cell pointing at a live row, so a link check
    looks for nulls only in a nullable level's values. Single writer;
    readers interleave only between mutations. clone() shares the counter
    by default, so scratch work counts, and binds its own tables and
    walks as __init__ does, so its kernels, bound anew on first use, read
    and count the clone alone.
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
        names, and empty the kernels bound to them."""
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
        """Check an insert and return the full normalized row value map."""
        table = self._tables.get(set_name)
        if table is None:
            raise UnknownSet(f"unknown set {set_name!r}")
        normalized = self._check_values(set_name, table, values)
        if len(normalized) < len(table):  # some function is left unbound
            for name, slot in table.items():
                if name not in normalized:
                    if not slot[0].nullable:
                        raise MissingRequired(
                            f"insert into {set_name!r} misses required {name!r}"
                        )
                    normalized[name] = None
        return normalized

    def validate_update(self, row: RowId, values: Mapping[str, Value]) -> dict[str, Value]:
        return self._check_values(row.set_name, self._row(row), values)

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
        normalized = self.validate_insert(set_name, values)
        ids = self._ids[set_name]
        x = len(ids)
        row = tuple.__new__(RowId, (set_name, x))
        ids.append(row)
        for index in self._into[set_name]:
            index.append(())
        self.counter.rows_inspected += 1
        table = self._tables[set_name]
        for name, value in normalized.items():
            _, column, index, _ = table[name]
            column.append(value)
            if index is not None and value is not None:  # a link to an earlier row
                sources = index[value.x]
                if sources:
                    sources.add(x)
                else:
                    index[value.x] = {x}
        return row

    def set_values(self, row: RowId, values: Mapping[str, Value]) -> dict[str, Value]:
        """Replace several values of one row, validating all before writing,
        and return the row's before-image: the old value of each column
        written, by name, which undo_write takes back.

        Counts +1 for that image once the row is found live, as read_row
        counts it, before the values are validated, so an update refused on
        a live row still counts it; then as validation and _write count.
        """
        table = self._row(row)
        self.counter.rows_inspected += 1
        return self._write(row, self._check_values(row.set_name, table, values))

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

    def _check_values(
        self, set_name: str, table: Mapping[str, tuple], values: Mapping[str, Value]
    ) -> dict[str, Value]:
        """Each of `values` checked by its function in `table`, the table
        of `set_name`, in order."""
        normalized: dict[str, Value] = {}
        for name, value in values.items():
            slot = table.get(name)
            if slot is None:
                raise UnknownFunction(f"no function {name!r} on {set_name!r}")
            fn, _, _, targets = slot
            if value is None:
                if not fn.nullable:
                    raise MissingRequired(f"{fn.name!r} on {fn.domain!r} does not allow null")
            elif targets is not None:  # a link
                if not isinstance(value, RowId):
                    raise ValueTypeMismatch(
                        f"{fn.name!r} on {fn.domain!r} is a link to {fn.codomain!r},"
                        f" got {type(value).__name__}"
                    )
                if value.set_name != fn.codomain:
                    raise ValueTypeMismatch(
                        f"{fn.name!r} on {fn.domain!r} links to {fn.codomain!r},"
                        f" got row of {value.set_name!r}"
                    )
                self.counter.rows_inspected += 1
                if _slot(targets, value.x) is None:
                    raise DanglingReference(
                        f"{fn.name!r} on {fn.domain!r} references missing {value!r}"
                    )
            elif fn.codomain is _TEXT:
                if not isinstance(value, str):
                    raise ValueTypeMismatch(
                        f"{fn.name!r} on {fn.domain!r} holds text, got {type(value).__name__}"
                    )
            elif isinstance(value, bool) or not isinstance(value, int):
                raise ValueTypeMismatch(
                    f"{fn.name!r} on {fn.domain!r} holds integers, got {type(value).__name__}"
                )
            elif not INT_MIN <= value <= INT_MAX:
                raise ValueTypeMismatch(
                    f"{fn.name!r} on {fn.domain!r} holds 64-bit integers, got one out of range"
                )
            normalized[name] = value
        return normalized


def _slot(slots: list, x: int):
    """slots[x] when x is a row id, from 1 to the last; None otherwise."""
    try:
        return slots[x] if x > 0 and x is not True else None
    except (IndexError, TypeError):
        return None
