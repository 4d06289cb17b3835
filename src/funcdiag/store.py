"""In-memory column store with surrogate keys and reverse link indexes.

Each set maps its live rows' surrogate ids (from 1, never reused) to the
RowIds insert_row returned, which rows, inverse and row_ids hand out. Each
(set, function) is one column, a dict from id to value in the order the
set's ids were inserted. Link cells hold RowIds, which every reader of a
link wants, and are mirrored in a reverse index (target row -> set of
source rows). Writes enforce referential integrity and nullability;
deletes are RESTRICT-only. undo_write takes back the latest insert or
update and, trusting the pre-write state, validates nothing.

Names are resolved once per store, not per value: validation and writes
read each set's table, which binds each function to its column, reverse
index and target set's live ids, and link checks read each occurrence's
walk, bound to its reverse indexes and columns. Both hold the store's own
dicts, never copies; clone() binds them afresh to the copy's, from a
recipe derived once from the schema.

The store counts rows it touches: +1 for every row whose values are read
(lookups, full-row reads, existence checks performed during validation)
and +1 per reverse-index consultation. inverse_ids answers a whole level
of a reverse walk in one call over row ids and counts exactly as inverse
would row by row, +1 per target consulted, and a link check's bound walk
counts as lookup and inverse would: +1 per row read and +1 per target
consulted. lookup and read_row read the cells directly and look for what is
missing only when that fails, and count the same on either path: +1 for
a live row, even when the function is unknown, and nothing for an
unknown set or a dead row. The counter measures work done, so it keeps
advancing during mutations that end up rejected; it is not part of the
logical state captured by snapshot().
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Union

from .model import ScalarType, Schema


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

    `_ids[set]` maps live row ids to their RowIds, `_columns[set][function]`
    maps them to values. `_tables[set][function]` is (function, column,
    reverse index or None, linked set's ids or None); `walks[id(occ)]` is
    (reverse indexes outermost first, other chain's columns innermost
    first) for each occurrence in schema.occurrences. Single writer;
    readers interleave only between mutations. clone() shares the counter
    by default, so scratch work counts, and rebinds tables and walks from
    the recipe it shares.
    """

    def __init__(self, schema: Schema, counter: RowCounter | None = None):
        self.schema = schema
        self._ids: dict[str, dict[int, RowId]] = {s.name: {} for s in schema.sets}
        self._columns: dict[str, dict[str, dict[int, Value]]] = {
            s.name: {fn.name: {} for fn in schema.functions_of(s.name)} for s in schema.sets
        }
        self._reverse: dict[tuple[str, str], dict[int, set[int]]] = {
            (fn.domain, fn.name): {} for fn in schema.functions if fn.is_link
        }
        self._next_id: dict[str, int] = {s.name: 1 for s in schema.sets}
        self.counter = counter if counter is not None else RowCounter()
        self._recipe = _recipe(schema)
        self._bind()

    def _bind(self) -> None:
        """Bind tables and walks to this store's own dicts, from the recipe
        that __init__ derived from the schema and every clone shares."""
        columns, reverse, ids = self._columns, self._reverse, self._ids
        tables, walks = self._recipe
        self._tables = {
            s: {n: (f, cs[n], reverse.get(link), ids.get(target)) for n, f, link, target in slots}
            for s, cs, slots in zip(ids, columns.values(), tables)
        }
        self.walks = {  # lists in tuple(): a generator costs more, once per clone
            key: (
                tuple([reverse[link] for link in links]),
                tuple([columns[s][n] for s, n in column_names]),
            )
            for key, links, column_names in walks
        }

    @property
    def rows_inspected(self) -> int:
        return self.counter.rows_inspected

    # -- reads ---------------------------------------------------------

    def rows(self, set_name: str) -> tuple[RowId, ...]:
        ids = self._ids.get(set_name)
        if ids is None:
            raise UnknownSet(f"unknown set {set_name!r}")
        return tuple(ids.values())

    def row_exists(self, row: RowId) -> bool:
        return row.x in self._ids.get(row.set_name, {})

    def lookup(self, row: RowId, fn_name: str) -> Value:
        try:
            value = self._columns[row.set_name][fn_name][row.x]
        except KeyError:
            self._row(row)  # an unknown set or a dead row raises, counting nothing
            self.counter.rows_inspected += 1
            raise UnknownFunction(f"no function {fn_name!r} on {row.set_name!r}") from None
        self.counter.rows_inspected += 1
        return value

    def read_row(self, row: RowId) -> dict[str, Value]:
        """The row's values by name; reads the cells as lookup does."""
        try:
            values = {name: column[row.x] for name, column in self._columns[row.set_name].items()}
        except KeyError:
            values = {}
        if not values:  # an unknown set or a dead row raises; a set without functions reads {}
            self._row(row)
        self.counter.rows_inspected += 1
        return values

    def inverse(self, domain_set: str, fn_name: str, target: RowId) -> frozenset[RowId]:
        """Exact preimage of `target` under the link (domain_set, fn_name)."""
        sources = self.inverse_ids(domain_set, fn_name, (target.x,))
        return frozenset(self.row_ids(domain_set, sources))

    def row_ids(self, set_name: str, xs: Iterable[int]) -> list[RowId]:
        """The stored RowId of each of the live rows `xs` of set_name; counts nothing."""
        return list(map(self._ids[set_name].__getitem__, xs))

    def inverse_ids(
        self, domain_set: str, fn_name: str, targets: Collection[int]
    ) -> set[int]:
        """Ids of the rows of domain_set whose link fn_name points at one of
        the row ids `targets`: inverse for a whole level in one call.

        Counts +1 per target consulted, as inverse does for each.
        """
        index = self._reverse.get((domain_set, fn_name))
        if index is None:
            raise UnknownFunction(f"no link function {fn_name!r} on {domain_set!r}")
        self.counter.rows_inspected += len(targets)
        return set().union(*map(index.get, targets, repeat(())))

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
        normalized = self.validate_insert(set_name, values)
        x = self._next_id[set_name]
        self._next_id[set_name] = x + 1
        row = self._ids[set_name][x] = tuple.__new__(RowId, (set_name, x))
        self._write(row, normalized)
        return row

    def set_values(self, row: RowId, values: Mapping[str, Value]) -> None:
        """Replace several values of one row; validates all before writing."""
        self._write(row, self.validate_update(row, values))

    def delete_row(self, row: RowId) -> None:
        self.validate_delete(row)
        self._remove(row)

    def undo_write(self, row: RowId, before: Mapping[str, Value] | None) -> None:
        """Take back the latest write to the store, made to `row`.

        `before` is the row's pre-write image as read_row returned it, or
        None when the write was an insert. An undone insert removes the
        row and its reverse-index entries and steps the set's next id
        back, so a rejected insert burns no id; an undone update writes
        the old values back and re-points the reverse index. Nothing is
        validated and RESTRICT is not consulted: the pre-write state was
        valid and only this write has changed it since.
        """
        if before is None:
            self._remove(row)
            self._next_id[row.set_name] = row.x
        else:
            self._write(row, before)

    # -- whole-store operations ------------------------------------------

    def clone(self, share_counter: bool = True) -> "Database":
        other = object.__new__(Database)  # no empty store to throw away
        other.schema = self.schema
        other.counter = self.counter if share_counter else RowCounter()
        other._ids = {s: dict(ids) for s, ids in self._ids.items()}
        other._columns = {s: {n: dict(c) for n, c in t.items()} for s, t in self._columns.items()}
        other._reverse = {
            key: {t: set(sources) for t, sources in index.items()}
            for key, index in self._reverse.items()
        }
        other._next_id = dict(self._next_id)
        other._recipe = self._recipe
        other._bind()
        return other

    def snapshot(self) -> dict:
        """Deep, comparison-friendly image of the logical state."""
        return {
            "next_ids": dict(self._next_id),
            "tables": {
                s: _table_builder(tuple(cs))(self._ids[s], *map(dict.values, cs.values()))
                for s, cs in self._columns.items()
            },
            "reverse": {
                f"{d}.{f}": {t: tuple(sorted(s)) for t, s in index.items() if s}
                for (d, f), index in self._reverse.items()
            },
        }

    # -- internals ---------------------------------------------------------

    def _write(self, row: RowId, values: Mapping[str, Value]) -> None:
        """Store already-validated values and re-point the reverse index.
        Its caller has found the row live or trusts it (undo_write)."""
        table = self._tables[row.set_name]
        self.counter.rows_inspected += 1
        x = row.x
        for name, value in values.items():
            _, column, index, _ = table[name]
            if index is not None:  # a link: its cells hold RowIds or None
                old = column.get(x)
                if old is not None:
                    sources = index[old.x]
                    sources.discard(x)
                    if not sources:
                        del index[old.x]
                if value is not None:
                    sources = index.get(value.x)
                    if sources is None:
                        index[value.x] = {x}
                    else:
                        sources.add(x)
            column[x] = value

    def _remove(self, row: RowId) -> None:
        self._write(row, dict.fromkeys(self._row(row)))
        for column in (self._ids[row.set_name], *self._columns[row.set_name].values()):
            del column[row.x]

    def _row(self, row: RowId) -> dict[str, tuple]:
        """The table of row's set; raises unless row is live."""
        try:
            self._ids[row.set_name][row.x]
        except KeyError:
            if row.set_name not in self._ids:
                raise UnknownSet(f"unknown set {row.set_name!r}") from None
            raise UnknownRow(f"no row {row!r}") from None
        return self._tables[row.set_name]

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
                if value.x not in targets:
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
            normalized[name] = value
        return normalized


def _recipe(schema: Schema) -> tuple[list, list]:
    """What _bind binds, by name. Per set, in the order of the store's
    dicts: (name, function, reverse-index key, linked set) for each
    function, the last two None for an attribute. Per occurrence:
    (id(occurrence), its reverse-index keys outermost first, its other
    chain's (set, function) columns innermost first)."""
    tables = [
        [
            (f.name, f, (f.domain, f.name), f.codomain) if f.is_link else (f.name, f, None, None)
            for f in schema.function_table(s.name).values()
        ]
        for s in schema.sets
    ]
    walks = [
        (
            id(occ),
            tuple((fn.domain, fn.name) for fn in occ.reverse),
            tuple((fn.domain, fn.name) for fn in occ.other.functions[::-1]),
        )
        for occs in schema.occurrences.values()
        for occ in occs
    ]
    return tables, walks


@lru_cache(maxsize=256)
def _table_builder(names: tuple[str, ...]) -> Callable[..., dict[int, dict[str, Value]]]:
    """`lambda ids, *columns: {x: {names[0]: _0, names[1]: _1} for x, _0, _1,
    in zip(ids, *columns)}` and so on, names as repr() literals: one dict
    display per row, in one frame, rebuilds a table faster than dict(zip())."""
    targets = "".join(f"_{i}, " for i in range(len(names)))
    cells = ", ".join(f"{name!r}: _{i}" for i, name in enumerate(names))
    return eval(f"lambda ids, *columns: {{x: {{{cells}}} for x, {targets}in zip(ids, *columns)}}")
