"""In-memory column store with surrogate keys and reverse link indexes.

Each set maps its live rows' surrogate ids (from 1, never reused) to the
RowIds insert_row returned, which rows, inverse and row_ids hand out. Each
(set, function) is one column, a dict from id to value in the order the
set's ids were inserted. Link cells hold RowIds, which every reader of a
link wants, and are mirrored in a reverse index (target row -> set of
source rows). Writes enforce referential integrity and nullability;
deletes are RESTRICT-only. undo_write takes back the latest insert or
update and, trusting the pre-write state, validates nothing.

The store counts rows it touches: +1 for every row whose values are read
(lookups, full-row reads, existence checks performed during validation)
and +1 per reverse-index consultation. The bulk reads, lookup_ids and
inverse_ids, answer a whole level of a chain walk in one call over row
ids and count exactly as lookup and inverse would row by row: +1 per row
read and +1 per target consulted. lookup reads the cell directly and
looks for what is missing only when that fails, and counts the same on
either path: +1 for a live row, even when the function is unknown, and
nothing for an unknown set or a dead row. The counter measures work
done, so it keeps advancing during mutations that end up rejected; it is
not part of the logical state captured by snapshot().
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Union

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

    def touch(self, n: int = 1) -> None:
        self.rows_inspected += n


class Database:
    """Mutable column store bound to an immutable schema.

    `_ids[set]` maps live row ids to their RowIds, `_columns[set][function]`
    maps them to values. Single writer; readers interleave only between
    mutations. clone() shares the counter by default: scratch work counts.
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
            self.counter.touch()
            raise UnknownFunction(f"no function {fn_name!r} on {row.set_name!r}") from None
        self.counter.touch()
        return value

    def read_row(self, row: RowId) -> dict[str, Value]:
        columns = self._row(row)
        self.counter.touch()
        return {name: column[row.x] for name, column in columns.items()}

    def inverse(self, domain_set: str, fn_name: str, target: RowId) -> frozenset[RowId]:
        """Exact preimage of `target` under the link (domain_set, fn_name)."""
        sources = self.inverse_ids(domain_set, fn_name, (target.x,))
        return frozenset(self.row_ids(domain_set, sources))

    def row_ids(self, set_name: str, xs: Iterable[int]) -> list[RowId]:
        """The stored RowId of each of the live rows `xs` of set_name; counts nothing."""
        return list(map(self._ids[set_name].__getitem__, xs))

    def lookup_ids(self, set_name: str, fn_name: str, xs: list[int]) -> list[Value]:
        """fn_name's value at each row of set_name whose id is in `xs`, in
        order: lookup for a whole level of rows in one call.

        Counts +1 per row read. A missing row or function raises the error
        lookup raises, after counting the rows lookup would have read
        before it.
        """
        columns = self._columns.get(set_name)
        if columns is None:
            raise UnknownSet(f"unknown set {set_name!r}")
        try:
            values = list(map(columns.get(fn_name, {}).__getitem__, xs))
        except KeyError:
            return [self.lookup(RowId(set_name, x), fn_name) for x in xs]
        self.counter.touch(len(values))
        return values

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
        self.counter.touch(len(targets))
        return set().union(*map(index.get, targets, repeat(())))

    # -- validation (read-only, raises StoreError) ----------------------

    def validate_insert(self, set_name: str, values: Mapping[str, Value]) -> dict[str, Value]:
        """Check an insert and return the full normalized row value map."""
        if set_name not in self._ids:
            raise UnknownSet(f"unknown set {set_name!r}")
        functions = self.schema.function_table(set_name)
        normalized = self._check_values(set_name, functions, values)
        if len(normalized) < len(functions):  # some function is left unbound
            for name, fn in functions.items():
                if name not in normalized:
                    if not fn.nullable:
                        raise MissingRequired(
                            f"insert into {set_name!r} misses required {name!r}"
                        )
                    normalized[name] = None
        return normalized

    def validate_update(self, row: RowId, values: Mapping[str, Value]) -> dict[str, Value]:
        self._row(row)
        return self._check_values(row.set_name, self.schema.function_table(row.set_name), values)

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
        row = RowId(set_name, self._next_id[set_name])
        self._next_id[set_name] = row.x + 1
        self._ids[set_name][row.x] = row
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
        columns = self._columns[row.set_name]
        self.counter.touch()
        set_name, x = row
        for name, value in values.items():
            column = columns[name]
            old = column.get(x)
            if isinstance(old, RowId):
                index = self._reverse[(set_name, name)]
                sources = index.get(old.x)
                if sources is not None:
                    sources.discard(x)
                    if not sources:
                        del index[old.x]
            column[x] = value
            if isinstance(value, RowId):
                self._reverse[(set_name, name)].setdefault(value.x, set()).add(x)

    def _remove(self, row: RowId) -> None:
        columns = self._row(row)
        self._write(row, dict.fromkeys(columns))
        for column in (self._ids[row.set_name], *columns.values()):
            del column[row.x]

    def _row(self, row: RowId) -> dict[str, dict[int, Value]]:
        """The columns of row's set; raises unless row is live."""
        try:
            self._ids[row.set_name][row.x]
        except KeyError:
            if row.set_name not in self._ids:
                raise UnknownSet(f"unknown set {row.set_name!r}") from None
            raise UnknownRow(f"no row {row!r}") from None
        return self._columns[row.set_name]

    def _check_values(
        self, set_name: str, functions: Mapping[str, FunctionDef], values: Mapping[str, Value]
    ) -> dict[str, Value]:
        """Each of `values` checked by its function in `functions`, the
        function table of `set_name`, in order."""
        normalized: dict[str, Value] = {}
        for name, value in values.items():
            fn = functions.get(name)
            if fn is None:
                raise UnknownFunction(f"no function {name!r} on {set_name!r}")
            normalized[name] = self._check_value(fn, value)
        return normalized

    def _check_value(self, fn: FunctionDef, value: Value) -> Value:
        if value is None:
            if not fn.nullable:
                raise MissingRequired(
                    f"{fn.name!r} on {fn.domain!r} does not allow null"
                )
            return None
        if fn.is_link:
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
            self.counter.touch()
            if not self.row_exists(value):
                raise DanglingReference(
                    f"{fn.name!r} on {fn.domain!r} references missing {value!r}"
                )
            return value
        if fn.codomain is _TEXT:
            if not isinstance(value, str):
                raise ValueTypeMismatch(
                    f"{fn.name!r} on {fn.domain!r} holds text, got {type(value).__name__}"
                )
        else:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueTypeMismatch(
                    f"{fn.name!r} on {fn.domain!r} holds integers, got {type(value).__name__}"
                )
        return value


@lru_cache(maxsize=256)
def _table_builder(names: tuple[str, ...]) -> Callable[..., dict[int, dict[str, Value]]]:
    """`lambda ids, *columns: {x: {names[0]: _0, names[1]: _1} for x, _0, _1,
    in zip(ids, *columns)}` and so on, names as repr() literals: one dict
    display per row, in one frame, rebuilds a table faster than dict(zip())."""
    targets = "".join(f"_{i}, " for i in range(len(names)))
    cells = ", ".join(f"{name!r}: _{i}" for i, name in enumerate(names))
    return eval(f"lambda ids, *columns: {{x: {{{cells}}} for x, {targets}in zip(ids, *columns)}}")
