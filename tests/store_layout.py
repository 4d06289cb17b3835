"""The tests' one reader of Database's private layout.

Database keeps every per-row structure as a list indexed by the row id:
`_ids[set]` (a RowId, or None for a dead row and at slot 0),
`_columns[set][function]` (a value, or the dead-row sentinel) and
`_reverse[(set, link)]`, indexed by the target row's id (a set of source
ids, or () when none), with `_into[set]` holding the reverse indexes of
the links into the set. Tests that compare stores, read a whole column at
once, need the next id or measure what an insert grows read them here and
nowhere else, so a change of layout changes this module alone.
"""

from __future__ import annotations

from funcdiag.store import Database, RowId, Value


def next_id(db: Database, set_name: str | None) -> int | None:
    """The id the next insert into set_name takes; None for no such set."""
    ids = db._ids.get(set_name)
    return None if ids is None else len(ids)


def ids(db: Database, set_name: str) -> list:
    return db._ids[set_name]


def column(db: Database, set_name: str, fn_name: str) -> list:
    return db._columns[set_name][fn_name]


def reverse_index(db: Database, domain_set: str, fn_name: str) -> list:
    return db._reverse[domain_set, fn_name]


def cells(db: Database, set_name: str, fn_name: str, xs: list[int]) -> list[Value] | None:
    """fn_name's cell at each of the rows `xs` of set_name, read straight
    from its column and counting nothing; None unless the set and the
    function exist and every one of `xs` is a live row."""
    values = db._columns.get(set_name, {}).get(fn_name)
    if values is None or not all(db.row_exists(RowId(set_name, x)) for x in xs):
        return None
    return [values[x] for x in xs]


def same_state(a: Database, b: Database) -> bool:
    """Whether a.snapshot() == b.snapshot(), without building either: the
    same id, column and reverse-index lists. Dead rows read alike in both
    (None ids, sentinel cells) and a target without sources holds (), so
    equal lists mean equal snapshots and back."""
    return a._ids == b._ids and a._columns == b._columns and a._reverse == b._reverse


def slot_lengths(db: Database, set_name: str) -> list[int]:
    """The lengths of the lists an insert into set_name grows: its ids, each
    of its columns and the reverse index of each link into it."""
    lists = (db._ids[set_name], *db._columns[set_name].values(), *db._into[set_name])
    return list(map(len, lists))
