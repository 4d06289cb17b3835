"""Replay of script statements through SQLite guarded by emitted triggers.

The benchmark owns the DDL: one table per set, `[x] INTEGER PRIMARY KEY`,
`NOT NULL` for required functions, `REFERENCES` for links, and foreign
keys switched on. It adds no index of its own, so indexes that codegen
may emit later show up as a gain. Row ids are assigned the way the store
assigns them (from 1, never reused, advanced only by applied inserts) and
are never read from the engine's Database. The connection runs in
autocommit mode, so every statement is its own transaction and a trigger
abort undoes exactly that statement.
"""

from __future__ import annotations

import copy
import sqlite3

from funcdiag.codegen import Dialect, EmittedUnit
from funcdiag.dsl import Action, HandleRef, Mutation
from funcdiag.model import ScalarType, Schema
from funcdiag.store import RowId

INSTALLED_ROLES = ("domain-check", "link-check")


def ddl(schema: Schema) -> str:
    statements = []
    for set_def in schema.sets:
        columns = ["[x] INTEGER PRIMARY KEY"]
        for fn in schema.functions_of(set_def.name):
            if fn.is_link:
                column = f"[{fn.name}] INTEGER REFERENCES [{fn.codomain}]([x])"
            else:
                sql_type = "TEXT" if fn.codomain is ScalarType.TEXT else "INTEGER"
                column = f"[{fn.name}] {sql_type}"
            if not fn.nullable:
                column += " NOT NULL"
            columns.append(column)
        statements.append(f"CREATE TABLE [{set_def.name}] ({', '.join(columns)});")
    return "\n".join(statements)


def connect() -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:", isolation_level=None)
    connection.execute("PRAGMA foreign_keys = ON;")
    return connection


def install(connection: sqlite3.Connection, schema: Schema, units: list[EmittedUnit]) -> None:
    """Create the tables and install every generic-sql check trigger."""
    connection.executescript(ddl(schema))
    for unit in units:
        if unit.dialect is Dialect.GENERIC_SQL and unit.role in INSTALLED_ROLES:
            connection.executescript(unit.body)


def restore(snapshot: sqlite3.Connection) -> sqlite3.Connection:
    """Fresh connection holding a copy of `snapshot`'s tables and triggers."""
    connection = connect()
    snapshot.backup(connection)
    return connection


def contents(connection: sqlite3.Connection, schema: Schema) -> dict[str, dict]:
    """Every table as {x: (value per function, in schema order)}."""
    tables = {}
    for set_def in schema.sets:
        names = [fn.name for fn in schema.functions_of(set_def.name)]
        columns = ", ".join(f"[{n}]" for n in ["x"] + names)
        tables[set_def.name] = {
            row[0]: row[1:]
            for row in connection.execute(f"SELECT {columns} FROM [{set_def.name}]")
        }
    return tables


class Replica:
    """SQLite side of a replay: its own handles and row-id counters.

    apply() returns True when SQLite applied the statement and False when
    a trigger, a foreign key or NOT NULL refused it, or the named row does
    not exist. Any other SQLite error propagates.
    """

    def __init__(self, schema: Schema, connection: sqlite3.Connection):
        self.connection = connection
        self.next_id = {s.name: 1 for s in schema.sets}
        self.handles: dict[str, RowId] = {}

    def fork(self, connection: sqlite3.Connection) -> "Replica":
        other = copy.copy(self)
        other.connection = connection
        other.next_id = dict(self.next_id)
        other.handles = dict(self.handles)
        return other

    def _ref(self, value):
        if isinstance(value, HandleRef):
            row = self.handles.get(value.name)
            if row is None:
                raise LookupError(value.name)
            return row.x
        if isinstance(value, RowId):
            return value.x
        return value

    def apply(self, m: Mutation) -> bool:
        try:
            args = [self._ref(b.value) for b in m.bindings]
            target = None if m.row_ref is None else self._ref(m.row_ref)
        except LookupError:
            return False
        names = [f"[{b.function}]" for b in m.bindings]
        try:
            if m.action is Action.INSERT:
                x = self.next_id[m.set_name]
                columns = ", ".join(["[x]", *names])
                marks = ", ".join("?" * (len(args) + 1))
                self.connection.execute(
                    f"INSERT INTO [{m.set_name}] ({columns}) VALUES ({marks})",
                    [x, *args],
                )
                self.next_id[m.set_name] = x + 1
                if m.handle:
                    self.handles[m.handle] = RowId(m.set_name, x)
                return True
            set_name = self._set_of(m.row_ref)
            if m.action is Action.UPDATE:
                assignments = ", ".join(f"{n} = ?" for n in names)
                cursor = self.connection.execute(
                    f"UPDATE [{set_name}] SET {assignments} WHERE [x] = ?",
                    [*args, target],
                )
            else:
                cursor = self.connection.execute(
                    f"DELETE FROM [{set_name}] WHERE [x] = ?", (target,)
                )
            return cursor.rowcount == 1
        except sqlite3.IntegrityError:
            return False

    def _set_of(self, ref) -> str:
        if isinstance(ref, RowId):
            return ref.set_name
        return self.handles[ref.name].set_name
