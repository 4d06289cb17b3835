"""Run the DLookups of a paper-style link handler on SQLite.

A link block reads the new head into `w` and the id of a witness into
`v`, and cancels when both are set. This module evaluates the block's two
assignments the way Access would, over the expressions the goldens use:
VBA string literals (`""` is a quote), `&`, the variables `x`, `w` and
the edited control, `Replace(a, b, c)`, and `DLookup(col, table,
criteria)`, run as `SELECT col FROM table WHERE criteria LIMIT 1`. The
block's guard is taken as passed; only `Not IsNull(w)` and `Not
IsNull(v)` are evaluated. The database holds codegen's table units and
the engine's rows.
"""

from __future__ import annotations

import re
import sqlite3

from funcdiag.codegen import Dialect, emit_units
from funcdiag.model import Occurrence
from funcdiag.store import Database

from test_sql_harness import install

_TOKEN_RE = re.compile(r'\s*(?:"((?:[^"]|"")*)"|(\w+)|(\S))')


def connect(db: Database) -> sqlite3.Connection:
    """An in-memory database holding codegen's tables and `db`'s rows."""
    schema = db.schema
    tables = [u for u in emit_units(schema, (), "all", Dialect.GENERIC_SQL) if u.role == "table"]
    return install(sqlite3.connect(":memory:"), schema, tables, db)


def block(body: str, occ: Occurrence) -> tuple[str, str]:
    """The expressions assigned to `w` and to `v` in `occ`'s block of a
    link-check unit body. Past its guard the block must test only `Not
    IsNull(w)` and then `Not IsNull(v)`, the tests `cancels` makes."""
    header = f"' {occ.constraint.id}: {occ.side.value} position {occ.position} of "
    lines = body.split("\n")
    start = next(k for k, line in enumerate(lines) if line.startswith(header))
    statements = []
    for line in lines[start + 1 :]:
        if line.startswith(("'", "End Sub")):
            break
        statements.append(line.strip())
    conditions = [s[len("If ") : -len(" Then")] for s in statements if s.startswith("If ")]
    assert conditions[1:] == ["Not IsNull(w)", "Not IsNull(v)"], conditions
    assigned = [s for s in statements if s.startswith(("w = ", "v = "))]
    assert [s[0] for s in assigned] == ["w", "v"], assigned
    return assigned[0][4:], assigned[1][4:]


def cancels(
    expressions: tuple[str, str], connection: sqlite3.Connection, variables: dict
) -> bool:
    """Whether the block whose `w` and `v` are `expressions` cancels, with
    `variables` naming `x` and the edited control."""
    w_expression, v_expression = expressions
    w = evaluate(w_expression, connection, variables)
    if w is None:
        return False
    return evaluate(v_expression, connection, {**variables, "w": w}) is not None


def evaluate(expression: str, connection: sqlite3.Connection, variables: dict):
    """The value of one VBA expression; None for Null."""
    tokens = [m.groups() for m in _TOKEN_RE.finditer(expression)]
    value, end = _concat(tokens, 0, connection, variables)
    assert end == len(tokens), expression
    return value


def _concat(tokens, k, connection, variables):
    value, k = _term(tokens, k, connection, variables)
    while k < len(tokens) and tokens[k][2] == "&":
        right, k = _term(tokens, k + 1, connection, variables)
        # VBA's & reads Null as the empty string
        value = ("" if value is None else str(value)) + ("" if right is None else str(right))
    return value, k


def _term(tokens, k, connection, variables):
    literal, name, symbol = tokens[k]
    if literal is not None:
        return literal.replace('""', '"'), k + 1
    assert name is not None, f"unexpected {symbol!r}"
    if k + 1 == len(tokens) or tokens[k + 1][2] != "(":
        return variables[name], k + 1
    args, k = [], k + 2
    while True:
        value, k = _concat(tokens, k, connection, variables)
        args.append(value)
        k += 1
        if tokens[k - 1][2] == ")":
            break
        assert tokens[k - 1][2] == ",", tokens[k - 1]
    if name == "Replace":
        text, find, replacement = args
        return None if text is None else str(text).replace(find, replacement), k
    assert name == "DLookup", name
    column, table, criteria = args
    found = connection.execute(f"SELECT {column} FROM {table} WHERE {criteria} LIMIT 1").fetchone()
    return None if found is None else found[0], k
