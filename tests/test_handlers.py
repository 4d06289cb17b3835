"""engine.apply_mutation, which runs each insert and update through the
handler of its statement shape, against the row-at-a-time reference
(tests/rowwise_engine.py) on programmatic statements.

`statements` draws inserts and updates on every set of a schema, binding
a random selection of its functions in a random order, sometimes one of
them twice (dict semantics: the first position, the last value) and
sometimes a function or a set the schema lacks. Each position takes a
value of one kind at random: one the function accepts, null, a bool, a
float, an integer out of the 64-bit range, text, an integer, a RowId of
another set, a RowId whose id is 0, -1, True, past the end or a dead
row's, a handle bound to a row, or a handle bound to none; an update's row
is any of those rows or handles, or names none, and now and then an
insert names one too. Every statement goes
through the engine on one store and through the reference on a clone,
each with its own copy of the handles; the verdicts, their violations and
messages, the rows_inspected each counts, the stores' snapshots and the
handles must agree after every statement. A CI step sweeps randgen seeds
0-499 from consistent and inconsistent starts with `compare`.
"""

from __future__ import annotations

import random

import pytest

from funcdiag.dsl import Action, Binding, HandleRef, Mutation
from funcdiag.engine import apply_mutation
from funcdiag.store import Database, RowId

import rowwise_engine
import store_layout
from test_differential import _fixture_start, _start
from test_kernels import KEYWORDS, SELF_LINK, _seeded

STATEMENTS = 40
STATES = range(8)
UNBOUND = HandleRef("nowhere")


STARTS = {
    "geography": lambda seed: _fixture_start("geography"),
    "neighbors": lambda seed: _fixture_start("neighbors"),
    "keywords": lambda seed: _seeded(KEYWORDS, seed),
    "self-link": lambda seed: _seeded(SELF_LINK, seed),
}


def _kill_a_row(rng: random.Random, db: Database) -> None:
    """Delete one row no other row links to, if the store has one."""
    rows = [row for s in db.schema.sets for row in db.rows(s.name)]
    rng.shuffle(rows)
    for row in rows:
        if apply_mutation(db, Mutation(Action.DELETE, row_ref=row)).applied:
            return


def _handles(rng: random.Random, db: Database) -> dict[str, RowId]:
    """A handle per set, bound to one of its rows, and one to a dead row."""
    handles = {}
    for set_def in db.schema.sets:
        s = set_def.name
        if rows := db.rows(s):
            handles[f"live_{s}"] = rng.choice(rows)
        for x in range(1, store_layout.next_id(db, s)):
            if not db.row_exists(RowId(s, x)):
                handles["dead"] = RowId(s, x)
    return handles


def _rows(rng: random.Random, db: Database, set_name: str, handles: dict) -> list:
    """Rows and row references of every kind for set_name: live ones, a
    handle to one, ids 0, -1 and True, one past the end and a dead one."""
    live = list(db.rows(set_name))
    past = RowId(set_name, (live[-1].x if live else 0) + 1 + rng.randint(0, 2))
    kinds = [RowId(set_name, 0), RowId(set_name, -1), RowId(set_name, True), past, UNBOUND]
    kinds += [HandleRef(name) for name, row in handles.items() if row.set_name == set_name]
    if "dead" in handles:
        kinds.append(handles["dead"])
    return live * 3 + kinds


def _value(rng: random.Random, db: Database, fn, handles: dict):
    """A value for function `fn`: half the time one it takes, else one of
    any kind."""
    if fn is not None and rng.random() < 0.5:
        if fn.is_link:
            rows = db.rows(fn.codomain)
            return rng.choice(rows) if rows else None
        return rng.choice(("red", "blue")) if fn.codomain.value == "text" else rng.randint(0, 2)
    other = rng.choice([s.name for s in db.schema.sets])
    scalars = [None, True, False, 1.5, 2**63, -(2**63) - 1, "text", 7]
    return rng.choice([*scalars, *_rows(rng, db, other, handles), *map(HandleRef, handles)])


def statements(rng: random.Random, db: Database, handles: dict, count: int):
    """`count` random inserts and updates on `db`'s schema, drawn as the
    module docstring says, each from the store as it stands when drawn."""
    schema = db.schema
    for n in range(count):
        set_name = rng.choice([s.name for s in schema.sets])
        functions = list(schema.functions_of(set_name))
        if rng.random() < 0.7:
            chosen = [fn for fn in functions if not fn.nullable or rng.random() < 0.5]
        else:
            chosen = rng.sample(functions, rng.randint(0, len(functions)))
        rng.shuffle(chosen)
        bindings = [Binding(fn.name, _value(rng, db, fn, handles)) for fn in chosen]
        if bindings and rng.random() < 0.15:  # one function bound twice
            again = rng.choice(chosen)
            twice = Binding(again.name, _value(rng, db, again, handles))
            bindings.insert(rng.randint(0, len(bindings)), twice)
        if rng.random() < 0.05:
            unknown = Binding("Missing", _value(rng, db, None, handles))
            bindings.insert(rng.randint(0, len(bindings)), unknown)
        row = rng.choice([*_rows(rng, db, set_name, handles), None])
        if rng.random() < 0.03:
            set_name, row = "NOWHERE", RowId("NOWHERE", 1)
        if rng.random() < 0.5:
            handle = f"new{n}" if rng.random() < 0.5 else None
            named = row if rng.random() < 0.1 else None  # resolved for its errors alone
            yield Mutation(Action.INSERT, set_name, named, tuple(bindings), handle)
        else:
            yield Mutation(Action.UPDATE, row_ref=row, bindings=tuple(bindings))


def compare(rng: random.Random, db: Database, count: int = STATEMENTS) -> list[str]:
    """Replay `count` statements through the engine on `db` and through the
    reference on a clone; every difference, described."""
    _kill_a_row(rng, db)
    handles = _handles(rng, db)
    reference, reference_handles = db.clone(share_counter=False), dict(handles)
    differences = []
    for m in statements(rng, db, handles, count):
        counted, reference_counted = db.rows_inspected, reference.rows_inspected
        verdict = apply_mutation(db, m, handles)
        expected = rowwise_engine.apply_mutation(reference, m, reference_handles)
        got = (verdict, [v.message for v in verdict.violations], db.rows_inspected - counted)
        wanted = (
            expected,
            [v.message for v in expected.violations],
            reference.rows_inspected - reference_counted,
        )
        if got != wanted or handles != reference_handles or db.snapshot() != reference.snapshot():
            differences.append(f"{m}: {got} != {wanted}")
    return differences


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("name", sorted(STARTS))
def test_handlers_match_the_reference_on_programmatic_statements(name, state):
    rng = random.Random(state)
    assert compare(rng, STARTS[name](state)) == []


@pytest.mark.parametrize("inconsistent", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_handlers_match_the_reference_on_random_schemas(seed, inconsistent):
    assert compare(*_start(seed, inconsistent)) == []


def test_the_statements_reach_every_outcome():
    """The drawn statements apply, reject on a check and refuse at the
    store, on inserts and on updates, and bind some function twice."""
    seen, twice = set(), 0
    for state in STATES:
        rng = random.Random(state)
        db = STARTS["geography"](state)
        handles = _handles(rng, db)
        for m in statements(rng, db, handles, STATEMENTS):
            names = [b.function for b in m.bindings]
            twice += len(set(names)) < len(names)
            verdict = apply_mutation(db, m, handles)
            store = any(v.constraint is None for v in verdict.violations)
            seen.add((m.action, verdict.outcome.value, store))
    assert twice
    for action in (Action.INSERT, Action.UPDATE):
        assert {(action, "applied", False), (action, "rejected", True)} <= seen
    assert (Action.UPDATE, "rejected", False) in seen or (Action.INSERT, "rejected", False) in seen
