"""The engine's generated check kernels, shape by shape, against the
row-at-a-time reference.

Two small hand-built schemas cover the shapes the generator unrolls: a
head of 0, 1 or 2 hops; a reverse walk 1, 2 or 3 levels deep; interior
levels of the other chain that are nullable and that are not; a last
level that is nullable and one that is not; both constraint kinds, both
sides, a chain that revisits a set, and a self-link. Their sets and
functions are named like Python keywords and like the generator's own
local names, so a name spliced into a kernel's source would not compile
or would read the wrong object. On every live row and every value its
function may take, in a few seeded states, each link kernel must give the
reference's violations, in its witness order, and count the same
rows_inspected; each domain kernel must agree with the oracle's judge.
The store's writers and the engine's statement handlers are generated
the same way: every kernel, writer and handler bound for these schemas
and the two fixtures must hold only generated names and no string
constant but its qualified name, and its source must parse as Python
3.10; a clone binds its own of each.
"""

from __future__ import annotations

import ast
import random
import re
import types

import pytest

from funcdiag import engine, store
from funcdiag.dsl import Action, Binding, Mutation, parse_schema
from funcdiag.engine import apply_mutation, check_domain_row, check_link_update, dispatch
from funcdiag.model import ConstraintKind, Side
from funcdiag.oracle import judge_row
from funcdiag.store import Database

import rowwise_engine
from test_differential import FIXTURE_SCRIPTS, _fixture_start

# Keywords and the kernels' own names as sets, functions and constraints:
# set `rows` reaches set `lambda` through its function `rows`, and both
# chains of both constraints walk `class`'s `C`. In Revisits, the self-link
# `R0` is walked twice by one chain of S.
KEYWORDS = """
schema Kernels ;
set T { name Label : text ; V : integer ? ; }
set class { name Label : text ; C -> T ; }
set lambda { name Label : text ; head -> class ; }
set rows { name Label : text ; rows -> lambda ; }
set D { name Label : text ; F -> rows ; G -> lambda ? ; }
constraint K commutative on D { left = C . head . rows . F ; right = C . head . G ; }
constraint head anticommutative on D { left = V . C . head . G ; right = V . C . head . rows . F ; }
"""

SELF_LINK = """
schema Revisits ;
set P { name Label : text ; R0 -> P ? ; values : integer ; }
set Q { name Label : text ; n -> P ; H0 : integer ? ; }
constraint S commutative on Q { left = H0 ; right = values . R0 . R0 . n ; }
constraint mask anticommutative on Q { left = values . R0 . n ; right = H0 ; }
"""

SCHEMAS = {"keywords": KEYWORDS, "self-link": SELF_LINK}
SEEDS = range(4)


def _seeded(source: str, seed: int) -> Database:
    """A store of about five rows per set: links drawn among the rows of
    their target set (a self-link among its own, once all exist), nullable
    ones null a quarter of the time, integers from {1, 2}."""
    schema, diagnostics = parse_schema(source)
    assert schema is not None, diagnostics
    rng = random.Random(seed)
    db = Database(schema)

    def value(fn, own: bool):
        if fn.nullable and rng.random() < 0.25:
            return None
        if not fn.is_link:
            return rng.choice((1, 2)) if fn.codomain != "text" else "t"
        if own and fn.codomain == fn.domain:
            return None
        return rng.choice(db.rows(fn.codomain))

    for set_def in schema.sets:
        functions = schema.functions_of(set_def.name)
        for i in range(rng.randint(4, 6)):
            row = {fn.name: value(fn, True) for fn in functions}
            row["Label"] = f"{set_def.name}{i}"
            db.insert_row(set_def.name, row)
        for fn in functions:
            if fn.is_link and fn.codomain == fn.domain:
                for row in db.rows(set_def.name):
                    db.set_values(row, {fn.name: value(fn, False)})
    return db


def _candidates(db: Database, fn) -> list:
    """Every value a write of fn could leave: each live target row, or
    each value the column holds and one it does not, and null."""
    if fn.is_link:
        return [*db.rows(fn.codomain), None]
    held = {db.lookup(row, fn.name) for row in db.rows(fn.domain)} - {None}
    return [*sorted(held), 3, None]


def _counted(db: Database, check, *args):
    before = db.rows_inspected
    result = check(db, *args)
    return result, db.rows_inspected - before


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_link_kernels_match_the_row_at_a_time_reference(name, seed):
    db = _seeded(SCHEMAS[name], seed)
    shapes, outcomes = set(), set()
    for occurrences in dispatch(db.schema).values():
        for occ in occurrences:
            if not occ.reverse:
                continue
            shapes.add((occ.constraint.kind, occ.side, len(occ.head), len(occ.reverse)))
            fn = occ.constraint.chain(occ.side).functions[occ.position - 1]
            for r in db.rows(occ.set_name):
                for value in _candidates(db, fn):
                    got, counted = _counted(db, check_link_update, occ, r, value)
                    expected, reference_counted = _counted(
                        db, rowwise_engine.check_link_update, occ, r, value
                    )
                    where = f"{occ} at {r!r} taking {value!r}"
                    assert got == rowwise_engine.dedupe(expected), where
                    assert counted == reference_counted, where
                    outcomes.add((occ.constraint.id, bool(got)))
    # Every check both accepted and rejected somewhere in these states.
    assert outcomes == {(c.id, found) for c in db.schema.constraints for found in (False, True)}
    assert {head for *_, head, _ in shapes} >= {0, 1, 2}
    assert {depth for *_, depth in shapes} >= {1, 2, 3}
    assert {kind for kind, *_ in shapes} == set(ConstraintKind)
    assert {side for _, side, *_ in shapes} == set(Side)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_domain_kernels_match_the_oracles_judge(name, seed):
    db = _seeded(SCHEMAS[name], seed)
    for constraint in db.schema.constraints:
        for x in db.rows(constraint.domain_set):
            got = _counted(db, check_domain_row, constraint, x)
            assert got == _counted(db, judge_row, constraint, x), f"{constraint.id} at {x!r}"


def test_kernels_are_bound_per_store_and_the_clones_start_empty():
    """A clone starts with no kernels, writers or handlers and binds its
    own; a statement written on the clone reaches none of the original's
    lists or reverse indexes."""
    db = _seeded(KEYWORDS, 0)
    [occ, *_] = dispatch(db.schema)[("class", "C")]
    r = db.rows("class")[0]
    check_link_update(db, occ, r, db.rows("T")[0])
    insert = Mutation(
        Action.INSERT, "class", bindings=(Binding("C", db.rows("T")[1]), Binding("Label", "new"))
    )
    update = Mutation(Action.UPDATE, row_ref=r, bindings=(Binding("C", db.rows("T")[2]),))
    for m in (insert, update):
        apply_mutation(db, m)
    twin = db.clone()
    assert twin.kernels == twin.writers == twin.handlers == {}
    assert id(occ) in db.kernels and db.writers and db.handlers
    before = db.snapshot()
    check_link_update(twin, occ, r, db.rows("T")[0])
    assert apply_mutation(twin, insert).applied  # into a set no constraint reads
    apply_mutation(twin, update)
    assert db.snapshot() == before != twin.snapshot()
    for table in ("kernels", "writers", "handlers"):
        mine, theirs = getattr(db, table), getattr(twin, table)
        assert theirs and set(theirs) <= set(mine)
        assert not any(theirs[key] is mine[key] for key in theirs), table


# Names generated code may hold: the generated ones, Python's, and the
# helpers it calls. Schema names reach it as bound objects.
GENERATED = re.compile(
    r"[HRIABKLNFXYTPUZvbcro]\d+|F\d*|[CDLOSWQIranbxhsem_]"
    r"|head|rows|values|equal|mask|row|before|handles"
)
KNOWN = {
    "list", "map", "len", "sorted", "lookup", "rows_inspected", "sort", "count",
    "chain", "from_iterable", "__getitem__", "compress", "repeat", "eq", "ne", "_X",
    "_drop_nulls", "_link_violations", "_constraint_violation", "_not_in_domain",
    # writers
    "isinstance", "type", "int", "str", "bool", "RowId", "INT_MIN", "INT_MAX", "_new", "_slot",
    "append", "add", "discard", "_no_row", "_unknown", "_missing", "_not_null", "_not_a_row",
    "_other_set", "_dangling", "_not_text", "_not_integer", "_out_of_range",
    # handlers
    "bindings", "value", "name", "get", "handle", "HandleRef", "_unbound", "_REFUSALS",
    "_refused", "_reject", "Verdict", "_APPLIED",
}
BINDERS = (engine._domain_binder, engine._link_binder, engine._handler_binder, store._writer_binder)


STARTS = {
    **{name: lambda name=name: _seeded(SCHEMAS[name], 0) for name in SCHEMAS},
    **{name: lambda name=name: _fixture_start(name) for name in FIXTURE_SCRIPTS},
}


def _every_shape(db: Database) -> None:
    """Bind every kernel, and write statements of many shapes: on every
    set an insert binding all its functions backwards, one binding one of
    them twice, and an update of each function alone, of all of them, and
    of an unknown one."""
    for constraint in db.schema.constraints:
        for x in db.rows(constraint.domain_set):
            check_domain_row(db, constraint, x)
        for occ in constraint.occurrences:
            if occ.reverse:
                check_link_update(db, occ, db.rows(occ.set_name)[0], None)
    for set_def in db.schema.sets:
        row = db.rows(set_def.name)[0]
        image = db.read_row(row)
        bindings = [Binding(name, value) for name, value in image.items()]
        statements = [
            Mutation(Action.INSERT, set_def.name, bindings=tuple(bindings[::-1])),
            Mutation(Action.INSERT, set_def.name, bindings=(*bindings, bindings[0])),
            Mutation(Action.UPDATE, row_ref=row, bindings=tuple(bindings)),
            Mutation(Action.UPDATE, row_ref=row, bindings=(Binding("Missing", 1), *bindings)),
            *(Mutation(Action.UPDATE, row_ref=row, bindings=(b,)) for b in bindings),
        ]
        for m in statements:
            apply_mutation(db, m)


def _names_and_texts(code: types.CodeType) -> tuple[set[str], set[str]]:
    """Every identifier and every string constant of `code` and the code it nests."""
    names = {*code.co_names, *code.co_varnames, *code.co_freevars, *code.co_cellvars}
    texts = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            nested, nested_texts = _names_and_texts(const)
            names |= nested
            texts |= nested_texts
        elif isinstance(const, str):
            texts.add(const)
    return names, texts


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_kernel_code_holds_only_generated_names(name):
    """Every bound kernel, writer and handler holds only generated names
    and no string constant but its qualified name."""
    db = _seeded(SCHEMAS[name], 0)
    _every_shape(db)
    links = [occ for c in db.schema.constraints for occ in c.occurrences if occ.reverse]
    assert len(db.kernels) == len(db.schema.constraints) + len(links)
    assert len(db.handlers) >= 4 * len(db.schema.sets)
    functions = [*db.kernels.values(), *db.writers.values(), *db.handlers.values()]
    for function in functions:
        names, texts = _names_and_texts(function.__code__)
        assert {n for n in names if n not in KNOWN and not GENERATED.fullmatch(n)} == set()
        assert texts <= {function.__qualname__}


@pytest.mark.parametrize("name", sorted(STARTS))
def test_generated_sources_parse_as_python_3_10(name, monkeypatch):
    """tests/test_syntax_floor.py reads the files; this parses the source
    of every kernel, writer and handler generated for the schema, each
    generator's cache emptied first so that every shape is generated."""
    sources = []

    def recording(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(store, "compile", recording, raising=False)
    for binder in BINDERS:
        binder.cache_clear()
    db = STARTS[name]()
    _every_shape(db)
    kinds = {source.split("def ")[2].split("(")[0] for source in sources}
    assert kinds == {"check", "write", "handle"}
    for source in sources:
        ast.parse(source, feature_version=(3, 10))
