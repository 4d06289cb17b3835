"""Replay fixture scripts against the emitted generic-SQL units.

Installs what codegen emits for the generic-sql dialect, every set's
table, the foreign-key pragma and then the domain and link-check
triggers, and re-executes every mutation the engine saw. The engine and
the trigger-guarded database must accept and reject the same statements
and end up with identical contents. No table layout is written here, and
the fixture scripts replay through exactly what `funcdiag gen --dialect
generic-sql` prints.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from funcdiag.cli import main
from funcdiag.codegen import Dialect, EmittedUnit, emit_units
from funcdiag.dsl import Action, Mutation, parse_schema, parse_script
from funcdiag.engine import apply_mutation, resolve_mutation
from funcdiag.model import (
    ConstraintKind,
    FunctionDef,
    IssueCode,
    RawChain,
    RawConstraint,
    ScalarType,
    Schema,
    SetDef,
    validate_diagram,
)
from funcdiag.store import Database, RowId, Value

import store_layout
from conftest import FIXTURES, fixture_text

EXTRA_GEOGRAPHY_MUTATIONS = """
// walk the rejection up every interior chain position
update @walps set Range = @himalaya expect reject ;
update @mbmassif set Subrange = @ghimalayas expect reject ;
update @montblanc set Group = @evgroup expect reject ;
// detach the river, regroup the mountain, then fail to reattach
update @danube set Mountain = null expect accept ;
update @montblanc set Group = @evgroup expect accept ;
update @danube set Mountain = @montblanc expect reject ;
update @danube set Mountain = @everest expect reject ;
update @danube set Continent = @asia expect accept ;
update @danube set Mountain = @everest expect accept ;
"""


def generic_sql_units(schema: Schema) -> list[EmittedUnit]:
    """Every generic-sql unit in emission order: the tables, then the checks."""
    return emit_units(schema, schema.constraints, "all", Dialect.GENERIC_SQL)


def install(
    connection: sqlite3.Connection,
    schema: Schema,
    units: list[EmittedUnit],
    db: Database | None = None,
) -> sqlite3.Connection:
    """Run the table units among `units`, copy in `db`'s rows if given
    (foreign keys are still off, so rows may name rows inserted after
    them), then run the other units, the foreign-key pragma among them."""
    for unit in units:
        if unit.role == "table":
            connection.executescript(unit.body)
    if db is not None:
        for set_name, table in sql_contents(db).items():
            marks = ", ".join("?" * (len(schema.functions_of(set_name)) + 1))
            connection.executemany(
                f"INSERT INTO [{set_name}] VALUES ({marks})",
                [(x, *values) for x, values in table.items()],
            )
        connection.commit()
    for unit in units:
        if unit.role != "table":
            connection.executescript(unit.body)
    return connection


def to_sql_value(value):
    if isinstance(value, RowId):
        return value.x
    return value


def sql_contents(db: Database) -> dict[str, dict]:
    """The engine's tables as SQLite rows: {set: {x: values in schema order}}."""
    tables = {}
    for set_name, table in db.snapshot()["tables"].items():
        functions = db.schema.functions_of(set_name)
        tables[set_name] = {
            x: tuple(to_sql_value(values[fn.name]) for fn in functions)
            for x, values in table.items()
        }
    return tables


def contents(connection: sqlite3.Connection, schema: Schema) -> dict[str, dict]:
    """Every SQLite table as {x: values in schema order}."""
    tables = {}
    for set_def in schema.sets:
        names = ["x"] + [fn.name for fn in schema.functions_of(set_def.name)]
        columns = ", ".join(f"[{n}]" for n in names)
        tables[set_def.name] = {
            row[0]: row[1:]
            for row in connection.execute(f"SELECT {columns} FROM [{set_def.name}]")
        }
    return tables


def sql_apply(
    connection: sqlite3.Connection,
    m: Mutation,
    values: dict[str, Value],
    row: RowId | None,
    next_x: int | None,
) -> bool:
    """Run `m`, resolved into `values` and `row` by resolve_mutation, as its
    own transaction; False when SQLite refuses it. An insert gets row id
    `next_x`, as the store would give."""
    try:
        with connection:
            if m.action is Action.INSERT:
                names = list(values)
                columns = ", ".join(f"[{n}]" for n in ["x"] + names)
                marks = ", ".join("?" for _ in range(len(names) + 1))
                args = [next_x] + [to_sql_value(values[n]) for n in names]
                connection.execute(
                    f"INSERT INTO [{m.set_name}] ({columns}) VALUES ({marks})",
                    args,
                )
            elif m.action is Action.UPDATE:
                names = list(values)
                assignments = ", ".join(f"[{n}] = ?" for n in names)
                args = [to_sql_value(values[n]) for n in names]
                connection.execute(
                    f"UPDATE [{row.set_name}] SET {assignments} WHERE [x] = ?",
                    args + [row.x],
                )
            else:
                connection.execute(
                    f"DELETE FROM [{row.set_name}] WHERE [x] = ?",
                    (row.x,),
                )
        return True
    except sqlite3.Error:
        return False


def replay(schema: Schema, script: str, connection: sqlite3.Connection | None = None) -> int:
    """Assert the engine and `connection` (by default generic_sql_units
    installed) agree on every statement and on the final tables; return
    the number of statements."""
    mutations, diagnostics = parse_script(script, schema)
    assert mutations is not None, diagnostics

    db = Database(schema)
    handles: dict[str, RowId] = {}
    if connection is None:
        connection = install(sqlite3.connect(":memory:"), schema, generic_sql_units(schema))

    for index, m in enumerate(mutations):
        resolved = resolve_mutation(m, handles)
        next_x = store_layout.next_id(db, m.set_name)
        verdict = apply_mutation(db, m, handles)
        sql_applied = sql_apply(connection, m, *resolved, next_x)
        assert sql_applied == verdict.applied, (
            f"statement {index} (line {m.line}): engine={verdict.outcome.value},"
            f" sqlite={'applied' if sql_applied else 'rejected'}"
        )
        if m.expectation is not None:
            assert (m.expectation.value == "accept") == verdict.applied

    assert contents(connection, schema) == sql_contents(db)
    connection.close()
    return len(mutations)


def gen_sql(schema_path: Path) -> sqlite3.Connection:
    """An empty database that ran the stdout of `funcdiag gen
    <schema_path> --dialect generic-sql` and nothing else."""
    args = ["gen", str(schema_path), "--dialect", "generic-sql"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    connection = sqlite3.connect(":memory:")
    connection.executescript(result.stdout)
    return connection


def test_geography_replay_matches_engine(geography_schema):
    script = fixture_text("geography_ac1.fdm") + EXTRA_GEOGRAPHY_MUTATIONS
    replay(geography_schema, script, gen_sql(FIXTURES / "geography.fd"))


def test_neighbors_replay_matches_engine(neighbors_schema):
    script = fixture_text("neighbors_ac2.fdm") + (
        "update @germany set FrontierColor = \"blue\" expect accept ;\n"
        "update @spain set FrontierColor = \"blue\" expect accept ;\n"
        "insert NEIGHBOR_COUNTRIES (Pair = \"Germany-Spain\", Country = @germany,"
        " Neighbor = @spain) expect reject ;\n"
        "update @spain set FrontierColor = null expect accept ;\n"
        "insert NEIGHBOR_COUNTRIES (Pair = \"Germany-Spain\", Country = @germany,"
        " Neighbor = @spain) as de_es expect accept ;\n"
        "update @spain set FrontierColor = \"blue\" expect reject ;\n"
        # a self-neighbour pair: the recolor's trigger must read the new colour
        'insert COUNTRIES (Country = "Andorra") as andorra ;\n'
        'insert NEIGHBOR_COUNTRIES (Pair = "Andorra-Andorra", Country = @andorra,'
        " Neighbor = @andorra) expect accept ;\n"
        'update @andorra set FrontierColor = "blue" expect reject ;\n'
    )
    replay(neighbors_schema, script, gen_sql(FIXTURES / "neighbors.fd"))


# -- emitted names -----------------------------------------------------------

# Joined with "_", constraint x on Y_Z and constraint x_Y on Z both named
# their insert trigger x_Y_Z_row_ins, and a row source for a function
# named row took its domain check's file name.
UNDERSCORE_SCHEMA = """
schema Underscores ;
set W { name Label : text ; }
set Y_Z { name N : text ; row -> W ; Z -> Z ? ; }
set Z { name M : text ; W -> W ; row -> W ; Y -> Y_Z ? ; }
constraint x commutative on Y_Z { left = W . Z ; right = row ; }
constraint x_Y commutative on Z { left = row . Y ; right = row ; }
"""


def test_names_built_from_identifiers_holding_underscores_do_not_collide():
    schema, diagnostics = parse_schema(UNDERSCORE_SCHEMA)
    assert schema is not None, diagnostics
    # four row sources, or the foreign-key pragma and three tables; and
    # four checks
    for dialect, count in ((Dialect.PAPER_STYLE, 8), (Dialect.GENERIC_SQL, 8)):
        units = emit_units(schema, schema.constraints, "all", dialect)
        assert len({unit.filename for unit in units}) == len(units) == count
    connection = install(sqlite3.connect(":memory:"), schema, generic_sql_units(schema))
    triggers = connection.execute("SELECT name FROM sqlite_master WHERE type = 'trigger'")
    assert sorted(name for (name,) in triggers) == [
        "x.Y_Z.ins",
        "x.Y_Z.upd",
        "x.Z.W.left1",
        "x_Y.Y_Z.row.left1",
        "x_Y.Z.ins",
        "x_Y.Z.upd",
    ]
    connection.close()
    # every trigger of both constraints fires where the engine rejects
    replay(
        schema,
        'insert W (Label = "a") as a ;\n'
        'insert W (Label = "b") as b ;\n'
        'insert Y_Z (N = "p", row = @a) as p ;\n'
        'insert Z (M = "q", W = @a, row = @a, Y = @p) as q ;\n'
        "update @p set Z = @q expect accept ;\n"
        'insert Z (M = "r", W = @b, row = @a, Y = @p) expect accept ;\n'
        'insert Z (M = "s", W = @b, row = @b, Y = @p) expect reject ;\n'
        "update @p set row = @b expect reject ;\n"
        "update @q set W = @b expect reject ;\n",
    )


# -- names SQLite cannot tell apart -------------------------------------------


def api_schema(
    sets: dict[str, list[tuple[str, ScalarType | str]]],
    constraints: tuple[RawConstraint, ...] = (),
) -> Schema:
    """A schema built without the DSL: each set's first function is its
    name attribute, and every function is nullable."""
    schema = Schema(
        "P",
        tuple(SetDef(name, functions[0][0]) for name, functions in sets.items()),
        tuple(
            FunctionDef(fn, name, codomain, nullable=True)
            for name, functions in sets.items()
            for fn, codomain in functions
        ),
    )
    resolved = []
    for raw in constraints:
        constraint, issues = validate_diagram(schema, raw)
        assert constraint is not None, issues
        resolved.append(constraint)
    return Schema(schema.name, schema.sets, schema.functions, tuple(resolved))


def chain_pair(
    constraint_id: str, kind: ConstraintKind = ConstraintKind.COMMUTATIVE
) -> RawConstraint:
    """N . F against N . G on S, as CLASHING_IDS declares them."""
    return RawConstraint(
        constraint_id, kind, "S", RawChain(("N", "F")), RawChain(("N", "G"))
    )


TEXT, INTEGER = ScalarType.TEXT, ScalarType.INTEGER
CLASHING_IDS = """schema P ;
set T { name N : text ; }
set S { name N : text ; F -> T ? ; G -> T ? ; }
constraint k1 commutative on S { left = N . F ; right = N . G ; }
constraint K1 anticommutative on S { left = N . F ; right = N . G ; }
"""


@pytest.mark.parametrize(
    "sets, constraints, source, diagnostic",
    [
        pytest.param(
            {"S": [("N", TEXT), ("x", INTEGER)]},
            (),
            "schema P ;\nset S { name N : text ; x : integer ? ; }\n",
            "2:25: error [reserved-name] function name 'x' is reserved:"
            " generated code names every row's key column x",
            id="function-x",
        ),
        pytest.param(
            {"S": [("N", TEXT), ("X", TEXT)]},
            (),
            "schema P ;\nset S { name N : text ; X : text ? ; }\n",
            "2:25: error [reserved-name] function name 'X' is reserved:"
            " generated code names every row's key column x",
            id="function-X",
        ),
        pytest.param(
            {"A": [("N", TEXT)], "a": [("N", TEXT)]},
            (),
            "schema P ;\nset A { name N : text ; }\nset a { name N : text ; }\n",
            "3:5: error [duplicate-set] set 'a' differs from set 'A' only in case",
            id="sets",
        ),
        pytest.param(
            {"S": [("N", TEXT), ("Color", TEXT), ("color", TEXT)]},
            (),
            "schema P ;\nset S { name N : text ; Color : text ? ; color : text ? ; }\n",
            "2:42: error [duplicate-function] function 'color' differs from"
            " function 'Color' on set 'S' only in case",
            id="functions",
        ),
        pytest.param(
            {"T": [("N", TEXT)], "S": [("N", TEXT), ("F", "T"), ("G", "T")]},
            (chain_pair("k1"), chain_pair("K1", ConstraintKind.ANTI_COMMUTATIVE)),
            CLASHING_IDS,
            "5:12: error [duplicate-constraint] constraint 'K1' differs from"
            " constraint 'k1' only in case",
            id="constraint-ids",
        ),
        pytest.param(
            {"SQLite_A": [("N", TEXT)]},
            (),
            "schema P ;\nset SQLite_A { name N : text ; }\n",
            "2:5: error [reserved-name] set name 'SQLite_A' is reserved:"
            " SQLite keeps names that start with sqlite_",
            id="set-sqlite_",
        ),
        pytest.param(
            {"T": [("N", TEXT)], "S": [("N", TEXT), ("F", "T"), ("G", "T")]},
            (chain_pair("sqlite_k1"),),
            CLASHING_IDS.split("constraint K1")[0].replace("k1", "sqlite_k1"),
            "4:12: error [reserved-name] constraint id 'sqlite_k1' is reserved:"
            " SQLite keeps names that start with sqlite_",
            id="constraint-sqlite_",
        ),
    ],
)
def test_names_sqlite_cannot_tell_apart_are_refused(sets, constraints, source, diagnostic):
    # SQLite would refuse the emitted DDL or triggers of each, so neither
    # the parser nor the API admits one
    parsed, diagnostics = parse_schema(source)
    assert parsed is None
    assert [d.render() for d in diagnostics] == [diagnostic]
    with pytest.raises(ValueError) as refused:
        api_schema(sets, constraints)
    assert str(refused.value) == diagnostics[0].message


def test_names_apart_only_in_non_ascii_case_are_accepted():
    # SQLite folds only ASCII letters in names, so these pairs install
    schema, diagnostics = parse_schema(
        "schema P ;\n"
        "set É { name N : text ; Ü : text ? ; ü : text ? ; }\n"
        "set é { name N : text ; Up -> É ; Down -> É ; }\n"
        "constraint ç commutative on é { left = N . Up ; right = N . Down ; }\n"
        "constraint Ç anticommutative on é { left = Ü . Up ; right = ü . Down ; }\n"
    )
    assert schema is not None, diagnostics
    assert [s.name for s in schema.sets] == ["É", "é"]
    assert [fn.name for fn in schema.functions_of("É")] == ["N", "Ü", "ü"]
    assert [c.id for c in schema.constraints] == ["ç", "Ç"]
    replay(
        schema,
        'insert É (N = "a", Ü = "u", ü = "v") as a ;\n'
        'insert É (N = "b", Ü = "v", ü = "u") as b ;\n'
        'insert é (N = "c", Up = @a, Down = @b) expect reject ;\n'
        'insert é (N = "c", Up = @a, Down = @a) as c expect accept ;\n'
        'update @b set N = "a" ;\n'
        "update @c set Down = @b expect reject ;\n"
        'update @b set ü = "w" ;\n'
        "update @c set Down = @b expect accept ;\n"
        'update @b set ü = "u" expect reject ;\n',
    )


def test_functions_named_sqlite_are_accepted_and_install():
    # SQLite reserves sqlite_... names for its own tables, indexes and
    # triggers, not for columns; an index named after a link, [S.sqlite_f...],
    # installs
    schema, diagnostics = parse_schema(
        "schema P ;\n"
        "set T { name N : text ; }\n"
        "set S { name N : text ; sqlite_f -> T ; SQLITE_g -> T ; }\n"
        "constraint k commutative on S { left = N . sqlite_f ; right = N . SQLITE_g ; }\n"
    )
    assert schema is not None, diagnostics
    connection = install(sqlite3.connect(":memory:"), schema, generic_sql_units(schema))
    names = [name for (name,) in connection.execute("SELECT name FROM sqlite_master")]
    assert any(name.startswith("S.sqlite_f") for name in names)
    replay(
        schema,
        'insert T (N = "a") as a ;\n'
        'insert T (N = "b") as b ;\n'
        'insert S (N = "s", sqlite_f = @a, SQLITE_g = @b) expect reject ;\n'
        'insert S (N = "s", sqlite_f = @a, SQLITE_g = @a) as s expect accept ;\n'
        "update @s set sqlite_f = @b expect reject ;\n",
        connection,
    )


# -- self-referencing deletes -------------------------------------------------

SELF_LINK_SCHEMA = """
schema Tree ;
set NODES { name Label : text ; Parent -> NODES ? ; Twin -> NODES ? ; }
"""


def test_delete_of_row_referencing_only_itself_matches_sqlite():
    schema, diagnostics = parse_schema(SELF_LINK_SCHEMA)
    assert schema is not None, diagnostics
    replay(
        schema,
        'insert NODES (Label = "root") as root ;\n'
        "update @root set Parent = @root, Twin = @root ;\n"
        'insert NODES (Label = "leaf", Parent = @root) as leaf ;\n'
        "delete @root expect reject ;\n"
        "update @leaf set Parent = @leaf ;\n"
        "delete @root expect accept ;\n"
        "delete @leaf expect accept ;\n",
    )


def test_generated_sql_alone_refuses_to_delete_a_referenced_row(tmp_path):
    # the emitted pragma, not the installing connection, switches foreign
    # keys on, so `gen` stdout alone refuses what the store refuses
    schema, diagnostics = parse_schema(SELF_LINK_SCHEMA)
    assert schema is not None, diagnostics
    source = tmp_path / "tree.fd"
    source.write_text(SELF_LINK_SCHEMA, encoding="utf-8")
    replay(
        schema,
        'insert NODES (Label = "root") as root ;\n'
        'insert NODES (Label = "leaf", Parent = @root) ;\n'
        "delete @root expect reject ;\n",
        gen_sql(source),
    )


# -- reverse-walk indexes -----------------------------------------------------

# (table, indexed columns) of each hop: an intermediate hop's link column,
# and the domain hop's link column with the other chain's innermost column
GEOGRAPHY_WALK = [
    ("MOUNT_SUBRANGES", ("Range",)),
    ("MOUNT_GROUPS", ("Subrange",)),
    ("MOUNTAINS", ("Group",)),
    ("RIVERS", ("Mountain", "Continent")),
]
WALKED_COLUMNS = {
    "geography": set(GEOGRAPHY_WALK),
    # both sides' triggers live in the one unit on COUNTRIES.FrontierColor
    "neighbors": {
        ("NEIGHBOR_COUNTRIES", ("Country", "Neighbor")),
        ("NEIGHBOR_COUNTRIES", ("Neighbor", "Country")),
    },
}


def indexed_columns(connection: sqlite3.Connection) -> Counter:
    """(table, columns in index order) of every index made by CREATE
    INDEX, with its count."""
    columns: Counter = Counter()
    tables = connection.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
    for (table,) in tables.fetchall():
        for _, index, _, origin, _ in connection.execute(f"PRAGMA index_list([{table}])"):
            if origin == "c":
                info = connection.execute(f"PRAGMA index_info([{index}])").fetchall()
                columns[(table, tuple(column for _, _, column in sorted(info)))] += 1
    return columns


@pytest.mark.parametrize("fixture", sorted(WALKED_COLUMNS))
def test_one_index_per_walked_column_in_any_install_order(fixture):
    schema, _ = parse_schema(fixture_text(f"{fixture}.fd"))
    units = generic_sql_units(schema)
    expected = Counter(WALKED_COLUMNS[fixture])
    for order in (units, units[::-1]):
        connection = install(sqlite3.connect(":memory:"), schema, order)
        assert indexed_columns(connection) == expected
        # reinstalling after dropping the triggers adds no second index
        triggers = connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'trigger'"
        ).fetchall()
        for (name,) in triggers:
            connection.execute(f"DROP TRIGGER [{name}]")
        for unit in order:
            if unit.role != "table":
                connection.executescript(unit.body)
        assert indexed_columns(connection) == expected
        connection.close()


def test_each_link_check_unit_installs_alone_with_its_own_indexes(geography_schema):
    walk = GEOGRAPHY_WALK
    units = generic_sql_units(geography_schema)
    tables = [u for u in units if u.role == "table"]
    links = [u for u in units if u.role == "link-check"]
    assert len(links) == len(walk)
    for position, unit in enumerate(links, 1):
        connection = install(sqlite3.connect(":memory:"), geography_schema, [*tables, unit])
        assert indexed_columns(connection) == Counter(walk[position - 1 :])
        connection.close()


def test_a_link_two_hops_search_gets_one_covering_index():
    # S.F is c1's domain hop, whose other column is G, and an intermediate
    # hop of c2's walk from P.N; the intermediate hop takes [S.F.G] too
    schema, diagnostics = parse_schema(
        "schema T ;\n"
        "set P { name N : text ; }\n"
        "set S { name M : text ; F -> P ? ; G -> P ? ; }\n"
        "set D { name K : text ; H -> S ? ; J -> P ? ; }\n"
        "constraint c1 commutative on S { left = N . F ; right = N . G ; }\n"
        "constraint c2 commutative on D { left = N . F . H ; right = N . J ; }\n"
    )
    assert schema is not None, diagnostics
    expected = Counter(
        [("S", ("F", "G")), ("S", ("G", "F")), ("D", ("H", "J")), ("D", ("J", "H"))]
    )
    units = generic_sql_units(schema)
    connection = install(sqlite3.connect(":memory:"), schema, units)
    assert indexed_columns(connection) == expected
    connection.close()
    # each unit alone still creates every index it searches
    (c2_walk,) = [u for u in units if u.constraint_id == "c2" and u.target_set == "P"]
    tables = [u for u in units if u.role == "table"]
    connection = install(sqlite3.connect(":memory:"), schema, [*tables, c2_walk])
    assert indexed_columns(connection) == expected - Counter([("S", ("G", "F"))])
    connection.close()


def test_index_names_stay_distinct_when_underscores_could_collide():
    # A_B.C and A.B_C would both be "A_B_C" if joined with "_"
    schema, diagnostics = parse_schema(
        "schema T ;\n"
        "set P { name N : text ; }\n"
        "set A_B { name N : text ; C -> P ; }\n"
        "set A { name N : text ; B_C -> P ; }\n"
        "set D { name N : text ; Y -> A_B ; Z -> A ; }\n"
        "constraint c commutative on D { left = N . C . Y ; right = N . B_C . Z ; }\n"
    )
    assert schema is not None, diagnostics
    connection = install(sqlite3.connect(":memory:"), schema, generic_sql_units(schema))
    assert indexed_columns(connection) == Counter(
        [("A_B", ("C",)), ("A", ("B_C",)), ("D", ("Y", "Z")), ("D", ("Z", "Y"))]
    )
    indexes = connection.execute("SELECT name FROM sqlite_master WHERE type = 'index'")
    assert sorted(name for (name,) in indexes) == ["A.B_C", "A_B.C", "D.Y.Z", "D.Z.Y"]
    connection.close()


# -- link-trigger work does not grow with the table ---------------------------


def vm_steps_of_regroup(schema: Schema, fillers: int) -> dict[str, int]:
    """VM steps SQLite spends on two accepted interior-link updates over
    one mountain with three rivers, next to `fillers` unrelated mountains
    and rivers."""
    units = generic_sql_units(schema)
    connection = install(sqlite3.connect(":memory:", isolation_level=None), schema, units)
    connection.executescript(
        "INSERT INTO CONTINENTS VALUES (1, 'Europe');"
        "INSERT INTO MOUNTAIN_RANGES VALUES (1, 'Alps', 1);"
        "INSERT INTO MOUNT_SUBRANGES VALUES (1, 'Western Alps', 1), (2, 'Eastern Alps', 1);"
        "INSERT INTO MOUNT_GROUPS VALUES (1, 'Mont Blanc massif', 1), (2, 'Fillers', 1);"
        "INSERT INTO MOUNTAINS VALUES (1, 'Mont Blanc', 1);"
        "INSERT INTO RIVERS VALUES (1, 'Arve', 1, 1), (2, 'Dora', 1, 1), (3, 'Isere', 1, 1);"
    )
    connection.executemany(
        "INSERT INTO MOUNTAINS VALUES (?, ?, 2)",
        [(x, f"m{x}") for x in range(2, fillers + 2)],
    )
    connection.executemany(
        "INSERT INTO RIVERS VALUES (?, ?, 1, ?)",
        [(x, f"r{x}", x - 2) for x in range(4, fillers + 4)],
    )
    steps = 0

    def count() -> int:
        nonlocal steps
        steps += 1
        return 0

    connection.set_progress_handler(count, 1)
    result = {}
    for label, statement in (
        ("regroup mountain", "UPDATE MOUNTAINS SET [Group] = 2 WHERE x = 1"),
        ("move group", "UPDATE MOUNT_GROUPS SET [Subrange] = 2 WHERE x = 1"),
    ):
        steps = 0
        assert connection.execute(statement).rowcount == 1
        result[label] = steps
    connection.close()
    return result


def test_link_trigger_steps_do_not_grow_with_the_tables(geography_schema):
    small = vm_steps_of_regroup(geography_schema, 200)
    large = vm_steps_of_regroup(geography_schema, 2000)
    for label, steps in small.items():
        # a full scan of RIVERS or MOUNTAINS would grow ~10x
        assert large[label] < 2 * steps, (label, steps, large[label])


def vm_steps_of_rejected_continent_move(schema: Schema, mountains: int) -> int:
    """VM steps SQLite spends refusing to move the one range, whose
    `mountains` mountains each have one river, to another continent:
    every river is a witness."""
    units = generic_sql_units(schema)
    connection = install(sqlite3.connect(":memory:", isolation_level=None), schema, units)
    connection.executescript(
        "INSERT INTO CONTINENTS VALUES (1, 'Europe'), (2, 'Asia');"
        "INSERT INTO MOUNTAIN_RANGES VALUES (1, 'Alps', 1);"
        "INSERT INTO MOUNT_SUBRANGES VALUES (1, 'Western Alps', 1);"
        "INSERT INTO MOUNT_GROUPS VALUES (1, 'Mont Blanc massif', 1);"
    )
    connection.executemany(
        "INSERT INTO MOUNTAINS VALUES (?, ?, 1)", [(x, f"m{x}") for x in range(1, mountains + 1)]
    )
    connection.executemany(
        "INSERT INTO RIVERS VALUES (?, ?, 1, ?)",
        [(x, f"r{x}", x) for x in range(1, mountains + 1)],
    )
    steps = 0

    def count() -> int:
        nonlocal steps
        steps += 1
        return 0

    connection.set_progress_handler(count, 1)
    with pytest.raises(sqlite3.IntegrityError, match="must lie on the river's own continent"):
        connection.execute("UPDATE MOUNTAIN_RANGES SET Continent = 2 WHERE x = 1")
    connection.close()
    return steps


def test_rejected_link_move_stops_at_its_first_witness(geography_schema):
    # nested IN subqueries listed every mountain and river before testing
    # one; the flat join raises at the first river it reaches
    steps = [vm_steps_of_rejected_continent_move(geography_schema, n) for n in (10, 100, 1000)]
    assert steps[0] == steps[1] == steps[2], steps


# -- deep chains -------------------------------------------------------------


def deep_chain_source(n: int) -> str:
    """A commutative constraint on D whose left chain F1 . F2 ... Up has
    `n` functions, through sets L1 ... L(n-1), against the one function G."""
    links = ["set C { name N : text ; }"] + [
        f"set L{k} {{ name N : text ; F{k} -> {f'L{k - 1}' if k > 1 else 'C'} ? ; }}"
        for k in range(1, n)
    ]
    chain = " . ".join([f"F{k}" for k in range(1, n)] + ["Up"])
    return "\n".join(
        [
            "schema Deep ;",
            *links,
            f"set D {{ name N : text ; Up -> L{n - 1} ? ; G -> C ? ; }}",
            f"constraint deep commutative on D {{ left = {chain} ; right = G ; }}",
        ]
    )


def deep_chain(n: int) -> tuple[Schema, str]:
    """deep_chain_source(n)'s schema, and a script seeding two rows per L
    set, chain a ending at C row a and chain b at C row b, with one D row
    d on chain a."""
    schema, diagnostics = parse_schema(deep_chain_source(n))
    assert schema is not None, diagnostics
    script = ['insert C (N = "a") as a0 ;', 'insert C (N = "b") as b0 ;']
    for k in range(1, n):
        for row in "ab":
            script.append(f'insert L{k} (N = "{row}{k}", F{k} = @{row}{k - 1}) as {row}{k} ;')
    script.append(f'insert D (N = "d", Up = @a{n - 1}, G = @a0) as d expect accept ;')
    return schema, "\n".join(script) + "\n"


@pytest.mark.parametrize("n", [12, 21, 64, 65])
def test_deep_chains_install_and_agree_with_the_engine(n):
    """n + 1 - 2 = n - 1 tables per trigger, up to SQLite's 64."""
    schema, script = deep_chain(n)
    units = generic_sql_units(schema)
    # the pragma, the tables, the domain check, a unit per interior position
    assert len(units) == 1 + (n + 1) + n
    install(sqlite3.connect(":memory:"), schema, units).close()
    positions = (1, n // 2, n - 1)  # outermost, middle and innermost interior
    script += f'insert D (N = "e", Up = @a{n - 1}, G = @b0) expect reject ;\n'
    for p in positions:
        script += f"update @a{p} set F{p} = @b{p - 1} expect reject ;\n"
    # chain b reaches no D row, so moving its links is accepted
    for p in reversed(positions):
        script += f"update @b{p} set F{p} = @a{p - 1} expect accept ;\n"
    script += f"update @d set Up = @b{n - 1} expect accept ;\n"
    script += "update @d set G = @b0 expect reject ;\n"
    replay(schema, script)


def test_one_table_past_the_join_limit_is_refused_at_the_constraint():
    """At 66 functions against one, every trigger would join 65 tables, one
    past SQLite's limit, so the schema is refused with a diagnostic at the
    constraint's name that names the limit, and nothing is emitted."""
    source = deep_chain_source(66)
    schema, diagnostics = parse_schema(source)
    assert schema is None
    [diagnostic] = diagnostics
    assert diagnostic.code is IssueCode.JOIN_LIMIT
    line = source.split("\n")[diagnostic.line - 1]
    assert line.startswith("constraint deep ")
    assert line[diagnostic.column - 1 :].startswith("deep ")
    assert "66 + 1 functions" in diagnostic.message
    assert "join 65 tables" in diagnostic.message
    assert "SQLite joins at most 64" in diagnostic.message
