from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from funcdiag.codegen import (
    Dialect,
    emit_units,
    gen_domain_check,
    gen_link_checks,
    gen_row_source,
)
from funcdiag.dsl import parse_schema
from funcdiag.model import (
    ConstraintKind,
    DiagramConstraint,
    RawChain,
    ScalarType,
    Side,
    resolve_chain,
)

from conftest import fixture_text
from randgen import make_schema
from test_differential import SEEDS

_KEYWORDS_RE = re.compile(
    r"\b(select|from|right|join|on|order|by|as|where|in|and|or|not|is|null"
    r"|insert|into|values|update|set|delete|create|trigger|before|after|of"
    r"|for|each|row|when|begin|end|exists|raise|abort|distinct)\b",
    re.IGNORECASE,
)

_CONTINUATION_RE = re.compile(r"_[ \t]*\r?\n")
_WS_RE = re.compile(r"\s+")


def normalize_text(body: str) -> str:
    """Canonical form for golden comparison of emitted text.

    Removes trailing-underscore line continuations, strips square-bracket
    identifier quoting, uppercases keywords, and collapses whitespace
    runs. Idempotent.
    """
    text = _CONTINUATION_RE.sub(" ", body)
    text = text.replace("[", "").replace("]", "")
    text = _KEYWORDS_RE.sub(lambda m: m.group(0).upper(), text)
    return _WS_RE.sub(" ", text).strip()

GOLDEN_MOUNTAIN_ROW_SOURCE = """
SELECT MOUNTAINS.x, [MOUNTAIN_RANGES].[Range] & ", " &
  [MOUNT_SUBRANGES].[Subrange] & ", " & [MountGroup] & ", " &
  [Mountain] AS [Range, Subrange, Group, Mountain],
MOUNTAIN_RANGES.Continent
FROM MOUNTAIN_RANGES RIGHT JOIN
(MOUNT_SUBRANGES RIGHT JOIN (MOUNT_GROUPS RIGHT JOIN
MOUNTAINS ON MOUNTAINS.Group = MOUNT_GROUPS.x) ON
MOUNT_SUBRANGES.x = MOUNT_GROUPS.Subrange) ON
MOUNTAIN_RANGES.x = MOUNT_SUBRANGES.Range
ORDER BY [MOUNTAIN_RANGES].[Range] & ", " &
  [MOUNT_SUBRANGES].[Subrange] & ", " & [MountGroup] & ", " &
  [Mountain];
"""

GOLDEN_CONTINENT_ROW_SOURCE = """
SELECT [CONTINENTS].[x], [CONTINENTS].[Continent] FROM CONTINENTS
ORDER BY [Continent];
"""


def geo(schema):
    return schema.constraints[0]


# -- row sources --------------------------------------------------------------


def test_left_row_source_matches_golden(geography_schema):
    unit = gen_row_source(geography_schema, geo(geography_schema), Side.LEFT)
    assert normalize_text(unit.body) == normalize_text(GOLDEN_MOUNTAIN_ROW_SOURCE)
    assert unit.target_set == "RIVERS"
    assert unit.target_function == "Mountain"


def test_right_row_source_matches_golden(geography_schema):
    unit = gen_row_source(geography_schema, geo(geography_schema), Side.RIGHT)
    assert normalize_text(unit.body) == normalize_text(GOLDEN_CONTINENT_ROW_SOURCE)
    assert unit.target_function == "Continent"


def test_single_function_row_source_shape():
    schema, _ = parse_schema(
        "schema T ;\n"
        "set PLACES { name Title : text ; }\n"
        "set THINGS { name Label : text ; Place -> PLACES ; Other -> PLACES ; }\n"
        "constraint pair commutative on THINGS { left = Title . Place ; right = Title . Other ; }\n"
    )
    unit = gen_row_source(schema, schema.constraints[0], Side.LEFT)
    assert normalize_text(unit.body) == normalize_text(
        "SELECT PLACES.x, [Title] AS [Place], PLACES.Title FROM PLACES ORDER BY [Title];"
    )


def test_row_source_for_a_1500_function_chain_builds_without_recursion():
    """The ladder is built in a loop, so its depth is no recursion limit.
    parse_schema refuses a chain this long (join-limit), so the constraint
    is resolved here without it."""
    schema, diagnostics = parse_schema("schema Loop ;\nset A { name N : text ; f -> A ; }\n")
    assert schema is not None, diagnostics
    left, issues = resolve_chain(schema, "A", RawChain(("N",) + ("f",) * 1500), Side.LEFT)
    right, more = resolve_chain(schema, "A", RawChain(("N",)), Side.RIGHT)
    assert left is not None and right is not None, issues + more
    constraint = DiagramConstraint("c", ConstraintKind.COMMUTATIVE, left, right)
    unit = gen_row_source(schema, constraint, Side.LEFT)
    assert unit.body.count("RIGHT JOIN") == 1499


def test_scalar_single_function_side_has_no_row_source(geography_schema):
    schema, _ = parse_schema(
        "schema T ;\n"
        "set PLACES { name Title : text ; Color : text ? ; }\n"
        "set THINGS { name Label : text ; Color : text ? ; Place -> PLACES ; }\n"
        "constraint c commutative on THINGS { left = Color . Place ; right = Color ; }\n"
    )
    with pytest.raises(ValueError, match="scalar"):
        gen_row_source(schema, schema.constraints[0], Side.RIGHT)


def test_row_source_deterministic(geography_schema):
    a = gen_row_source(geography_schema, geo(geography_schema), Side.LEFT)
    b = gen_row_source(geography_schema, geo(geography_schema), Side.LEFT)
    assert a.body == b.body


# -- domain checks ------------------------------------------------------------


def test_paper_domain_check_structure(geography_schema):
    unit = gen_domain_check(geography_schema, geo(geography_schema), Dialect.PAPER_STYLE)
    body = unit.body
    assert unit.target_function is None
    assert "Sub Form_BeforeUpdate(Cancel As Integer)" in body
    assert "Not IsNull(Mountain)" in body
    assert "Not IsNull(Continent)" in body
    # composed value of the long side comes from the combo's third column
    assert "Not IsNull(Mountain.Column(2))" in body
    assert "If Mountain.Column(2) <> Continent Then" in body
    assert "Cancel = True" in body
    assert "MsgBox" in body


def test_paper_domain_check_anti_direction(neighbors_schema):
    unit = gen_domain_check(
        neighbors_schema, neighbors_schema.constraints[0], Dialect.PAPER_STYLE
    )
    assert "If Country.Column(2) = Neighbor.Column(2) Then" in unit.body


def test_sql_domain_check_structure(geography_schema):
    unit = gen_domain_check(geography_schema, geo(geography_schema), Dialect.GENERIC_SQL)
    body = normalize_text(unit.body)
    assert "BEFORE INSERT ON RIVERS" in body
    assert "BEFORE UPDATE OF Mountain, Continent ON RIVERS" in body
    assert "WHEN NEW.Mountain IS NOT OLD.Mountain OR NEW.Continent IS NOT OLD.Continent" in body
    assert "RAISE(ABORT," in body
    # both triggers walk the chain as one flat join in walk order, never a
    # nested subquery
    assert "(SELECT" not in body
    join = (
        "FROM MOUNTAINS t1 CROSS JOIN MOUNT_GROUPS t2 CROSS JOIN MOUNT_SUBRANGES t3"
        " CROSS JOIN MOUNTAIN_RANGES t4"
        " WHERE t1.x = NEW.Mountain AND t2.x = t1.Group AND t3.x = t2.Subrange"
        " AND t4.x = t3.Range AND t4.Continent <> NEW.Continent;"
    )
    assert body.count(join) == 2


# -- link checks --------------------------------------------------------------


def test_link_check_unit_coverage(geography_schema):
    units = gen_link_checks(geography_schema, geo(geography_schema), Dialect.PAPER_STYLE)
    targets = [(u.target_set, u.target_function) for u in units]
    assert targets == [
        ("MOUNTAIN_RANGES", "Continent"),
        ("MOUNT_SUBRANGES", "Range"),
        ("MOUNT_GROUPS", "Subrange"),
        ("MOUNTAINS", "Group"),
    ]


def test_link_check_count_for_two_one_chain():
    schema, _ = parse_schema(
        "schema T ;\n"
        "set PLACES { name Title : text ; }\n"
        "set THINGS { name Label : text ; Place -> PLACES ? ; Title2 -> PLACES ? ; }\n"
        "constraint c commutative on THINGS { left = Title . Place ; right = Title . Title2 ; }\n"
    )
    # n=2, m=2 over a shared outer function: both sides' position-1 entries
    # land on (PLACES, Title), merged into one unit
    units = gen_link_checks(schema, schema.constraints[0], Dialect.PAPER_STYLE)
    assert len(units) == 1
    assert units[0].body.count("' c: ") == 2


def test_shared_function_sides_merge_into_one_body(neighbors_schema):
    units = gen_link_checks(
        neighbors_schema, neighbors_schema.constraints[0], Dialect.PAPER_STYLE
    )
    assert len(units) == 1
    unit = units[0]
    assert (unit.target_set, unit.target_function) == ("COUNTRIES", "FrontierColor")
    assert unit.body.count("Sub FrontierColor_BeforeUpdate") == 1
    assert "left position 1" in unit.body and "right position 1" in unit.body


def test_paper_link_check_structure(geography_schema):
    units = gen_link_checks(geography_schema, geo(geography_schema), Dialect.PAPER_STYLE)
    by_target = {(u.target_set, u.target_function): u.body for u in units}

    outermost = by_target[("MOUNTAIN_RANGES", "Continent")]
    assert "Sub Continent_BeforeUpdate(Cancel As Integer)" in outermost
    assert "Not NewRecord" in outermost
    assert "Continent <> Continent.OldValue" in outermost
    # the witness: an affected river whose continent differs from the new
    # head, looked for among every affected river
    assert (
        'v = DLookup("[x]", "[RIVERS]", "[Mountain] IN (SELECT [x] FROM [MOUNTAINS]'
        " WHERE [Group] IN (SELECT [x] FROM [MOUNT_GROUPS] WHERE [Subrange] IN"
        ' (SELECT [x] FROM [MOUNT_SUBRANGES] WHERE [Range] =" & x & ")))'
        ' AND [Continent] <>" & w)' in outermost
    )
    assert "w = Continent" in outermost
    assert "v <> w" not in outermost
    assert "Undo" in outermost

    second = by_target[("MOUNT_SUBRANGES", "Range")]
    assert 'w = DLookup("[Continent]", "[MOUNTAIN_RANGES]", "[x] =" & Range)' in second
    assert 'v = DLookup("[x]", "[RIVERS]", "[Mountain] IN' in second

    innermost = by_target[("MOUNTAINS", "Group")]
    assert (
        'w = DLookup("[Continent]", "[MOUNTAIN_RANGES]", "[x] IN (SELECT [Range] FROM'
        " [MOUNT_SUBRANGES] WHERE [x] IN (SELECT [Subrange] FROM [MOUNT_GROUPS] WHERE"
        ' [x] =" & Group & "))")' in innermost
    )
    assert 'v = DLookup("[x]", "[RIVERS]", "[Mountain] =" & x & " AND [Continent] <>" & w)' in innermost
    # w is read before v, so each block tests the new head first
    assert innermost.index("w = ") < innermost.index("v = ")


def test_paper_anti_link_check_folds_head_into_query(neighbors_schema):
    [unit] = gen_link_checks(
        neighbors_schema, neighbors_schema.constraints[0], Dialect.PAPER_STYLE
    )
    body = unit.body
    assert "FrontierColor <> FrontierColor.OldValue" in body
    assert "w = FrontierColor" in body
    # the left-side block scans pairs by Country and matches Neighbor's
    # color; the row id is spliced bare, the text colour as a quoted
    # literal, and the witness is the pair's id, never its nullable name
    assert (
        'v = DLookup("[x]", "[NEIGHBOR_COUNTRIES]", "[Country] =" & x & " AND [Neighbor] IN'
        """ (SELECT [x] FROM [COUNTRIES] WHERE [FrontierColor] ='" & Replace(w, "'", "''") & "')")"""
        in body
    )
    assert (
        'v = DLookup("[x]", "[NEIGHBOR_COUNTRIES]", "[Neighbor] =" & x & " AND [Country] IN'
        """ (SELECT [x] FROM [COUNTRIES] WHERE [FrontierColor] ='" & Replace(w, "'", "''") & "')")"""
        in body
    )
    assert "Pair" not in body
    assert "If Not IsNull(v) Then" in body
    assert "Undo" in body


def test_paper_link_guard_checks_an_edit_from_null(geography_schema, neighbors_schema):
    # VBA's `f <> f.OldValue` is Null when the old value is, and an If
    # skips a Null test, so a nullable control's guard takes
    # IsNull(f.OldValue) too: the engine and the SQLite triggers both
    # check a Null -> value edit
    units = gen_link_checks(geography_schema, geo(geography_schema), Dialect.PAPER_STYLE)
    by_target = {(u.target_set, u.target_function): u.body for u in units}
    [neighbors] = gen_link_checks(
        neighbors_schema, neighbors_schema.constraints[0], Dialect.PAPER_STYLE
    )
    guard = "If Not Cancel And Not NewRecord And {} And Not IsNull({}) Then"
    nullable = "(IsNull({0}.OldValue) Or {0} <> {0}.OldValue)"
    assert guard.format(nullable.format("Group"), "Group") in by_target[("MOUNTAINS", "Group")]
    assert neighbors.body.count(guard.format(nullable.format("FrontierColor"), "FrontierColor")) == 2
    # a required control is never Null before the edit
    required = guard.format("Range <> Range.OldValue", "Range")
    assert required in by_target[("MOUNT_SUBRANGES", "Range")]
    assert "IsNull(Range.OldValue)" not in by_target[("MOUNT_SUBRANGES", "Range")]


SPLICE_SCHEMA = """schema T ;
set R { name L : text ; }
set P { name N : text ; Tag : text ? ; Size : integer ? ; Home -> R ? ; }
set Q { name M : text ; A -> P ; B -> P ; }
constraint tags anticommutative on Q { left = Tag . A ; right = Tag . B ; }
constraint sizes anticommutative on Q { left = Size . A ; right = Size . B ; }
constraint homes anticommutative on Q { left = Home . A ; right = Home . B ; }
"""


@pytest.mark.parametrize(
    "constraint_id, splice",
    [
        ("tags", """Tag ='" & Replace(w, "'", "''") & "'"""),
        ("sizes", 'Size =" & w & "'),
        ("homes", 'Home =" & w & "'),
    ],
)
def test_paper_criteria_quote_a_text_splice_and_leave_ids_bare(constraint_id, splice):
    # Access reads a bare word in a criteria string as a name, so a text
    # value is spliced in as a quoted literal; numbers and row ids are not.
    # Every column name is bracketed.
    column, comparison = splice.split(" ", 1)
    schema, diagnostics = parse_schema(SPLICE_SCHEMA)
    assert schema is not None, diagnostics
    [unit] = gen_link_checks(schema, schema.constraint(constraint_id), Dialect.PAPER_STYLE)
    lookups = [line.strip() for line in unit.body.split("\n") if line.strip().startswith("v = ")]
    assert lookups == [
        f'v = DLookup("[x]", "[Q]", "[{near}] =" & x & " AND [{far}] IN'
        f' (SELECT [x] FROM [P] WHERE [{column}] {comparison})")'
        for near, far in (("A", "B"), ("B", "A"))
    ]


def test_sql_link_checks_structure(geography_schema):
    units = gen_link_checks(geography_schema, geo(geography_schema), Dialect.GENERIC_SQL)
    assert len(units) == 4
    bodies = [normalize_text(unit.body) for unit in units]
    # every walk is one flat join, never a nested or IN subquery
    assert all("(SELECT" not in body and "IN (" not in body for body in bodies)
    outermost = bodies[0]
    assert "BEFORE UPDATE OF Continent ON MOUNTAIN_RANGES" in outermost
    assert "WHEN NEW.Continent IS NOT NULL AND NEW.Continent IS NOT OLD.Continent" in outermost
    # the reverse walk from the written row back to the domain set, and the
    # other chain read on the domain row it reaches
    assert (
        "FROM MOUNT_SUBRANGES t1 CROSS JOIN MOUNT_GROUPS t2 CROSS JOIN MOUNTAINS t3"
        " CROSS JOIN RIVERS t4"
        " WHERE t1.Range = NEW.x AND t2.Subrange = t1.x AND t3.Group = t2.x"
        " AND t4.Mountain = t3.x AND NEW.Continent <> t4.Continent;"
    ) in outermost
    # the head walk joins the rows ahead of the written one, first, so it
    # runs once; the reverse walk follows
    assert (
        "FROM MOUNT_GROUPS t1 CROSS JOIN MOUNT_SUBRANGES t2 CROSS JOIN MOUNTAIN_RANGES t3"
        " CROSS JOIN RIVERS t4"
        " WHERE t1.x = NEW.Group AND t2.x = t1.Subrange AND t3.x = t2.Range"
        " AND t4.Mountain = NEW.x AND t3.Continent <> t4.Continent;"
    ) in bodies[3]


# -- normalization ------------------------------------------------------------


def test_normalize_strips_continuations_brackets_and_case():
    text = 'SELECT [A].[B] & _\n  ", " & [C]\nfrom T\norder by [B];'
    assert (
        normalize_text(text) == 'SELECT A.B & ", " & C FROM T ORDER BY B;'
    )


def test_normalize_idempotent_on_goldens():
    for text in (GOLDEN_MOUNTAIN_ROW_SOURCE, GOLDEN_CONTINENT_ROW_SOURCE):
        once = normalize_text(text)
        assert normalize_text(once) == once


@given(st.text(alphabet=' \t\nabSELCTfrom[](),.&";_', max_size=200))
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


def test_newline_placement_is_irrelevant():
    a = "SELECT x,\n  y FROM t;"
    b = "SELECT x, y\nFROM t;"
    assert normalize_text(a) == normalize_text(b)


# -- batch emission -----------------------------------------------------------


def test_emit_units_order_and_filenames(geography_schema):
    units = emit_units(
        geography_schema, geography_schema.constraints, "all", Dialect.PAPER_STYLE
    )
    names = [u.filename for u in units]
    assert names == [
        "RIVERS.Mountain.GeoContinent.left.row-source.paper-style.txt",
        "RIVERS.Continent.GeoContinent.right.row-source.paper-style.txt",
        "RIVERS.GeoContinent.domain-check.paper-style.txt",
        "MOUNTAIN_RANGES.Continent.GeoContinent.link-check.paper-style.txt",
        "MOUNT_SUBRANGES.Range.GeoContinent.link-check.paper-style.txt",
        "MOUNT_GROUPS.Subrange.GeoContinent.link-check.paper-style.txt",
        "MOUNTAINS.Group.GeoContinent.link-check.paper-style.txt",
    ]
    assert all(u.body for u in units)


def test_unit_filenames_are_distinct_on_random_schemas():
    # both sides' row sources may serve one column, and a chain that
    # revisits a set may put a link check on a row source's column
    for seed in range(300):
        rng = random.Random(seed)
        schema = make_schema(rng, rng.randint(1, 3))
        for dialect in Dialect:
            units = emit_units(schema, schema.constraints, "all", dialect)
            assert len({u.filename for u in units}) == len(units), seed


def test_emitted_bodies_are_deterministic(geography_schema):
    first = emit_units(
        geography_schema, geography_schema.constraints, "all", Dialect.GENERIC_SQL
    )
    second = emit_units(
        geography_schema, geography_schema.constraints, "all", Dialect.GENERIC_SQL
    )
    assert [u.body for u in first] == [u.body for u in second]


@pytest.mark.parametrize("fixture", ["geography", "neighbors"])
@pytest.mark.parametrize("dialect", list(Dialect))
def test_emitted_text_matches_golden(fixture, dialect):
    """Every unit is pinned byte for byte, a generic-sql link-check unit's
    index lines too."""
    schema, diagnostics = parse_schema(fixture_text(f"{fixture}.fd"))
    assert schema is not None, diagnostics
    parts = [
        f"-- {unit.filename} ({unit.role})\n{unit.body}\n\n"
        for unit in emit_units(schema, schema.constraints, "all", dialect)
    ]
    assert "".join(parts) == fixture_text(f"emitted/{fixture}.{dialect.value}.txt")


def test_sql_link_check_units_carry_their_reverse_walk_indexes(geography_schema):
    units = gen_link_checks(geography_schema, geo(geography_schema), Dialect.GENERIC_SQL)
    # the domain hop's index also holds the other chain's innermost column
    walk = [
        "CREATE INDEX IF NOT EXISTS [MOUNT_SUBRANGES.Range] ON [MOUNT_SUBRANGES] ([Range]);",
        "CREATE INDEX IF NOT EXISTS [MOUNT_GROUPS.Subrange] ON [MOUNT_GROUPS] ([Subrange]);",
        "CREATE INDEX IF NOT EXISTS [MOUNTAINS.Group] ON [MOUNTAINS] ([Group]);",
        "CREATE INDEX IF NOT EXISTS [RIVERS.Mountain.Continent]"
        " ON [RIVERS] ([Mountain], [Continent]);",
    ]
    for position, unit in enumerate(units, 1):
        indexes = unit.body.split("\n\n", 1)[0]
        assert indexes.splitlines() == walk[position - 1 :]




def test_domain_hop_reading_its_own_link_column_gets_the_one_column_index():
    # both chains end in F, so the domain hop reads F alone
    schema, diagnostics = parse_schema(
        "schema T ;\n"
        "set P { name N : text ; L : text ? ; }\n"
        "set S { name M : text ; F -> P ? ; }\n"
        "constraint same commutative on S { left = N . F ; right = L . F ; }\n"
    )
    assert schema is not None, diagnostics
    bodies = [
        u.body for u in gen_link_checks(schema, schema.constraints[0], Dialect.GENERIC_SQL)
    ]
    assert [body.split("\n\n", 1)[0] for body in bodies] == [
        "CREATE INDEX IF NOT EXISTS [S.F] ON [S] ([F]);"
    ] * 2

def _assert_vba_handler_shape(body: str) -> None:
    """A `Sub` ... `End Sub` whose every line sits four spaces deeper per
    open `If`, whose every `If ... Then` closes with one `End If` at its own
    indentation, and in which no string literal spans a line."""
    lines = body.split("\n")
    assert lines[0].startswith("Sub ") and lines[-1] == "End Sub", body
    depth = 0
    for line in lines[1:-1]:
        assert line.count('"') % 2 == 0, line
        statement = line.lstrip(" ")
        if statement == "End If":
            depth -= 1
            assert depth >= 0, body
        assert len(line) - len(statement) == 4 * depth, line
        if statement.startswith("If "):
            assert statement.endswith(" Then"), line
            depth += 1
    assert depth == 0, body


@pytest.mark.parametrize("seed", SEEDS)
def test_paper_handlers_on_random_schemas_are_well_formed(seed):
    rng = random.Random(seed)
    schema = make_schema(rng, rng.randint(1, 3))
    handlers = [
        u
        for u in emit_units(schema, schema.constraints, "all", Dialect.PAPER_STYLE)
        if u.role != "row-source"
    ]
    assert handlers
    for unit in handlers:
        _assert_vba_handler_shape(unit.body)
        if unit.role == "link-check":
            # both kinds look a witness up by its id, never a name
            domain = schema.constraint(unit.constraint_id).domain_set
            lines = [line.strip() for line in unit.body.split("\n")]
            lookups = [line for line in lines if line.startswith("v = ")]
            assert lookups and all(
                line.startswith(f'v = DLookup("[x]", "[{domain}]", ') for line in lookups
            )
            assert "v <> w" not in unit.body


@pytest.mark.parametrize("fixture", ["geography", "neighbors"])
def test_paper_message_line_breaks_stay_inside_string_literals(fixture):
    schema, diagnostics = parse_schema(fixture_text(f"{fixture}.fd"))
    assert schema is not None, diagnostics
    constraint = replace(schema.constraints[0], message='one\ntwo\r"three"')
    for unit in emit_units(schema, (constraint,), "all", Dialect.PAPER_STYLE):
        if unit.role == "row-source":
            assert all(line.count('"') % 2 == 0 for line in unit.body.split("\n"))
        else:
            _assert_vba_handler_shape(unit.body)
            assert 'MsgBox "one" & vbLf & "two" & vbCr & """three"""' in unit.body
