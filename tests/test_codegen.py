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
from funcdiag.model import ScalarType, Side

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
    assert body.count("SELECT Continent FROM MOUNTAIN_RANGES WHERE x =") == 2
    assert "<>" in body


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
    assert (
        'Mountain IN (SELECT x FROM MOUNTAINS WHERE Group IN '
        "(SELECT x FROM MOUNT_GROUPS WHERE Subrange IN "
        '(SELECT x FROM MOUNT_SUBRANGES WHERE Range =" & x & ")))' in outermost
    )
    assert "w = Continent" in outermost
    assert "If v <> w Then" in outermost
    assert "Undo" in outermost

    second = by_target[("MOUNT_SUBRANGES", "Range")]
    assert 'w = DLookup("Continent", "MOUNTAIN_RANGES", "x =" & Range)' in second
    assert 'v = DLookup("Continent", "RIVERS", "Mountain IN' in second

    innermost = by_target[("MOUNTAINS", "Group")]
    assert (
        'w = DLookup("Continent", "MOUNTAIN_RANGES", "x IN (SELECT Range FROM'
        " MOUNT_SUBRANGES WHERE x IN (SELECT Subrange FROM MOUNT_GROUPS WHERE"
        ' x =" & Group & "))")' in innermost
    )
    assert 'v = DLookup("Continent", "RIVERS", "Mountain =" & x)' in innermost


def test_paper_anti_link_check_folds_head_into_query(neighbors_schema):
    [unit] = gen_link_checks(
        neighbors_schema, neighbors_schema.constraints[0], Dialect.PAPER_STYLE
    )
    body = unit.body
    assert "FrontierColor <> FrontierColor.OldValue" in body
    assert "w = FrontierColor" in body
    # the left-side block scans pairs by Country and matches Neighbor's color
    assert (
        'Country =" & x & " AND Neighbor IN (SELECT x FROM COUNTRIES'
        ' WHERE FrontierColor =" & w & ")' in body
    )
    assert (
        'Neighbor =" & x & " AND Country IN (SELECT x FROM COUNTRIES'
        ' WHERE FrontierColor =" & w & ")' in body
    )
    assert "If Not IsNull(v) Then" in body
    assert "Undo" in body


def test_sql_link_checks_structure(geography_schema):
    units = gen_link_checks(geography_schema, geo(geography_schema), Dialect.GENERIC_SQL)
    assert len(units) == 4
    outermost = normalize_text(units[0].body)
    assert "BEFORE UPDATE OF Continent ON MOUNTAIN_RANGES" in outermost
    assert "WHEN NEW.Continent IS NOT NULL AND NEW.Continent IS NOT OLD.Continent" in outermost
    assert "SELECT 1 FROM RIVERS d" in outermost
    assert "d.Mountain IN (SELECT x FROM MOUNTAINS" in outermost
    assert "(d.Continent) <> (NEW.Continent)" in outermost
    innermost = normalize_text(units[3].body)
    assert "d.Mountain = NEW.x" in innermost


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
        "RIVERS_Mountain_GeoContinent.paper-style.txt",
        "RIVERS_Continent_GeoContinent.paper-style.txt",
        "RIVERS_row_GeoContinent.paper-style.txt",
        "MOUNTAIN_RANGES_Continent_GeoContinent.paper-style.txt",
        "MOUNT_SUBRANGES_Range_GeoContinent.paper-style.txt",
        "MOUNT_GROUPS_Subrange_GeoContinent.paper-style.txt",
        "MOUNTAINS_Group_GeoContinent.paper-style.txt",
    ]
    assert all(u.body for u in units)


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
def test_emitted_text_matches_golden_apart_from_index_lines(fixture, dialect):
    """Every unit is pinned byte for byte; a generic-sql link-check unit
    may only add its block of index lines ahead of the triggers."""
    schema, diagnostics = parse_schema(fixture_text(f"{fixture}.fd"))
    assert schema is not None, diagnostics
    parts = []
    for unit in emit_units(schema, schema.constraints, "all", dialect):
        body = unit.body
        if unit.dialect is Dialect.GENERIC_SQL and unit.role == "link-check":
            indexes, body = body.split("\n\n", 1)
            for line in indexes.splitlines():
                assert line.startswith("CREATE INDEX IF NOT EXISTS [")
        parts.append(f"-- {unit.filename} ({unit.role})\n{body}\n\n")
    assert "".join(parts) == fixture_text(f"emitted/{fixture}.{dialect.value}.txt")


def test_sql_link_check_units_carry_their_reverse_walk_indexes(geography_schema):
    units = gen_link_checks(geography_schema, geo(geography_schema), Dialect.GENERIC_SQL)
    walk = [
        "CREATE INDEX IF NOT EXISTS [MOUNT_SUBRANGES.Range] ON [MOUNT_SUBRANGES] ([Range]);",
        "CREATE INDEX IF NOT EXISTS [MOUNT_GROUPS.Subrange] ON [MOUNT_GROUPS] ([Subrange]);",
        "CREATE INDEX IF NOT EXISTS [MOUNTAINS.Group] ON [MOUNTAINS] ([Group]);",
        "CREATE INDEX IF NOT EXISTS [RIVERS.Mountain] ON [RIVERS] ([Mountain]);",
    ]
    for position, unit in enumerate(units, 1):
        indexes = unit.body.split("\n\n", 1)[0]
        assert indexes.splitlines() == walk[position - 1 :]



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
