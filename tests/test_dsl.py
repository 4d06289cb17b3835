from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from funcdiag.dsl import (
    Action,
    Binding,
    Expectation,
    HandleRef,
    Mutation,
    Severity,
    format_schema,
    format_script,
    parse_schema,
    parse_script,
)
from funcdiag.model import ConstraintKind, IssueCode, ScalarType
from funcdiag.store import RowId

from conftest import fixture_text
from randgen import make_schema

GEOGRAPHY = fixture_text("geography.fd")


def errors(diagnostics):
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def test_geography_fixture_parses(geography_schema):
    assert geography_schema.name == "Geography"
    assert [s.name for s in geography_schema.sets] == [
        "CONTINENTS",
        "MOUNTAIN_RANGES",
        "MOUNT_SUBRANGES",
        "MOUNT_GROUPS",
        "MOUNTAINS",
        "RIVERS",
    ]
    assert len(geography_schema.constraints) == 1
    constraint = geography_schema.constraints[0]
    assert constraint.kind is ConstraintKind.COMMUTATIVE
    assert constraint.left.length == 5
    assert constraint.right.length == 1
    mountain = geography_schema.function("RIVERS", "Mountain")
    assert mountain is not None and mountain.nullable
    group = geography_schema.function("MOUNTAINS", "Group")
    assert group is not None and group.nullable


def test_empty_source_reports_no_schema():
    schema, diagnostics = parse_schema("")
    assert schema is None
    assert [d.code for d in diagnostics] == [IssueCode.NO_SCHEMA]
    assert diagnostics[0].line == 1 and diagnostics[0].column == 1


def test_hbfp_constraint_refused_with_classification():
    schema, diagnostics = parse_schema(fixture_text("hbfp.fd"))
    assert schema is None
    [d] = errors(diagnostics)
    assert d.code is IssueCode.REFUSED_HBFP
    assert "SameGuide" in d.message


def test_local_constraint_refused_with_classification():
    schema, diagnostics = parse_schema(fixture_text("local.fd"))
    assert schema is None
    [d] = errors(diagnostics)
    assert d.code is IssueCode.REFUSED_LOCAL
    assert "identity" in d.message


def test_partial_schema_never_returned_on_error():
    source = GEOGRAPHY + "\nset RIVERS { name River : text ; }\n"
    schema, diagnostics = parse_schema(source)
    assert schema is None
    assert any(d.code is IssueCode.DUPLICATE_SET for d in diagnostics)


@pytest.mark.parametrize(
    "snippet, code",
    [
        ("set A { name N : text ; N : text ; }", IssueCode.DUPLICATE_FUNCTION),
        ("set A { N : text ; }", IssueCode.MISSING_NAME_ATTRIBUTE),
        ("set A { name N : text ; name M : text ; }", IssueCode.DUPLICATE_NAME_ATTRIBUTE),
        ("set A { name N -> A ; }", IssueCode.BAD_NAME_ATTRIBUTE),
        ("set A { name N : text ; L -> NOWHERE ; }", IssueCode.UNKNOWN_SET),
    ],
)
def test_set_level_diagnostics(snippet, code):
    schema, diagnostics = parse_schema(f"schema T ;\n{snippet}\n")
    assert schema is None
    assert any(d.code is code for d in diagnostics), diagnostics


def test_diagnostics_point_at_offending_token():
    source = "schema T ;\nset A { name N : text ; L -> NOWHERE ; }\n"
    _, diagnostics = parse_schema(source)
    [d] = [d for d in diagnostics if d.code is IssueCode.UNKNOWN_SET]
    line = source.splitlines()[d.line - 1]
    assert line[d.column - 1 :].startswith("NOWHERE")


def test_single_insert_statement(geography_schema):
    mutations, diagnostics = parse_script(
        'insert CONTINENTS (Continent = "Europe") as eu ;', geography_schema
    )
    assert diagnostics == []
    [m] = mutations
    assert m.action is Action.INSERT
    assert m.set_name == "CONTINENTS"
    assert m.bindings == (Binding("Continent", "Europe"),)
    assert m.handle == "eu"
    assert m.expectation is None


def test_update_with_expectation_round_trips(geography_schema):
    source = (
        'insert CONTINENTS (Continent = "Asia") as asia ;\n'
        "insert MOUNTAIN_RANGES (Range = \"Alps\", Continent = @asia) as alps ;\n"
        "update @alps set Continent = @asia expect reject ;\n"
    )
    mutations, diagnostics = parse_script(source, geography_schema)
    assert diagnostics == []
    assert mutations[2].action is Action.UPDATE
    assert mutations[2].row_ref == HandleRef("alps")
    assert mutations[2].expectation is Expectation.REJECT
    printed = format_script(mutations)
    reparsed, diagnostics = parse_script(printed, geography_schema)
    assert diagnostics == []
    assert reparsed == mutations


@pytest.mark.parametrize(
    "mutation",
    [
        Mutation(
            Action.UPDATE,
            row_ref=RowId("CONTINENTS", 3),
            bindings=(Binding("Continent", "x"),),
        ),
        Mutation(Action.DELETE, row_ref=RowId("CONTINENTS", 3)),
        Mutation(
            Action.INSERT,
            set_name="MOUNTAIN_RANGES",
            bindings=(Binding("Continent", RowId("CONTINENTS", 1)),),
        ),
    ],
)
def test_format_script_refuses_rows_without_a_handle(mutation):
    with pytest.raises(ValueError, match="CONTINENTS#"):
        format_script([mutation])


def test_handle_must_be_bound_before_use(geography_schema):
    mutations, diagnostics = parse_script(
        "update @ghost set Continent = null ;", geography_schema
    )
    assert mutations is None
    assert any(d.code is IssueCode.UNBOUND_HANDLE for d in diagnostics)


def test_handle_forward_only_even_within_statement(geography_schema):
    mutations, diagnostics = parse_script(
        "insert MOUNTAIN_RANGES (Range = \"r\", Continent = @x) as x ;",
        geography_schema,
    )
    assert mutations is None
    assert any(d.code is IssueCode.UNBOUND_HANDLE for d in diagnostics)


@pytest.mark.parametrize(
    "source, code",
    [
        ('insert OCEANS (Deep = "x") ;', IssueCode.UNKNOWN_SET),
        ('insert CONTINENTS (Depth = 4) ;', IssueCode.UNKNOWN_FUNCTION),
        ("insert CONTINENTS (Continent = 4) ;", IssueCode.TYPE_MISMATCH),
        (
            'insert CONTINENTS (Continent = "Europe") as eu ;\n'
            "insert RIVERS (River = \"R\", Continent = @eu, Mountain = @eu) ;",
            IssueCode.TYPE_MISMATCH,
        ),
        (
            'insert CONTINENTS (Continent = "Europe") as eu ;\n'
            'insert CONTINENTS (Continent = "Asia") as eu ;',
            IssueCode.DUPLICATE_HANDLE,
        ),
        (
            'insert CONTINENTS (Continent = @missing) ;',
            IssueCode.UNBOUND_HANDLE,
        ),
        # null is kind-compatible with any function; nullability is a
        # store-level rule checked at run time
        ("insert RIVERS (River = null) ;", None),
    ],
)
def test_script_semantic_diagnostics(geography_schema, source, code):
    if code is None:
        mutations, diagnostics = parse_script(source, geography_schema)
        assert diagnostics == []
        return
    mutations, diagnostics = parse_script(source, geography_schema)
    assert mutations is None
    assert any(d.code is code for d in diagnostics), diagnostics


def test_comments_and_negative_integers(geography_schema):
    schema, diagnostics = parse_schema(
        "schema T ; // trailing words\n"
        "// a full comment line\n"
        "set A { name N : text ; Depth : integer ? ; }\n"
    )
    assert diagnostics == []
    mutations, diagnostics = parse_script(
        'insert A (N = "x", Depth = -42) ; // done', schema
    )
    assert diagnostics == []
    assert mutations[0].bindings[1].value == -42


_DEPTH_SCHEMA = "schema T ;\nset A { name N : text ; Depth : integer ? ; }\n"


@pytest.mark.parametrize(
    "literal",
    ["1" * 5000, str(2**63), str(-(2**63) - 1)],
    ids=["5000-digits", "2^63", "-2^63-1"],
)
def test_integer_literal_outside_64_bits_is_a_positioned_diagnostic(literal):
    schema, _ = parse_schema(_DEPTH_SCHEMA)
    source = f'insert A (N = "x") ;\ninsert A (N = "y", Depth = {literal}) ;\n'
    mutations, diagnostics = parse_script(source, schema)
    assert mutations is None
    [d] = diagnostics
    assert (d.line, d.column, d.code) == (2, 28, IssueCode.SYNTAX)
    assert "64-bit range" in d.message


@pytest.mark.parametrize(
    "literal, value",
    [(str(2**63 - 1), 2**63 - 1), (str(-(2**63)), -(2**63)), ("-" + "0" * 5000, 0)],
    ids=["2^63-1", "-2^63", "5000-zeros"],
)
def test_integer_literal_at_the_64_bit_bounds_parses(literal, value):
    schema, _ = parse_schema(_DEPTH_SCHEMA)
    mutations, diagnostics = parse_script(f'insert A (N = "x", Depth = {literal}) ;', schema)
    assert diagnostics == []
    assert mutations[0].bindings[1].value == value


def test_string_escapes_round_trip(geography_schema):
    source = 'insert CONTINENTS (Continent = "a\\"b\\\\c\\n") ;'
    mutations, diagnostics = parse_script(source, geography_schema)
    assert diagnostics == []
    assert mutations[0].bindings[0].value == 'a"b\\c\n'
    printed = format_script(mutations)
    reparsed, _ = parse_script(printed, geography_schema)
    assert reparsed == mutations


def test_schema_round_trip_on_fixture(geography_schema):
    printed = format_schema(geography_schema)
    reparsed, diagnostics = parse_schema(printed)
    assert diagnostics == []
    assert reparsed == geography_schema


@pytest.mark.parametrize("seed", range(30))
def test_schema_round_trip_on_random_models(seed):
    schema = make_schema(random.Random(seed), n_constraints=seed % 2 + 1)
    printed = format_schema(schema)
    reparsed, diagnostics = parse_schema(printed)
    assert diagnostics == [], printed
    assert reparsed == schema
    assert format_schema(reparsed) == printed


def _mutilate(data, source: str) -> str:
    n_edits = data.draw(st.integers(min_value=1, max_value=6))
    for _ in range(n_edits):
        kind = data.draw(st.sampled_from(["delete", "insert", "replace"]))
        pos = data.draw(st.integers(min_value=0, max_value=max(len(source) - 1, 0)))
        char = data.draw(st.sampled_from([*' ;{}()->.@"xq5\n²é\\\r', "//"]))
        if kind == "delete":
            source = source[:pos] + source[pos + 1 :]
        elif kind == "insert":
            source = source[:pos] + char + source[pos:]
        else:
            source = source[:pos] + char + source[pos + 1 :]
    return source


def _assert_in_bounds(source: str, diagnostics) -> None:
    lines = source.split("\n")
    for d in diagnostics:
        assert 1 <= d.line <= len(lines)
        assert 1 <= d.column <= len(lines[d.line - 1]) + 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutilated_sources_keep_diagnostics_in_bounds(data):
    source = _mutilate(data, GEOGRAPHY)
    _, diagnostics = parse_schema(source)
    _assert_in_bounds(source, diagnostics)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutilated_scripts_keep_diagnostics_in_bounds(geography_schema, data):
    source = _mutilate(data, fixture_text("geography_ac1.fdm"))
    _, diagnostics = parse_script(source, geography_schema)
    _assert_in_bounds(source, diagnostics)


# -- lexer edge cases ---------------------------------------------------------


def test_non_decimal_digit_is_a_word_not_an_integer(geography_schema):
    source = (
        'insert CONTINENTS (Continent = "Europe") as c ;\n'
        "update @c set Continent = ² ;"
    )
    mutations, diagnostics = parse_script(source, geography_schema)
    assert mutations is None
    [d] = diagnostics
    assert (d.line, d.column, d.code) == (2, 27, IssueCode.SYNTAX)
    assert d.message == "expected literal, handle or 'null', found '²'"


@pytest.mark.parametrize("next_line", [None, "; delete x ;"])
def test_string_ends_at_its_line_and_keeps_a_final_backslash(geography_schema, next_line):
    source = 'insert CONTINENTS "a\\'
    expected = [
        "1:19: error [syntax] unterminated string literal",
        "1:19: error [syntax] expected '(', found 'a\\\\'",
    ]
    if next_line is not None:
        # the newline after the backslash is not swallowed into the string
        source += "\n" + next_line
        expected.append("2:10: error [syntax] expected row handle, found 'x'")
    _, diagnostics = parse_script(source, geography_schema)
    assert [d.render() for d in diagnostics] == expected


def test_end_of_input_column_counts_a_trailing_comment():
    _, diagnostics = parse_schema("schema T // no semicolon")
    [d] = diagnostics
    assert (d.line, d.column) == (1, 25)
    assert d.message == "expected ';', found end of input"


@pytest.mark.parametrize(
    "template",
    [
        "bad {left.x}",
        "bad {left[a]}",
        "{right!r}",
        "{witness:>8}",
        "{} and {0}",
        "{mountain}",
        "unclosed {left",
        "stray } brace",
    ],
)
def test_bad_message_template_is_a_positioned_diagnostic(template):
    literal = f'"{template}"'
    source = re.sub(r'"The mountain[^"]*"', lambda _: literal, GEOGRAPHY)
    schema, diagnostics = parse_schema(source)
    assert schema is None
    [d] = errors(diagnostics)
    assert d.code is IssueCode.BAD_MESSAGE_TEMPLATE
    lines = source.splitlines()
    line = next(i for i, text in enumerate(lines, 1) if literal in text)
    assert (d.line, d.column) == (line, lines[line - 1].index(literal) + 1)

