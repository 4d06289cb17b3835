from __future__ import annotations

import ast
import gc
import importlib
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from funcdiag.dsl import (
    Action,
    Binding,
    Expectation,
    HandleRef,
    Mutation,
    _lex,
    _parse_fast,
    _ScriptParser,
    _TOKEN_RE,
    parse_schema,
    parse_script,
)
from funcdiag import model
from funcdiag.model import ConstraintKind, FunctionDef, IssueCode, ScalarType, Schema
from funcdiag.store import RowId

from conftest import fixture_text, mutilate
from printers import format_schema, format_script
from randgen import make_schema

GEOGRAPHY = fixture_text("geography.fd")
NEIGHBORS = fixture_text("neighbors.fd")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


@pytest.mark.parametrize("fixture", ["geography", "neighbors"])
def test_parse_schema_judges_each_name_once(fixture, monkeypatch):
    """judge_schema judges every name once, for parse_schema and for
    Schema(...) alike, and Schema(...) builds its lookup tables once."""
    calls: Counter = Counter()
    judge_name, index_functions = model.judge_name, Schema._index_functions

    def counting(seen, what, name, where=""):
        calls[(what, name, where)] += 1
        return judge_name(seen, what, name, where)

    def indexing(schema):
        calls["tables"] += 1
        index_functions(schema)

    monkeypatch.setattr(model, "judge_name", counting)
    monkeypatch.setattr(Schema, "_index_functions", indexing)
    schema, diagnostics = parse_schema(fixture_text(f"{fixture}.fd"))
    assert schema is not None, diagnostics
    names = Counter([
        *(("set", s.name, "") for s in schema.sets),
        *(("function", fn.name, f" on set {fn.domain!r}") for fn in schema.functions),
        *(("constraint", c.id, "") for c in schema.constraints),
        "tables",
    ])
    assert calls == names
    calls.clear()
    assert Schema(schema.name, schema.sets, schema.functions, schema.constraints) == schema
    assert calls == names


def test_empty_source_reports_no_schema():
    schema, diagnostics = parse_schema("")
    assert schema is None
    assert [d.code for d in diagnostics] == [IssueCode.NO_SCHEMA]
    assert diagnostics[0].line == 1 and diagnostics[0].column == 1


def test_hbfp_constraint_refused_with_classification():
    schema, diagnostics = parse_schema(fixture_text("hbfp.fd"))
    assert schema is None
    [d] = diagnostics
    assert d.code is IssueCode.REFUSED_HBFP
    assert "SameGuide" in d.message


def test_local_constraint_refused_with_classification():
    schema, diagnostics = parse_schema(fixture_text("local.fd"))
    assert schema is None
    [d] = diagnostics
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


@pytest.mark.parametrize(
    "declaration, expected",
    [
        (
            "constraint c commutative on A { left = N . L ; left = N . L ; right = N ; }",
            ["3:48: error [syntax] duplicate 'left' chain"],
        ),
        (
            'constraint c commutative on A { left = N . L ; right = N ; message = "a" ;'
            ' message = "b" ; }',
            ["3:76: error [syntax] duplicate 'message'"],
        ),
        (
            "constraint c commutative on A { left N . L ; right = N ; }",
            [
                "3:12: error [syntax] constraint 'c' declares no left chain",
                "3:38: error [syntax] expected '=', found 'N'",
            ],
        ),
        (
            "constraint c commutative on A { left = N . L ; right = N ; message = 3 ; }",
            ["3:70: error [syntax] expected string literal, found '3'"],
        ),
        (
            "constraint c on A { left = N . L ; right = N ; }",
            ["3:14: error [syntax] expected 'commutative' or 'anticommutative', found 'on'"],
        ),
        (
            "constraint c commutative A { left = N . L ; right = N ; }",
            ["3:26: error [syntax] expected 'on', found 'A'"],
        ),
        (
            "constraint c commutative on A left = N . L ; right = N ; }",
            ["3:31: error [syntax] expected '{', found 'left'"],
        ),
        (
            "constraint c commutative on A { left = ; right = N ; }",
            [
                "3:12: error [syntax] constraint 'c' declares no left chain",
                "3:40: error [syntax] expected function name or 'identity', found ';'",
            ],
        ),
        (
            "constraint c commutative on A { left = N . ; right = N ; }",
            [
                "3:12: error [syntax] constraint 'c' declares no left chain",
                "3:44: error [syntax] expected function name, found ';'",
            ],
        ),
        (
            'constraint c commutative on A { left = N . L ; right = N ; message "m" ; }',
            ["3:68: error [syntax] expected '=', found 'm'"],
        ),
        (
            "constraint c commutative on A { left = N . L ; right = N ; }\n"
            "constraint c commutative on A { left = N . L ; right = N ; }",
            ["4:12: error [duplicate-constraint] duplicate constraint 'c'"],
        ),
        (
            "constraint commutative on A { left = N . L ; right = N ; }",
            ["3:12: error [syntax] expected constraint name, found 'commutative'"],
        ),
    ],
)
def test_constraint_declaration_diagnostics(declaration, expected):
    """Each recovery branch of a constraint declaration, rendered exactly."""
    source = f"schema S ;\nset A {{ name N : text ; L -> A ; }}\n{declaration}\n"
    schema, diagnostics = parse_schema(source)
    assert schema is None
    assert [d.render() for d in diagnostics] == expected


@pytest.mark.parametrize(
    "sets, expected",
    [
        (
            "set A { name N : text ; L -> NOWHERE ; }\n"
            "set A { name N : text ; L -> NOWHERE ; }",
            [
                "2:30: error [unknown-set] link 'L' targets unknown set 'NOWHERE'",
                "3:5: error [duplicate-set] duplicate set 'A'",
                "3:30: error [unknown-set] link 'L' targets unknown set 'NOWHERE'",
            ],
        ),
        (
            "set A { name N : text ; L -> NOWHERE ; L -> ELSEWHERE ; }",
            [
                "2:30: error [unknown-set] link 'L' targets unknown set 'NOWHERE'",
                "2:40: error [duplicate-function] duplicate function 'L' on set 'A'",
                "2:45: error [unknown-set] link 'L' targets unknown set 'ELSEWHERE'",
            ],
        ),
        (
            "set A { name N : text ; f -> ; }",
            ["2:30: error [syntax] expected target set name, found ';'"],
        ),
    ],
)
def test_unknown_link_targets_are_reported_inside_exact_repeats(sets, expected):
    """A repeated set or function is not judged again, but its links'
    targets still are. A link that names no target is refused where the
    name should be."""
    schema, diagnostics = parse_schema(f"schema S ;\n{sets}\n")
    assert schema is None
    assert [d.render() for d in diagnostics] == expected


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
        (
            'insert CONTINENTS (Continent = "Europe") as h ;\n'
            'update @h Continent = "y" ;',
            IssueCode.SYNTAX,
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


def _assert_points_at_offending_text(source: str, diagnostics) -> None:
    """Each diagnostic is in bounds and sits where its message says: at the
    token it found, at the end of input, or at the bad character."""
    lines = source.split("\n")
    for d in diagnostics:
        assert 1 <= d.line <= len(lines), d
        text = lines[d.line - 1]
        assert 1 <= d.column <= len(text) + 1, d
        rest = text[d.column - 1 :]
        found = re.search(r"found (end of input|'.*')$", d.message)
        if found and found[1] == "end of input":
            assert (d.line, d.column) == (len(lines), len(text) + 1), d
        elif found:
            value = ast.literal_eval(found[1])
            assert rest.startswith((value, "@" + value, '"')), (d, rest)
            if rest.startswith('"'):
                assert _TOKEN_RE.match(rest)[1].startswith('"'), (d, rest)
        elif d.message.startswith("unexpected character"):
            assert rest[:1] == ast.literal_eval(d.message.split(" ", 2)[2]), (d, rest)
        elif d.message.startswith("'@' must be followed"):
            assert rest.startswith("@") and _TOKEN_RE.match(rest)[1] is None, (d, rest)
        elif d.message == "unterminated string literal":
            assert rest.startswith('"'), (d, rest)
        else:
            starts = {m.start(1) + 1 for m in _TOKEN_RE.finditer(text) if m[1]}
            assert d.column in starts or d.code is IssueCode.NO_SCHEMA, (d, rest)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutilated_sources_keep_diagnostics_in_bounds(data):
    printed = format_schema(make_schema(random.Random(7), n_constraints=2))
    source = mutilate(data, data.draw(st.sampled_from([GEOGRAPHY, NEIGHBORS, printed])))
    schema, diagnostics = parse_schema(source)
    _assert_points_at_offending_text(source, diagnostics)
    if schema is not None:
        # what parse_schema admits, the API admits unchanged
        assert Schema(schema.name, schema.sets, schema.functions, schema.constraints) == schema


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutilated_scripts_keep_diagnostics_in_bounds(geography_schema, data):
    source = mutilate(data, fixture_text("geography_ac1.fdm"))
    _, diagnostics = parse_script(source, geography_schema)
    _assert_points_at_offending_text(source, diagnostics)
    _assert_parses_as_the_token_parser(source, geography_schema)


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


_ASIA = 'insert CONTINENTS (Continent = "Asia") as asia ;'


@pytest.mark.parametrize("end", ["", "\n"])
def test_trailing_comment_at_end_of_input_is_skipped(geography_schema, end):
    schema, diagnostics = parse_schema(GEOGRAPHY.rstrip("\n") + " // tail" + end)
    assert diagnostics == [] and schema == geography_schema
    mutations, diagnostics = parse_script(_ASIA + " // tail" + end, geography_schema)
    assert diagnostics == []
    assert [(m.action, m.line) for m in mutations] == [(Action.INSERT, 1)]


@pytest.mark.parametrize("tail", [" ", "\t", "\r", "  \t\r", "\r\n", "\n  \r"])
def test_trailing_blanks_and_carriage_returns_end_no_token(geography_schema, tail):
    mutations, diagnostics = parse_script(_ASIA + tail, geography_schema)
    assert diagnostics == []
    assert len(mutations) == 1


def test_crlf_script_parses_like_lf(geography_schema):
    source = fixture_text("geography_ac1.fdm")
    lf, _ = parse_script(source, geography_schema)
    crlf, diagnostics = parse_script(source.replace("\n", "\r\n"), geography_schema)
    assert diagnostics == []
    assert crlf == lf
    assert [m.line for m in crlf] == [m.line for m in lf]


@pytest.mark.parametrize("end, position", [("\n", "3:1"), ("", "2:99")])
def test_comment_inside_a_statement_runs_to_the_end_of_its_line(
    geography_schema, end, position
):
    # A skipped prefix that backtracks at the end of input would lex
    # "= @asia, ..." out of the comment.
    source = (
        f"{_ASIA}\n"
        'insert RIVERS (River = "R", Continent = @asia,'
        " Continen//= @asia, Mountain = null) expect accept ;" + end
    )
    _, diagnostics = parse_script(source, geography_schema)
    assert [d.render() for d in diagnostics] == [
        f"{position}: error [syntax] expected '=', found end of input"
    ]


def test_an_unterminated_string_keeps_its_trailing_blanks(geography_schema):
    _, diagnostics = parse_script(
        'insert CONTINENTS (Continent = "Asia \r', geography_schema
    )
    assert [d.render() for d in diagnostics] == [
        "1:32: error [syntax] unterminated string literal",
        "1:39: error [syntax] expected ')', found end of input",
    ]


@pytest.mark.parametrize(
    "tail", ["", " // c", "\n", "  \t", "\r", "\r\n", " // c  \r\n\r\n  ", " $"]
)
def test_exactly_one_eof_at_the_end_of_the_last_line(tail):
    source = "schema T" + tail
    tokens, lines, _, _ = _lex(source)
    assert tokens.count("") == 1 and tokens[-1] == ""
    assert lines[-1] == source.count("\n") + 1
    _, diagnostics = parse_schema(source)
    [at_end] = [d for d in diagnostics if d.message.endswith("found end of input")]
    assert at_end.message == "expected ';', found end of input"
    last = source.split("\n")[-1]
    assert (at_end.line, at_end.column) == (lines[-1], len(last) + 1)


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
    [d] = diagnostics
    assert d.code is IssueCode.BAD_MESSAGE_TEMPLATE
    lines = source.splitlines()
    line = next(i for i, text in enumerate(lines, 1) if literal in text)
    assert (d.line, d.column) == (line, lines[line - 1].index(literal) + 1)


# -- the fast path against the token parser ------------------------------------


def _assert_parses_as_the_token_parser(source: str, schema: Schema) -> None:
    """parse_script gives what the token parser alone gives for the whole
    script: the same diagnostics, byte for byte, or the same mutations on
    the same lines (`line` takes no part in equality)."""
    mutations, diagnostics = parse_script(source, schema)
    parser = _ScriptParser(source, schema)
    expected = parser.parse()
    expected_diagnostics = sorted(
        parser.diagnostics, key=lambda d: (d.line, d.column, d.code.value)
    )
    assert [d.render() for d in diagnostics] == [
        d.render() for d in expected_diagnostics
    ]
    if not expected_diagnostics:
        assert mutations == expected
        assert [m.line for m in mutations] == [m.line for m in expected]


_FIXTURE_SCRIPTS = {
    "geography_ac1": "geography.fd",
    "geography_standing": "geography.fd",
    "neighbors_ac2": "neighbors.fd",
    "neighbors_standing": "neighbors.fd",
}
_WORKLOADS = ["geo-accept", "geo-reject", "neighbors-recolor"]


def _schema_and_script(name: str, monkeypatch) -> tuple[Schema, str]:
    """A fixture script, or a benchmark workload's script at a small scale."""
    if name in _FIXTURE_SCRIPTS:
        schema_text = fixture_text(_FIXTURE_SCRIPTS[name])
        source = fixture_text(f"{name}.fdm")
    else:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workload = importlib.import_module("gen").generate(name, seed=1, scale=0.05)
        schema_text, source = workload.schema, workload.script
    schema, diagnostics = parse_schema(schema_text)
    assert schema is not None, diagnostics
    return schema, source


@pytest.mark.parametrize("name", [*_FIXTURE_SCRIPTS, *_WORKLOADS])
def test_fixture_and_workload_scripts_parse_as_the_token_parser(name, monkeypatch):
    schema, source = _schema_and_script(name, monkeypatch)
    _assert_parses_as_the_token_parser(source, schema)


@pytest.mark.parametrize("name", [*_FIXTURE_SCRIPTS, *_WORKLOADS])
def test_every_fixture_and_workload_statement_takes_the_fast_path(name, monkeypatch):
    schema, source = _schema_and_script(name, monkeypatch)
    lines = source.split("\n")
    mutations, _, first = _parse_fast(lines, schema)
    assert first == len(lines), f"line {first + 1}: {lines[first]!r}"
    assert len(mutations) == len(_ScriptParser(source, schema).parse())


def _split_midway(source: str) -> str:
    """The script with the insert nearest its middle broken after its `(`:
    the fast path stops at that line and the token parser reads the rest."""
    lines = source.split("\n")
    inserts = [i for i, text in enumerate(lines) if text.startswith("insert")]
    i = min(inserts, key=lambda i: abs(i - len(lines) // 2))
    lines[i] = lines[i].replace("(", "(\n", 1)
    return "\n".join(lines)


def _assert_shares_what_repeats(mutations: list[Mutation], schema: Schema) -> None:
    """Every reference to a handle is one HandleRef object, whose set_name
    is the schema's own str for the set its insert names, and every set and
    function name is the schema's own str object."""
    bound: dict[str, str] = {}  # each handle's insert's set
    refs: dict[str, HandleRef] = {}

    def assert_shared(ref: HandleRef) -> None:
        assert refs.setdefault(ref.name, ref) is ref
        assert ref.set_name is bound[ref.name]

    for m in mutations:
        if m.action is Action.INSERT:
            set_name = m.set_name
            assert set_name is schema.set_def(set_name).name
            if m.handle is not None:
                bound[m.handle] = set_name
        else:
            assert_shared(m.row_ref)
            set_name = m.row_ref.set_name
        for binding in m.bindings:
            assert binding.function is schema.function(set_name, binding.function).name
            if isinstance(binding.value, HandleRef):
                assert_shared(binding.value)


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split-midway"])
@pytest.mark.parametrize("name", [*_FIXTURE_SCRIPTS, *_WORKLOADS])
def test_parsed_scripts_share_what_repeats_on_either_path(name, split, monkeypatch):
    schema, source = _schema_and_script(name, monkeypatch)
    if split:
        source = _split_midway(source)
        lines = source.split("\n")
        _, refs, first = _parse_fast(lines, schema)
        assert refs and 0 < first < len(lines) - 1
    _assert_parses_as_the_token_parser(source, schema)
    mutations, _ = parse_script(source, schema)
    _assert_shares_what_repeats(mutations, schema)
    _assert_shares_what_repeats(_ScriptParser(source, schema).parse(), schema)


# Retained by the parsed seed-1 workload scripts at scale 0.05 (CPython
# 3.11, tracemalloc): 429-434 bytes per statement, against 788-801 when
# every reference made its own HandleRef and every name its own str. The
# bound leaves 30% headroom for other interpreter versions.
_PARSED_BYTES_PER_STATEMENT = 560


@pytest.mark.parametrize("name", _WORKLOADS)
def test_a_parsed_script_retains_at_most_its_bytes_per_statement(name, monkeypatch):
    schema, source = _schema_and_script(name, monkeypatch)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mutations, _ = parse_script(source, schema)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained / len(mutations) <= _PARSED_BYTES_PER_STATEMENT


_MIXED = parse_schema(
    "schema T ;\n"
    "set A { name N : text ; Depth : integer ? ; }\n"
    "set B { name M : text ; Up -> A ? ; Peer -> B ? ; }\n"
)[0]
_BOUND = 'insert A (N = "a") as a ;\ninsert B (M = "b", Up = @a) as b ;\n'

# Lines on which several rules fire at once, each with every diagnostic it
# gets on line 3, after _BOUND. An unbound handle is reported as unbound,
# and is a value of the wrong kind only where no handle may stand.
_CLASHES = {
    "insert A (N = @ghost) ;": [
        "3:15: error [type-mismatch] attribute 'N' cannot take a row handle",
        "3:15: error [unbound-handle] handle 'ghost' is not bound by any earlier insert",
    ],
    'insert B (M = "m", Up = @ghost, Up = 5) ;': [
        "3:1: error [syntax] duplicate binding for 'Up'",
        "3:25: error [unbound-handle] handle 'ghost' is not bound by any earlier insert",
        "3:38: error [type-mismatch] link 'Up' takes a row handle or null, not a literal",
    ],
    "insert C (N = @ghost) ;": [
        "3:8: error [unknown-set] unknown set 'C'",
        "3:15: error [unbound-handle] handle 'ghost' is not bound by any earlier insert",
    ],
    "insert A (Nope = @ghost) ;": [
        "3:11: error [unknown-function] no function 'Nope' on set 'A'",
        "3:18: error [unbound-handle] handle 'ghost' is not bound by any earlier insert",
    ],
    "update @ghost set Nope = 5 ;": [
        "3:8: error [unbound-handle] handle 'ghost' is not bound by any earlier insert",
    ],
    "update @b set Up = @b, Peer = @a ;": [
        "3:20: error [type-mismatch] link 'Up' targets 'A' but handle 'b' holds a row"
        " of 'B'",
        "3:31: error [type-mismatch] link 'Peer' targets 'B' but handle 'a' holds a"
        " row of 'A'",
    ],
    # a handle is resolved only once its statement reads as an update
    'update @ghost N = "y" ;': ["3:15: error [syntax] expected 'set', found 'N'"],
    'insert A (N = "x", N = 5, N = @a) ;': [
        "3:1: error [syntax] duplicate binding for 'N'",
        "3:1: error [syntax] duplicate binding for 'N'",
        "3:24: error [type-mismatch] attribute 'N' holds text",
        "3:31: error [type-mismatch] attribute 'N' cannot take a row handle",
    ],
}


@pytest.mark.parametrize(
    "line",
    [
        # taken whole, or valid only for the token parser
        'insert A (N="x")as x;',
        '  update@a set N="y"expect accept;// done',
        "update @a set Depth = 5expect accept ;",
        "update @a set Depth = ٣ ;",
        'insert A (N = "x") as é ;',
        'insert A (N = "x") as ²x ;',
        'insert A (N = "x\\q\\"//") as asx ;',
        'insert A (N = "x") ; insert A (N = "y") ;',
        "insert A () as empty ; // comment ;",
        "update @b set Up = null, Peer = @b, M = \"m\" expect reject ;",
        "update @a set Depth = -0009223372036854775808 ;",
        # refused, each for one reason
        'insert A (N = "x") as hexpect accept ;',
        'insert A (N = "x") expectaccept ;',
        "update @a set N = nullexpect reject ;",
        'insert A (N = "x") as null ;',
        'insert A (N = "x") as a ;',
        'insert A (N = "x", N = "y") ;',
        "update @b set Up = @a, Up = null ;",
        "insert A (N = @a) ;",
        'insert B (M = "m", Up = "a") ;',
        "insert A (N = 5) ;",
        'insert A (N = "x", Depth = "5") ;',
        'insert B (M = "m", Up = @b) ;',
        'insert B (M = "m", Peer = @p) as p ;',
        'insert C (N = "x") ;',
        "insert C () ;",
        'insert A (Up = @a) ;',
        "update @ghost set N = null ;",
        "delete @ghost ;",
        "update @a set ;",
        'update @a set N = "x" expect maybe ;',
        "update @a set Depth = 9223372036854775808 ;",
        "update @a set Depth = - 5 ;",
        'insert A (N = "x" // c',
        'insert A (N = "x"y") ;',
        'insert A (N = "x") \f;',
        "\f// a form feed is no blank",
        "delete @a",
        *_CLASHES,
    ],
)
def test_tricky_lines_parse_as_the_token_parser(line):
    for end in ("\n", "\r\n"):
        source = (_BOUND + line + "\ndelete @b ;\n").replace("\n", end)
        _assert_parses_as_the_token_parser(source, _MIXED)
        if line in _CLASHES:
            _, diagnostics = parse_script(source, _MIXED)
            assert [d.render() for d in diagnostics] == _CLASHES[line]


_STRING_PIECES = ["a", " ", "é", "//", '\\"', "\\\\", "\\n", "\\t", "\\q", "\r"]
_INTEGERS = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(str),
    st.sampled_from(["-0", "007", str(2**63 - 1), str(-(2**63))]),
)
_HANDLE_STEMS = ["h", "as_", "expected", "nullish", "é", "set"]


@st.composite
def _literals(draw, fn: FunctionDef, bound: dict[str, list[str]]) -> str:
    """A literal that function `fn` takes, given the handles `bound` so far."""
    if fn.codomain is ScalarType.TEXT:
        pieces = draw(st.lists(st.sampled_from(_STRING_PIECES), max_size=5))
        options = [st.just('"' + "".join(pieces) + '"')]
    elif fn.codomain is ScalarType.INTEGER:
        options = [_INTEGERS]
    else:
        options = [st.sampled_from(["@" + h for h in bound[fn.codomain]])]
        options = options if bound[fn.codomain] else []
    return draw(st.one_of(st.just("null"), *options))


@st.composite
def _valid_scripts(draw) -> str:
    """A script that parses without a diagnostic on _MIXED, laid out at
    random: blanks and comments between and after tokens, blank and
    comment lines, CRLF, and now and then a statement split across lines."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bound: dict[str, list[str]] = {s.name: [] for s in _MIXED.sets}
    lines = []
    for i in range(draw(st.integers(1, 12))):
        handles = [(h, s) for s in bound for h in bound[s]]
        actions = ["insert", "update", "delete"] if handles else ["insert"]
        action = draw(st.sampled_from(actions))
        if action == "insert":
            set_name = draw(st.sampled_from(sorted(bound)))
        else:
            handle, set_name = draw(st.sampled_from(handles))
        functions = st.sampled_from(_MIXED.functions_of(set_name))
        chosen = draw(
            st.lists(functions, unique=True, min_size=action == "update")
        )
        bindings = []
        for fn in chosen:
            bindings += [",", fn.name, "=", draw(_literals(fn, bound))]
        if action == "insert":
            tokens = ["insert", set_name, "(", *bindings[1:], ")"]
            if draw(st.booleans()):
                name = draw(st.sampled_from(_HANDLE_STEMS)) + str(i)
                tokens += ["as", name]
                bound[set_name].append(name)
        elif action == "update":
            tokens = ["update", "@" + handle, "set", *bindings[1:]]
        else:
            tokens = ["delete", "@" + handle]
        if draw(st.booleans()):
            tokens += ["expect", draw(st.sampled_from(["accept", "reject"]))]
        tokens.append(";")
        gaps = [draw(st.sampled_from(["", " ", "  ", "\t", " \r "])) for _ in tokens]
        gaps[0] = draw(st.sampled_from(["", " ", "\t"]))
        for k in range(1, len(tokens)):
            # the lexer would read two words with nothing between as one
            words = re.match(r"\w", tokens[k - 1][-1]) and re.match(r"[\w@]", tokens[k][0])
            if words and not gaps[k]:
                gaps[k] = " "
        if draw(st.integers(0, 5)) == 0:
            k = draw(st.integers(1, len(tokens) - 1))
            gaps[k] = draw(st.sampled_from([newline, " // split" + newline + "  "]))
        tail = draw(st.sampled_from(["", " ", "\t// done", " // ; insert"]))
        lines.append("".join(g + t for g, t in zip(gaps, tokens)) + tail)
        extra = st.sampled_from(["", "  ", "// note", " \t// x ;"])
        lines += draw(st.lists(extra, max_size=1))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(source=_valid_scripts())
def test_valid_scripts_parse_as_the_token_parser(source):
    mutations, diagnostics = parse_script(source, _MIXED)
    assert diagnostics == [], source
    _assert_parses_as_the_token_parser(source, _MIXED)


# -- script records -------------------------------------------------------------


def test_script_records_equal_only_records_of_their_own_class():
    assert Binding("a", 1) == Binding("a", 1)
    assert hash(Binding("a", 1)) == hash(Binding("a", 1))
    assert Binding("a", 1) != RowId("a", 1) and RowId("a", 1) != Binding("a", 1)
    assert Binding("a", 1) != ("a", 1) and ("a", 1) != Binding("a", 1)
    assert HandleRef("x") != ("x",) and HandleRef("x") != "x"
    assert len({HandleRef("x"), HandleRef("x"), Binding("x", None)}) == 2


def test_mutations_differing_only_in_line_are_equal_and_hash_alike():
    first = Mutation(Action.DELETE, row_ref=HandleRef("x"), line=1)
    second = Mutation(Action.DELETE, row_ref=HandleRef("x"), line=2)
    assert first == second and hash(first) == hash(second)
    assert first != Mutation(Action.DELETE, row_ref=HandleRef("y"), line=1)


def test_a_handle_refs_set_takes_no_part_in_equality_hash_or_repr():
    bound, bare = HandleRef("h", "A"), HandleRef("h")
    assert bound == bare and hash(bound) == hash(bare)
    assert repr(bound) == repr(bare) == "HandleRef(name='h')"
    assert bound.set_name == "A" and bare.set_name is None


def test_script_record_reprs():
    assert repr(HandleRef("x")) == "HandleRef(name='x')"
    assert repr(Binding("f", None)) == "Binding(function='f', value=None)"
    assert repr(
        Mutation(
            Action.INSERT,
            set_name="A",
            bindings=(Binding("N", "x"), Binding("Up", HandleRef("a"))),
            handle="h",
            expectation=Expectation.ACCEPT,
            line=7,
        )
    ) == (
        "Mutation(action=<Action.INSERT: 'insert'>, set_name='A', row_ref=None,"
        " bindings=(Binding(function='N', value='x'),"
        " Binding(function='Up', value=HandleRef(name='a'))), handle='h',"
        " expectation=<Expectation.ACCEPT: 'accept'>, line=7)"
    )
