from __future__ import annotations

import json
import sqlite3
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from funcdiag import cli
from funcdiag.cli import main
from funcdiag.codegen import Dialect, emit_units
from funcdiag.dsl import Action, Binding, Expectation, Mutation
from funcdiag.engine import (
    ChangedLink,
    Outcome,
    Verdict,
    Violation,
    ViolationKind,
    apply_mutation,
)
from funcdiag.store import RowId

from conftest import FIXTURES, fixture_text, mutilate, seeded_geography


def test_run_reports_a_superscript_digit_as_a_positioned_diagnostic(tmp_path):
    script = tmp_path / "sup.fdm"
    script.write_text(
        'insert CONTINENTS (Continent = "Europe") as c ;\n'
        "update @c set Continent = ² ;\n",
        encoding="utf-8",
    )
    schema = FIXTURES / "geography.fd"
    result = CliRunner().invoke(main, ["run", str(schema), str(script)])
    assert result.exit_code == 2, result.output
    assert f"{script}:2:27: error [syntax] expected literal" in result.stderr


def test_run_reports_a_5000_digit_integer_as_a_positioned_diagnostic(tmp_path):
    script = tmp_path / "long.fdm"
    script.write_text(
        'insert CONTINENTS (Continent = "Europe") as c ;\n'
        f"update @c set Continent = {'1' * 5000} ;\n",
        encoding="utf-8",
    )
    schema = FIXTURES / "geography.fd"
    result = CliRunner().invoke(main, ["run", str(schema), str(script)])
    assert result.exit_code == 2, result.output
    assert f"{script}:2:27: error [syntax] integer literal outside" in result.stderr


def test_gen_refuses_a_1500_function_chain_at_the_join_limit(tmp_path):
    """Its triggers would join 1500 tables, so the schema is refused with
    a positioned diagnostic before anything is emitted."""
    schema = tmp_path / "loop.fd"
    schema.write_text(
        "schema Loop ;\n"
        "set A { name N : text ; f -> A ; }\n"
        f"constraint c commutative on A {{ left = N{' . f' * 1500} ; right = N ; }}\n",
        encoding="utf-8",
    )
    result = CliRunner().invoke(main, ["gen", str(schema), "--what", "row-sources"])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert f"{schema}:3:12: error [join-limit] constraint 'c' composes 1501 + 1 functions" in (
        result.stderr
    )


@pytest.mark.parametrize(
    "schema, script", [("geography", "geography_ac1"), ("neighbors", "neighbors_ac2")]
)
@pytest.mark.parametrize("suffix, flags", [("json", ["--json"]), ("txt", [])])
def test_run_output_matches_golden(schema, script, suffix, flags):
    """Messages, both report layouts and rows_inspected, byte for byte."""
    args = ["run", str(FIXTURES / f"{schema}.fd"), str(FIXTURES / f"{script}.fdm")]
    result = CliRunner().invoke(main, args + flags)
    assert result.exit_code == 0, result.output
    golden = FIXTURES / "runs" / f"{script}.{suffix}"
    assert result.stdout == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "schema, script",
    [("geography", "geography_standing"), ("neighbors", "neighbors_standing")],
)
def test_check_output_matches_golden(schema, script):
    """Standing violations of a raw-applied script, one line each."""
    args = ["check", str(FIXTURES / f"{schema}.fd"), str(FIXTURES / f"{script}.fdm")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    golden = FIXTURES / "checks" / f"{script}.txt"
    assert result.stdout == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("flags", [["--json"], ["--json", "--stop-on-reject"]])
def test_streamed_json_report_is_laid_out_as_json_dumps(tmp_path, flags):
    empty = tmp_path / "empty.fdm"
    empty.write_text("// nothing to do\n", encoding="utf-8")
    for script in (FIXTURES / "geography_ac1.fdm", empty):
        args = ["run", str(FIXTURES / "geography.fd"), str(script), *flags]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stdout == json.dumps(json.loads(result.stdout), indent=2) + "\n"


# Text that needs escaping: quotes, backslashes, control and non-ASCII
# characters, astral ones included, beside whatever Hypothesis draws.
JSON_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7féπ€\u2028😀') | st.characters())
JSON_ROWS = st.builds(RowId, JSON_TEXT, st.integers(min_value=0))
JSON_VALUES = st.none() | st.integers() | JSON_TEXT | JSON_ROWS


def json_value(value):
    """A value as the JSON report holds it: a row id is {"set", "x"}."""
    if isinstance(value, RowId):
        return {"set": value.set_name, "x": value.x}
    return value


def violation_dict(v: Violation) -> dict:
    """One violation of the JSON report, as json.loads reads it back."""
    changed = v.changed
    return {
        "constraint": v.constraint,
        "kind": v.kind.value,
        "witness": json_value(v.witness),
        "left": json_value(v.left),
        "right": json_value(v.right),
        "changed": (
            None
            if changed is None
            else {"set": changed.set_name, "function": changed.function, "x": changed.row.x}
        ),
        "message": v.message,
    }


JSON_VIOLATIONS = st.builds(
    Violation,
    st.none() | JSON_TEXT,
    st.sampled_from(ViolationKind),
    st.none() | JSON_ROWS,
    JSON_VALUES,
    JSON_VALUES,
    st.none() | st.builds(ChangedLink, JSON_TEXT, JSON_TEXT, JSON_ROWS),
    JSON_TEXT,
)


@settings(max_examples=150, deadline=None)
@given(
    index=st.integers(min_value=0),
    line=st.integers(min_value=0),
    action=st.sampled_from(Action),
    set_name=JSON_TEXT,
    outcome=st.sampled_from(Outcome),
    violations=st.lists(JSON_VIOLATIONS, max_size=4),
    expectation=st.none() | st.sampled_from(Expectation),
    expectation_ok=st.none() | st.booleans(),
    inspected=st.integers(min_value=0),
)
def test_json_record_is_laid_out_as_json_dumps(
    index, line, action, set_name, outcome, violations, expectation, expectation_ok, inspected
):
    """A run record, byte for byte as json.dumps(report, indent=2) writes it
    where it sits in the report, four spaces deep."""
    m = Mutation(action, expectation=expectation, line=line)
    verdict = Verdict(outcome, tuple(violations))
    record = {
        "index": index,
        "line": line,
        "action": action.value,
        "set": set_name,
        "verdict": outcome.value,
        "violations": [violation_dict(v) for v in violations],
        "expected": expectation.value if expectation else None,
        "expectation_ok": expectation_ok,
        "rows_inspected": inspected,
    }
    expected = json.dumps(record, indent=2).replace("\n", "\n    ")
    assert cli._json_record(index, m, set_name, verdict, expectation_ok, inspected) == expected


def test_violation_json_shape(geography_schema):
    db, handles = seeded_geography(geography_schema)
    verdict = apply_mutation(
        db,
        Mutation(
            Action.UPDATE,
            row_ref=handles["alps"],
            bindings=(Binding("Continent", handles["asia"]),),
        ),
    )
    violation = verdict.violations[0]
    payload = json.loads(cli._json_violation(violation))
    assert payload == violation_dict(violation)
    assert payload["constraint"] == "GeoContinent"
    assert payload["kind"] == "commutative"
    assert payload["witness"] == {"set": "RIVERS", "x": handles["danube"].x}
    assert payload["changed"]["function"] == "Continent"


def test_store_error_violation_reports_its_text():
    violation = Violation(
        None, ViolationKind.STORE_ERROR, None, None, None, None, "no row 'S#3'"
    )
    assert json.loads(cli._json_violation(violation)) == violation_dict(violation)
    assert cli._render_line(violation) == (
        "constraint=- kind=store-error witness=null left=null right=null"
        " :: no row 'S#3'"
    )


COMMANDS = [
    ["validate", "{fd}"],
    ["run", "{fd}", "{fdm}"],
    ["run", "{fd}", "{fdm}", "--json", "--stop-on-reject"],
    ["check", "{fd}", "{fdm}"],
    ["gen", "{fd}"],
    ["gen", "{fd}", "--dialect", "generic-sql", "--what", "link-checks"],
]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), command=st.sampled_from(COMMANDS), which=st.sampled_from(["fd", "fdm"]))
def test_cli_on_mutilated_input_exits_cleanly(data, command, which):
    sources = {"fd": fixture_text("geography.fd"), "fdm": fixture_text("geography_ac1.fdm")}
    sources[which] = mutilate(data, sources[which])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in sources.items():
            paths[name] = Path(tmp) / f"input.{name}"
            paths[name].write_text(text, encoding="utf-8")
        args = [arg.format(**paths) for arg in command]
        result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exc_info
    )
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "command",
    [
        ["validate", "{bad}"],
        ["gen", "{bad}"],
        ["run", "{bad}", "{fdm}"],
        ["run", "{fd}", "{bad}"],
        ["check", "{fd}", "{bad}"],
    ],
)
def test_non_utf8_input_is_an_io_error(tmp_path, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"schema Caf\xe9 ;\n")
    paths = {
        "bad": bad,
        "fd": FIXTURES / "geography.fd",
        "fdm": FIXTURES / "geography_ac1.fdm",
    }
    result = CliRunner().invoke(main, [arg.format(**paths) for arg in command])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.stderr.startswith(f"error: {bad}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("under", ["", "sub"])
def test_gen_out_on_a_file_is_an_io_error(tmp_path, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker / under if under else blocker
    result = CliRunner().invoke(
        main, ["gen", str(FIXTURES / "geography.fd"), "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.stderr.startswith("error: ")
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_gen_out_writes_one_file_per_unit_and_prints_each_path(tmp_path, geography_schema):
    out = tmp_path / "units"
    args = ["gen", str(FIXTURES / "geography.fd"), "--dialect", "generic-sql", "--out", str(out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    units = emit_units(
        geography_schema, geography_schema.constraints, "all", Dialect.GENERIC_SQL
    )
    assert result.stdout == "".join(f"{out / unit.filename}\n" for unit in units)
    assert sorted(path.name for path in out.iterdir()) == sorted(u.filename for u in units)
    for unit in units:
        assert (out / unit.filename).read_text(encoding="utf-8") == unit.body + "\n"


def test_gen_constraint_emits_only_that_constraints_units(tmp_path, geography_schema):
    schema = tmp_path / "two.fd"
    second = fixture_text("geography.fd").split("constraint ")[1].replace(
        "GeoContinent commutative", "GeoCopy anticommutative", 1
    )
    schema.write_text(fixture_text("geography.fd") + "\nconstraint " + second, encoding="utf-8")
    both = CliRunner().invoke(main, ["gen", str(schema)])
    assert both.exit_code == 0, both.output
    assert "GeoContinent" in both.stdout and "GeoCopy" in both.stdout
    result = CliRunner().invoke(main, ["gen", str(schema), "--constraint", "GeoCopy"])
    assert result.exit_code == 0, result.output
    headers = [line for line in result.stdout.splitlines() if line.startswith("-- ")]
    assert headers and all(".GeoCopy." in line for line in headers)
    assert "GeoContinent" not in result.stdout
    # generic-sql still emits every set's table, so its output installs alone
    args = ["gen", str(schema), "--constraint", "GeoCopy", "--dialect", "generic-sql"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    connection = sqlite3.connect(":memory:")
    connection.executescript(result.stdout)
    tables = connection.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
    assert [name for (name,) in tables] == [s.name for s in geography_schema.sets]
    triggers = connection.execute("SELECT name FROM sqlite_master WHERE type = 'trigger'")
    assert {name.split(".")[0] for (name,) in triggers} == {"GeoCopy"}
    connection.close()


def test_gen_row_sources_in_generic_sql_are_a_usage_error():
    args = ["gen", str(FIXTURES / "geography.fd"), "--what", "row-sources"]
    result = CliRunner().invoke(main, args + ["--dialect", "generic-sql"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == "error: row sources exist only in the paper-style dialect\n"


def test_gen_constraint_names_an_unknown_id():
    args = ["gen", str(FIXTURES / "geography.fd"), "--constraint", "nope"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == "error: no constraint 'nope'\n"


def _run_script(tmp_path, lines, *flags):
    script = tmp_path / "script.fdm"
    script.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return CliRunner().invoke(
        main, ["run", *flags, str(FIXTURES / "geography.fd"), str(script)]
    )


# The seed statements of geography_ac1.fdm, then a river that GeoContinent
# rejects although it expects to be accepted, then an update through the
# handle that the rejected insert would have bound.
_RHONE = fixture_text("geography_ac1.fdm").splitlines()[:13] + [
    'insert RIVERS (River = "Rhone", Continent = @asia, Mountain = @montblanc)'
    " as rhone expect accept ;",
    'update @rhone set River = "Rhône" ;',
]


def test_run_names_the_set_of_an_update_through_a_rejected_insert(tmp_path):
    result = _run_script(tmp_path, _RHONE)
    assert result.exit_code == 1, result.output
    assert result.stdout.splitlines()[-3:] == [
        "[13] line 15 update RIVERS -> REJECTED",
        "    constraint=- kind=store-error witness=null left=null right=null"
        " :: handle @rhone does not name an applied insert",
        "14 mutations: 12 applied, 2 rejected, 1 expectation failures",
    ]
    report = json.loads(_run_script(tmp_path, _RHONE, "--json").stdout)
    record = report["mutations"][13]
    assert (record["action"], record["set"], record["verdict"]) == (
        "update",
        "RIVERS",
        "rejected",
    )


def test_run_exits_1_on_a_failed_expectation(tmp_path):
    result = _run_script(
        tmp_path, ['insert CONTINENTS (Continent = "Europe") as eu expect reject ;']
    )
    assert result.exit_code == 1, result.output
    assert result.stdout == (
        "[0] line 1 insert CONTINENTS -> APPLIED expect reject: FAILED\n"
        "1 mutations: 1 applied, 0 rejected, 1 expectation failures\n"
    )


def test_run_exits_1_on_a_store_error_in_a_statement_with_no_expect(tmp_path):
    result = _run_script(
        tmp_path,
        [
            'insert CONTINENTS (Continent = "Europe") as eu ;',
            'insert MOUNTAIN_RANGES (Range = "Alps", Continent = @eu) ;',
            "delete @eu ;",
        ],
    )
    assert result.exit_code == 1, result.output
    assert result.stdout.splitlines()[-3:] == [
        "[2] line 3 delete CONTINENTS -> REJECTED",
        "    constraint=- kind=store-error witness=null left=null right=null"
        " :: cannot delete CONTINENTS#1: referenced by MOUNTAIN_RANGES#1",
        "3 mutations: 2 applied, 1 rejected, 0 expectation failures",
    ]


def test_run_on_a_missing_script_is_an_io_error(tmp_path):
    missing = tmp_path / "missing.fdm"
    result = CliRunner().invoke(main, ["run", str(FIXTURES / "geography.fd"), str(missing)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_check_stops_at_a_failing_statement(tmp_path):
    """A refusal the script does not expect stops check with exit 2, not
    the 1 of violations found, even when it expects the statement
    accepted."""
    script = tmp_path / "twice.fdm"
    for expect in ("", " expect accept"):
        script.write_text(
            'insert CONTINENTS (Continent = "Europe") as c ;\n'
            "delete @c ;\n"
            f"delete @c{expect} ;\n",
            encoding="utf-8",
        )
        result = CliRunner().invoke(main, ["check", str(FIXTURES / "geography.fd"), str(script)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == "statement 2 (line 3) failed: no row CONTINENTS#1\n"


def test_check_skips_a_refusal_the_script_expects(tmp_path):
    """A store refusal of a statement marked `expect reject` is reported on
    stderr and skipped, and check goes on to the standing violations; a
    handle that a refused insert left unbound is refused alike."""
    script = tmp_path / "refused.fdm"
    script.write_text(
        'insert CONTINENTS (Continent = "Europe") as eu ;\n'
        'insert CONTINENTS (Continent = "Asia") as asia ;\n'
        'insert MOUNTAIN_RANGES (Range = "Alps", Continent = @eu) as alps ;\n'
        "delete @eu expect reject ;\n"
        'insert MOUNTAIN_RANGES (Range = "Urals") as urals expect reject ;\n'
        "update @urals set Continent = @asia expect reject ;\n"
        'insert MOUNT_SUBRANGES (Subrange = "West", Range = @alps) as west ;\n'
        'insert MOUNT_GROUPS (MountGroup = "Massif", Subrange = @west) as massif ;\n'
        'insert MOUNTAINS (Mountain = "Blanc", Group = @massif) as blanc ;\n'
        'insert RIVERS (River = "Po", Continent = @asia, Mountain = @blanc) ;\n',
        encoding="utf-8",
    )
    result = CliRunner().invoke(main, ["check", str(FIXTURES / "geography.fd"), str(script)])
    assert result.exit_code == 1, result.output
    assert result.stdout.splitlines()[0] == "1 rows scanned, 1 violations"
    assert result.stderr == (
        "statement 3 (line 4) refused, as expected:"
        " cannot delete CONTINENTS#1: referenced by MOUNTAIN_RANGES#1\n"
        "statement 4 (line 5) refused, as expected:"
        " insert into 'MOUNTAIN_RANGES' misses required 'Continent'\n"
        "statement 5 (line 6) refused, as expected:"
        " handle @urals does not name an applied insert\n"
    )
