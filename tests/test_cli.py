from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from funcdiag.cli import main

from conftest import FIXTURES, fixture_text, mutilate


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


def test_gen_emits_row_sources_for_a_1500_function_chain(tmp_path):
    schema = tmp_path / "loop.fd"
    schema.write_text(
        "schema Loop ;\n"
        "set A { name N : text ; f -> A ; }\n"
        f"constraint c commutative on A {{ left = N{' . f' * 1500} ; right = N ; }}\n",
        encoding="utf-8",
    )
    result = CliRunner().invoke(main, ["gen", str(schema), "--what", "row-sources"])
    assert result.exit_code == 0, result.exception
    assert result.output.count("RIGHT JOIN") == 1499


@pytest.mark.parametrize(
    "schema, script", [("geography", "geography_ac1"), ("neighbors", "neighbors_ac2")]
)
@pytest.mark.parametrize("suffix, flags", [("json", ["--json"]), ("txt", [])])
def test_run_output_matches_golden(schema, script, suffix, flags):
    """Messages, to_json_dict, render_line and rows_inspected, byte for byte."""
    args = ["run", str(FIXTURES / f"{schema}.fd"), str(FIXTURES / f"{script}.fdm")]
    result = CliRunner().invoke(main, args + flags)
    assert result.exit_code == 0, result.output
    golden = FIXTURES / "runs" / f"{script}.{suffix}"
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
