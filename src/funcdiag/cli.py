"""Command-line front end: validate, run, check, gen.

Exit codes: 0 success, 1 semantic failure (failed expectations, store
errors in unguarded statements, refused constraint classes, standing
violations found by check), 2 I/O, parse or usage failure, including an
input file that is not UTF-8, a `gen --out` path that cannot be made a
directory or written into, and a `gen --constraint` id that the schema
does not declare.

This module alone lays out the two report formats: the text line of a
violation, which `run` and `check` both print (_render_line), and the
records of `run --json` (_json_record). Engine and oracle hand it
violations as plain data; each violation's message comes from its
constraint (DiagramConstraint.format_message).
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import NoReturn

import click

from . import codegen, dsl, engine, oracle
from .model import IssueCode, Schema, render_value
from .store import Database, RowId, StoreError, Value

_REFUSAL_CODES = {IssueCode.REFUSED_HBFP, IssueCode.REFUSED_LOCAL}


@click.group()
def main() -> None:
    """Diagram-constraint tooling: schema validation, script replay,
    standing checks, and check-code generation."""


def _fail(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(str(exc))
    except UnicodeDecodeError as exc:
        _fail(f"{path}: {exc}")


def _load_schema(schema_path: str) -> Schema:
    source = _read(schema_path)
    schema, diagnostics = dsl.parse_schema(source)
    if schema is None:
        for d in diagnostics:
            click.echo(f"{schema_path}:{d.render()}", err=True)
        only_refusals = all(d.code in _REFUSAL_CODES for d in diagnostics)
        sys.exit(1 if only_refusals else 2)
    return schema


def _load_script(script_path: str, schema: Schema) -> list[dsl.Mutation]:
    mutations, diagnostics = dsl.parse_script(_read(script_path), schema)
    if mutations is None:
        for d in diagnostics:
            click.echo(f"{script_path}:{d.render()}", err=True)
        sys.exit(2)
    return mutations


@main.command()
@click.argument("schema_path")
def validate(schema_path: str) -> None:
    """Parse a schema file and report diagnostics."""
    schema = _load_schema(schema_path)
    click.echo(
        f"schema {schema.name}: {len(schema.sets)} sets,"
        f" {len(schema.functions)} functions,"
        f" {len(schema.constraints)} constraints"
    )
    for c in schema.constraints:
        click.echo(f"  {c.id}: {c.render()} [general]")
    sys.exit(0)


@main.command()
@click.argument("schema_path")
@click.argument("script_path")
@click.option("--json", "as_json", is_flag=True, help="emit the run report as JSON")
@click.option("--stop-on-reject", is_flag=True, help="halt at the first rejection")
def run(schema_path: str, script_path: str, as_json: bool, stop_on_reject: bool) -> None:
    """Apply a mutation script with full constraint enforcement."""
    schema = _load_schema(schema_path)
    mutations = _load_script(script_path, schema)

    # Each record is written as soon as it is decided, through one stream;
    # `--json` lays the report out exactly as json.dumps(report, indent=2).
    out = click.get_text_stream("stdout")
    if as_json:
        out.write('{\n  "mutations": [')
    db = Database(schema)
    handles: dict[str, RowId] = {}
    count = applied = rejected = expectation_failures = unguarded_store_errors = 0
    for index, m in enumerate(mutations):
        before = db.rows_inspected
        verdict = engine.apply_mutation(db, m, handles)
        inspected = db.rows_inspected - before
        count += 1
        if verdict.applied:
            applied += 1
        else:
            rejected += 1
        store_error = any(
            v.kind is engine.ViolationKind.STORE_ERROR for v in verdict.violations
        )
        expectation_ok: bool | None = None
        if m.expectation is not None:
            wanted = m.expectation is dsl.Expectation.ACCEPT
            expectation_ok = wanted == verdict.applied
            if not expectation_ok:
                expectation_failures += 1
        elif store_error:
            unguarded_store_errors += 1
        # a parsed handle names its insert's set, applied or not
        set_name = m.set_name or m.row_ref.set_name
        if as_json:
            out.write(
                ("\n    " if index == 0 else ",\n    ")
                + _json_record(index, m, set_name, verdict, expectation_ok, inspected)
            )
        else:
            out.write(_text_record(index, m, set_name, verdict, expectation_ok))
        if stop_on_reject and verdict.rejected:
            break

    if as_json:
        out.write(
            ("\n  ]," if count else "],")
            + f'\n  "totals": {{\n    "mutations": {count},'
            + f'\n    "applied": {applied},'
            + f'\n    "rejected": {rejected},'
            + f'\n    "expectation_failures": {expectation_failures},'
            + f'\n    "store_errors": {unguarded_store_errors}\n  }},'
            + f'\n  "counters": {{\n    "rows_inspected": {db.rows_inspected}\n  }}\n}}\n'
        )
    else:
        out.write(
            f"{count} mutations: {applied} applied, {rejected} rejected,"
            f" {expectation_failures} expectation failures\n"
        )
    out.flush()
    sys.exit(1 if expectation_failures or unguarded_store_errors else 0)


# The fixed shape of one "mutations" record of `run --json`, and of one
# of its violations, as json.dumps(report, indent=2) lays them out; a
# record's first line comes without its indent.
_JSON_RECORD = """{{
      "index": {},
      "line": {},
      "action": {},
      "set": {},
      "verdict": {},
      "violations": {},
      "expected": {},
      "expectation_ok": {},
      "rows_inspected": {}
    }}"""
_JSON_VIOLATION = """{{
          "constraint": {},
          "kind": {},
          "witness": {},
          "left": {},
          "right": {},
          "changed": {},
          "message": {}
        }}"""
_JSON_ROW = """{{
            "set": {},
            "x": {}
          }}"""
_JSON_CHANGED = """{{
            "set": {},
            "function": {},
            "x": {}
          }}"""


def _json_record(
    index: int,
    m: dsl.Mutation,
    set_name: str,
    verdict: engine.Verdict,
    expectation_ok: bool | None,
    inspected: int,
) -> str:
    """One record of the run report. json.dumps runs its pure-Python
    encoder whenever it indents, so the shape is laid out here and only
    the strings go through the C encoder."""
    if verdict.violations:
        violations = (
            "[\n        "
            + ",\n        ".join([_json_violation(v) for v in verdict.violations])
            + "\n      ]"
        )
    else:
        violations = "[]"
    return _JSON_RECORD.format(
        index,
        m.line,
        _json_string(m.action.value),
        _json_string(set_name),
        _json_string(verdict.outcome.value),
        violations,
        _json_value(m.expectation.value if m.expectation else None),
        _json_value(expectation_ok),
        inspected,
    )


def _json_violation(v: engine.Violation) -> str:
    changed = v.changed
    return _JSON_VIOLATION.format(
        _json_value(v.constraint),
        _json_string(v.kind.value),
        _json_value(v.witness),
        _json_value(v.left),
        _json_value(v.right),
        "null"
        if changed is None
        else _JSON_CHANGED.format(
            _json_string(changed.set_name), _json_string(changed.function), changed.row.x
        ),
        _json_string(v.message),
    )


def _json_value(value: Value | bool) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, RowId):
        return _JSON_ROW.format(_json_string(value.set_name), value.x)
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value)


def _text_record(
    index: int,
    m: dsl.Mutation,
    set_name: str,
    verdict: engine.Verdict,
    expectation_ok: bool | None,
) -> str:
    expect = ""
    if m.expectation is not None:
        expect = f" expect {m.expectation.value}: {'ok' if expectation_ok else 'FAILED'}"
    head = (
        f"[{index}] line {m.line} {m.action.value} {set_name}"
        f" -> {verdict.outcome.value.upper()}{expect}\n"
    )
    return head + "".join(f"    {_render_line(v)}\n" for v in verdict.violations)


def _render_line(v: engine.Violation) -> str:
    """One violation as `run` and `check` print it."""
    parts = [
        f"constraint={v.constraint or '-'}",
        f"kind={v.kind.value}",
        f"witness={render_value(v.witness)}",
        f"left={render_value(v.left)}",
        f"right={render_value(v.right)}",
    ]
    if v.changed is not None:
        parts.append(f"changed={v.changed.set_name}.{v.changed.function}@{v.changed.row.x}")
    return " ".join(parts) + f" :: {v.message}"


@main.command()
@click.argument("schema_path")
@click.argument("script_path")
def check(schema_path: str, script_path: str) -> None:
    """Apply a script raw (no constraint checks), then report every
    standing violation. Useful for seeding deliberately invalid states."""
    schema = _load_schema(schema_path)
    mutations = _load_script(script_path, schema)

    db = Database(schema)
    handles: dict[str, RowId] = {}
    for index, m in enumerate(mutations):
        try:
            row = engine.raw_apply(db, m, *engine.resolve_mutation(m, handles))
        except (engine.MutationResolveError, StoreError) as exc:
            click.echo(f"statement {index} (line {m.line}) failed: {exc}", err=True)
            sys.exit(1)
        if m.action is dsl.Action.INSERT and m.handle and row is not None:
            handles[m.handle] = row

    report = oracle.full_check(db)
    click.echo(
        f"{report.rows_scanned} rows scanned, {len(report.violations)} violations"
    )
    for violation in report.violations:
        click.echo(f"    {_render_line(violation)}")
    sys.exit(1 if report.violations else 0)


@main.command()
@click.argument("schema_path")
@click.option("--constraint", "constraint_id", default=None, help="limit to one constraint")
@click.option(
    "--what",
    type=click.Choice(["row-sources", "domain-check", "link-checks", "all"]),
    default="all",
)
@click.option(
    "--dialect",
    type=click.Choice([d.value for d in codegen.Dialect]),
    default=codegen.Dialect.PAPER_STYLE.value,
)
@click.option("--out", "out_dir", default=None, help="write one file per unit")
def gen(
    schema_path: str,
    constraint_id: str | None,
    what: str,
    dialect: str,
    out_dir: str | None,
) -> None:
    """Emit row-source queries (paper-style only) and check procedures;
    generic-sql output starts with every set's table, so it installs alone."""
    if what == "row-sources" and dialect == codegen.Dialect.GENERIC_SQL.value:
        _fail("row sources exist only in the paper-style dialect")
    schema = _load_schema(schema_path)
    constraints = schema.constraints
    if constraint_id is not None:
        selected = schema.constraint(constraint_id)
        if selected is None:
            _fail(f"no constraint {constraint_id!r}")
        constraints = (selected,)
    units = codegen.emit_units(schema, constraints, what, codegen.Dialect(dialect))
    if out_dir is not None:
        target = Path(out_dir)
        try:
            target.mkdir(parents=True, exist_ok=True)
            for unit in units:
                (target / unit.filename).write_text(unit.body + "\n", encoding="utf-8")
                click.echo(str(target / unit.filename))
        except OSError as exc:
            _fail(str(exc))
    else:
        for index, unit in enumerate(units):
            if index:
                click.echo("---")
            click.echo(f"-- {unit.role} {unit.filename}")
            click.echo(unit.body)
    sys.exit(0)


if __name__ == "__main__":
    main()
