"""Command-line front end: validate, run, check, gen.

Exit codes: 0 success, 1 semantic failure (failed expectations, store
errors in unguarded statements, refused constraint classes, standing
violations found by check), 2 I/O or parse failure, including an input
file that is not UTF-8 and a `gen --out` path that cannot be made a
directory or written into.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NoReturn

import click

from . import codegen, dsl, engine, oracle
from .model import IssueCode
from .store import Database, RowId, StoreError

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


def _load_schema(schema_path: str):
    source = _read(schema_path)
    schema, diagnostics = dsl.parse_schema(source)
    if schema is None:
        for d in diagnostics:
            click.echo(f"{schema_path}:{d.render()}", err=True)
        only_refusals = all(d.code in _REFUSAL_CODES for d in diagnostics)
        sys.exit(1 if only_refusals else 2)
    return schema


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
    mutations, diagnostics = dsl.parse_script(_read(script_path), schema)
    if mutations is None:
        for d in diagnostics:
            click.echo(f"{script_path}:{d.render()}", err=True)
        sys.exit(2)

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
        set_name = m.set_name or (_ref_set(m, handles) or "")
        if as_json:
            record = {
                "index": index,
                "line": m.line,
                "action": m.action.value,
                "set": set_name,
                "verdict": verdict.outcome.value,
                "violations": [v.to_json_dict() for v in verdict.violations],
                "expected": m.expectation.value if m.expectation else None,
                "expectation_ok": expectation_ok,
                "rows_inspected": inspected,
            }
            out.write(("\n    " if index == 0 else ",\n    ") + _nested_json(record, "    "))
        else:
            out.write(_text_record(index, m, set_name, verdict, expectation_ok))
        if stop_on_reject and verdict.rejected:
            break

    if as_json:
        totals = {
            "mutations": count,
            "applied": applied,
            "rejected": rejected,
            "expectation_failures": expectation_failures,
            "store_errors": unguarded_store_errors,
        }
        counters = {"rows_inspected": db.rows_inspected}
        out.write(
            ("\n  ]," if count else "],")
            + f'\n  "totals": {_nested_json(totals, "  ")},'
            + f'\n  "counters": {_nested_json(counters, "  ")}\n}}\n'
        )
    else:
        out.write(
            f"{count} mutations: {applied} applied, {rejected} rejected,"
            f" {expectation_failures} expectation failures\n"
        )
    out.flush()
    sys.exit(1 if expectation_failures or unguarded_store_errors else 0)


def _nested_json(value: dict, indent: str) -> str:
    """`value` as json.dumps(report, indent=2) prints it where it sits
    `indent` deep; the first line comes without its indent."""
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


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
    return head + "".join(f"    {v.render_line()}\n" for v in verdict.violations)


def _ref_set(m: dsl.Mutation, handles: dict[str, RowId]) -> str | None:
    ref = m.row_ref
    if isinstance(ref, RowId):
        return ref.set_name
    if isinstance(ref, dsl.HandleRef):
        row = handles.get(ref.name)
        return row.set_name if row else None
    return None


@main.command()
@click.argument("schema_path")
@click.argument("script_path")
def check(schema_path: str, script_path: str) -> None:
    """Apply a script raw (no constraint checks), then report every
    standing violation. Useful for seeding deliberately invalid states."""
    schema = _load_schema(schema_path)
    mutations, diagnostics = dsl.parse_script(_read(script_path), schema)
    if mutations is None:
        for d in diagnostics:
            click.echo(f"{script_path}:{d.render()}", err=True)
        sys.exit(2)

    db = Database(schema)
    handles: dict[str, RowId] = {}
    for index, m in enumerate(mutations):
        try:
            resolved = engine.resolve_mutation(m, handles)
            row = engine.raw_apply(db, resolved)
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
        click.echo(f"    {violation.render_line()}")
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
    """Emit row-source queries and check procedures."""
    schema = _load_schema(schema_path)
    constraints = schema.constraints
    if constraint_id is not None:
        selected = schema.constraint(constraint_id)
        if selected is None:
            click.echo(f"error: no constraint {constraint_id!r}", err=True)
            sys.exit(1)
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
