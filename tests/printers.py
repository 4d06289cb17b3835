"""Canonical printers of schemas and scripts: parsing a printout gives
the printed schema or mutations back.

Round-trip tests, the randomized tests and CI import them from here, so a
randomly drawn schema or script that fails can be printed as a .fd/.fdm
pair.
"""

from __future__ import annotations

from funcdiag.dsl import Action, BindingValue, HandleRef, Mutation
from funcdiag.model import ConstraintKind, ScalarType, Schema
from funcdiag.store import RowId


def format_schema(schema: Schema) -> str:
    """Print a schema in canonical DSL form; parsing it back is identity."""
    lines = [f"schema {schema.name} ;", ""]
    for s in schema.sets:
        lines.append(f"set {s.name} {{")
        for fn in schema.functions_of(s.name):
            marker = "name " if fn.name == s.name_attribute else ""
            suffix = " ?" if fn.nullable else ""
            if fn.is_link:
                lines.append(f"    {marker}{fn.name} -> {fn.codomain}{suffix} ;")
            else:
                assert isinstance(fn.codomain, ScalarType)
                lines.append(f"    {marker}{fn.name} : {fn.codomain.value}{suffix} ;")
        lines.append("}")
        lines.append("")
    for c in schema.constraints:
        kind = (
            "commutative" if c.kind is ConstraintKind.COMMUTATIVE else "anticommutative"
        )
        lines.append(f"constraint {c.id} {kind} on {c.domain_set} {{")
        lines.append(f"    left = {c.left.render()} ;")
        lines.append(f"    right = {c.right.render()} ;")
        if c.message is not None:
            lines.append(f"    message = {_quote(c.message)} ;")
        lines.append("}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def format_script(mutations: list[Mutation]) -> str:
    """Print mutations in canonical script form; parsing the printout of a
    parsed script gives the same mutations back.

    Scripts name rows only through handles, so a mutation whose row or
    value is a concrete `RowId` raises ValueError.
    """
    lines = []
    for m in mutations:
        lines.append(_format_mutation(m))
    return "\n".join(lines) + ("\n" if lines else "")


def _format_mutation(m: Mutation) -> str:
    suffix = ""
    if m.expectation is not None:
        suffix = f" expect {m.expectation.value}"
    bindings = ", ".join(f"{b.function} = {_render_value(b.value)}" for b in m.bindings)
    if m.action is Action.INSERT:
        as_clause = f" as {m.handle}" if m.handle else ""
        return f"insert {m.set_name} ({bindings}){as_clause}{suffix} ;"
    if m.action is Action.UPDATE:
        return f"update {_render_value(m.row_ref)} set {bindings}{suffix} ;"
    return f"delete {_render_value(m.row_ref)}{suffix} ;"


def _render_value(value: BindingValue) -> str:
    if value is None:
        return "null"
    if isinstance(value, HandleRef):
        return f"@{value.name}"
    if isinstance(value, RowId):
        raise ValueError(f"row {value!r} has no handle; scripts name rows by handle")
    if isinstance(value, str):
        return _quote(value)
    return str(value)


def _quote(text: str) -> str:
    escaped = (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )
    return f'"{escaped}"'
