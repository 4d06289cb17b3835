"""What the benchmark takes from the library by name or by copy.

The benchmark's traced run wraps library functions by name, and its
SQLite replay creates its tables from its own copy of the layout codegen
emits. perfbench's own tests are not part of this suite (CI runs them in a
step of their own), so without these tests renaming or removing one of
those functions, or changing the table layout, would show only there or
when a benchmark run fails.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from funcdiag import engine
from funcdiag.codegen import Dialect, emit_units
from funcdiag.dsl import parse_schema
from funcdiag.store import Database

from conftest import fixture_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_a_library_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    for name in bench.ENGINE_SPANS:
        assert callable(getattr(engine, name, None)), f"funcdiag.engine.{name}"
    for name in bench.STORE_SPANS + bench.STORE_COUNTS:
        assert callable(getattr(Database, name, None)), f"Database.{name}"


@pytest.mark.parametrize(
    "workload", ["geo-accept", "geo-reject", "neighbors-recolor", "geography", "neighbors"]
)
def test_the_benchmarks_tables_are_the_ones_codegen_emits(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sqlreplay = importlib.import_module("sqlreplay")
    if workload in ("geography", "neighbors"):
        text = fixture_text(f"{workload}.fd")
    else:
        text = importlib.import_module("gen").generate(workload, 1, 0.02).schema
    schema, diagnostics = parse_schema(text)
    assert schema is not None, diagnostics
    units = emit_units(schema, schema.constraints, "all", Dialect.GENERIC_SQL)
    tables = "\n".join(unit.body for unit in units if unit.role == "table")
    assert tables == sqlreplay.ddl(schema)
