from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import strategies as st

from funcdiag.dsl import parse_schema, parse_script
from funcdiag.engine import apply_mutation
from funcdiag.store import Database

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def geography_schema():
    schema, diagnostics = parse_schema(fixture_text("geography.fd"))
    assert schema is not None, diagnostics
    return schema


@pytest.fixture(scope="session")
def neighbors_schema():
    schema, diagnostics = parse_schema(fixture_text("neighbors.fd"))
    assert schema is not None, diagnostics
    return schema


def seeded_geography(schema) -> tuple[Database, dict]:
    """Database holding the valid prefix of the replay fixture (both
    continents, both mountain paths, Danube and Indus)."""
    db = Database(schema)
    handles: dict = {}
    mutations, diagnostics = parse_script(fixture_text("geography_ac1.fdm"), schema)
    assert mutations is not None, diagnostics
    for m in mutations:
        if m.expectation is not None:
            break
        verdict = apply_mutation(db, m, handles)
        assert verdict.applied, verdict.violations
    return db, handles


@pytest.fixture()
def geography_db(geography_schema):
    db, _ = seeded_geography(geography_schema)
    return db


def mutilate(data, source: str) -> str:
    """`source` after one to six random one-character edits drawn from `data`."""
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
