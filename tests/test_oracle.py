from __future__ import annotations

import ast
from pathlib import Path

import pytest

from funcdiag.dsl import Action, Binding, Mutation, parse_schema, parse_script
from funcdiag.engine import Outcome, ViolationKind, apply_mutation
from funcdiag.oracle import full_check, oracle_apply
from funcdiag.store import Database

from conftest import fixture_text, seeded_geography


def test_full_check_empty_database(geography_schema):
    db = Database(geography_schema)
    report = full_check(db)
    assert report.violations == ()
    assert report.rows_scanned == 0


def test_full_check_counts_domain_rows(geography_schema):
    db, _ = seeded_geography(geography_schema)
    report = full_check(db)
    assert report.rows_scanned == len(db.rows("RIVERS"))
    assert report.violations == ()


def test_full_check_finds_seeded_violation(geography_schema):
    db, handles = seeded_geography(geography_schema)
    # seed the mismatch raw, behind the engine's back
    rogue = db.insert_row(
        "RIVERS",
        {"River": "Rogue", "Continent": handles["asia"], "Mountain": handles["montblanc"]},
    )
    report = full_check(db)
    assert [v.witness for v in report.violations] == [rogue]


def test_full_check_vacuous_when_chain_nulled(geography_schema):
    db, handles = seeded_geography(geography_schema)
    for row in db.rows("RIVERS"):
        db.set_values(row, {"Mountain": None})
    db.insert_row(
        "RIVERS",
        {"River": "Free", "Continent": handles["asia"], "Mountain": None},
    )
    assert full_check(db).violations == ()


def test_full_check_sorted_by_witness(geography_schema):
    db, handles = seeded_geography(geography_schema)
    for name in ("A", "B", "C"):
        db.insert_row(
            "RIVERS",
            {"River": name, "Continent": handles["asia"], "Mountain": handles["montblanc"]},
        )
    witnesses = [v.witness.x for v in full_check(db).violations]
    assert witnesses == sorted(witnesses)


def test_oracle_apply_rejects_and_leaves_db_untouched(geography_schema):
    db, handles = seeded_geography(geography_schema)
    before = db.snapshot()
    verdict = oracle_apply(
        db,
        Mutation(
            Action.UPDATE,
            row_ref=handles["alps"],
            bindings=(Binding("Continent", handles["asia"]),),
        ),
    )
    assert verdict.outcome is Outcome.REJECTED
    assert [v.witness for v in verdict.violations] == [handles["danube"]]
    assert db.snapshot() == before


def test_oracle_apply_applies_clean_mutations(geography_schema):
    db, handles = seeded_geography(geography_schema)
    verdict = oracle_apply(
        db,
        Mutation(
            Action.INSERT,
            set_name="RIVERS",
            bindings=(
                Binding("River", "Volga"),
                Binding("Continent", handles["europe"]),
                Binding("Mountain", None),
            ),
        ),
    )
    assert verdict.outcome is Outcome.APPLIED
    assert verdict.row is not None
    assert db.row_exists(verdict.row)


def test_oracle_ignores_preexisting_violations(geography_schema):
    db, handles = seeded_geography(geography_schema)
    db.insert_row(
        "RIVERS",
        {"River": "Rogue", "Continent": handles["asia"], "Mountain": handles["montblanc"]},
    )
    assert len(full_check(db).violations) == 1
    # an unrelated clean mutation is not blamed for the standing violation
    verdict = oracle_apply(
        db,
        Mutation(
            Action.INSERT,
            set_name="CONTINENTS",
            bindings=(Binding("Continent", "Oceania"),),
        ),
    )
    assert verdict.outcome is Outcome.APPLIED
    # a mutation creating a fresh violation is still rejected
    verdict = oracle_apply(
        db,
        Mutation(
            Action.INSERT,
            set_name="RIVERS",
            bindings=(
                Binding("River", "Rogue2"),
                Binding("Continent", handles["asia"]),
                Binding("Mountain", handles["montblanc"]),
            ),
        ),
    )
    assert verdict.outcome is Outcome.REJECTED


def test_oracle_rejects_a_write_that_leaves_a_touched_row_violating(geography_schema):
    db, handles = seeded_geography(geography_schema)
    oceania = db.insert_row("CONTINENTS", {"Continent": "Oceania"})
    # violating already, behind the engine's back: montblanc is in europe
    rogue = db.insert_row(
        "RIVERS",
        {"River": "Rogue", "Continent": handles["asia"], "Mountain": handles["montblanc"]},
    )
    m = Mutation(Action.UPDATE, row_ref=rogue, bindings=(Binding("Continent", oceania),))
    engine_db = db.clone(share_counter=False)
    before = db.snapshot()
    verdict = oracle_apply(db, m)
    assert apply_mutation(engine_db, m).outcome is Outcome.REJECTED
    assert verdict.outcome is Outcome.REJECTED
    assert [(v.witness, v.left, v.right) for v in verdict.violations] == [
        (rogue, handles["europe"], oceania)
    ]
    assert db.snapshot() == before


@pytest.mark.parametrize("action", [Action.UPDATE, Action.DELETE])
def test_an_update_or_delete_naming_no_row_is_one_store_error(geography_schema, action):
    """A Mutation built through the API without a row_ref: the engine and
    the oracle each reject it with one store error and change nothing."""
    for apply in (apply_mutation, oracle_apply):
        db, _ = seeded_geography(geography_schema)
        before = db.snapshot()
        verdict = apply(db, Mutation(action))
        assert verdict.rejected
        [violation] = verdict.violations
        assert violation.kind is ViolationKind.STORE_ERROR
        assert violation.message == f"{action.value} statement names no row"
        assert db.snapshot() == before


def test_oracle_and_engine_agree_on_fixture_scenarios(geography_schema):
    engine_db, handles_e = seeded_geography(geography_schema)
    oracle_db = engine_db.clone(share_counter=False)
    handles_o = dict(handles_e)
    scenarios = [
        Mutation(
            Action.INSERT,
            set_name="RIVERS",
            bindings=(
                Binding("River", "Rhone"),
                Binding("Continent", handles_e["asia"]),
                Binding("Mountain", handles_e["montblanc"]),
            ),
        ),
        Mutation(
            Action.UPDATE,
            row_ref=handles_e["alps"],
            bindings=(Binding("Continent", handles_e["asia"]),),
        ),
        Mutation(
            Action.UPDATE,
            row_ref=handles_e["danube"],
            bindings=(Binding("Mountain", None),),
        ),
        Mutation(Action.DELETE, row_ref=handles_e["alps"]),
        Mutation(
            Action.INSERT,
            set_name="RIVERS",
            bindings=(Binding("River", "Volga"), Binding("Continent", handles_e["asia"])),
        ),
    ]
    for m in scenarios:
        v_engine = apply_mutation(engine_db, m, handles_e)
        v_oracle = oracle_apply(oracle_db, m, handles_o)
        assert v_engine.outcome == v_oracle.outcome, m
        assert engine_db.snapshot() == oracle_db.snapshot()


# The seed statements of geography_ac1.fdm, then a river that GeoContinent
# rejects although the script binds a handle to it, then an update through
# that handle.
_RHONE = "\n".join(
    fixture_text("geography_ac1.fdm").splitlines()[:13]
    + [
        'insert RIVERS (River = "Rhone", Continent = @asia, Mountain = @montblanc)'
        " as rhone ;",
        'update @rhone set River = "Rhône" ;',
    ]
)


@pytest.mark.parametrize(
    "schema_name, script",
    [
        ("geography.fd", fixture_text("geography_ac1.fdm")),
        ("neighbors.fd", fixture_text("neighbors_ac2.fdm")),
        ("geography.fd", _RHONE),
    ],
    ids=["geography_ac1", "neighbors_ac2", "rejected-handle"],
)
def test_oracle_replays_a_script_as_the_engine_does(schema_name, script):
    """Each with its own handles, the engine and the oracle give every
    statement the same outcome, row and violations (but for the changed
    link, which only the engine reports), bind the same handles and end in
    the same state; a handle whose insert was rejected stays unbound, and
    a write through it is rejected."""
    schema, _ = parse_schema(fixture_text(schema_name))
    mutations, diagnostics = parse_script(script, schema)
    assert diagnostics == []
    engine_db, oracle_db = Database(schema), Database(schema)
    engine_handles: dict = {}
    oracle_handles: dict = {}
    for m in mutations:
        expected = apply_mutation(engine_db, m, engine_handles)
        verdict = oracle_apply(oracle_db, m, oracle_handles)
        assert _reported(verdict) == _reported(expected), m
    assert oracle_handles == engine_handles
    assert oracle_db.snapshot() == engine_db.snapshot()
    if script is _RHONE:
        assert "rhone" not in oracle_handles
        assert verdict.rejected
        [violation] = verdict.violations
        assert violation.message == "handle @rhone does not name an applied insert"


def _reported(verdict) -> tuple:
    return verdict.outcome, verdict.row, [
        (v.constraint, v.kind, v.witness, v.left, v.right, v.message)
        for v in verdict.violations
    ]


# -- independence --------------------------------------------------------------

ENGINE_CHECKS = {
    "check_domain_row", "check_link_update", "affected_rows", "eval_prefix", "dispatch"
}
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "funcdiag"


def _engine_checks_named(path: Path) -> set[str]:
    """The engine checks a module names in an import, as a name or as an
    attribute; the package's __init__ may import them, to re-export them."""
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias) and path.name != "__init__.py":
            named.add(node.name)
    return named & ENGINE_CHECKS


def test_no_module_but_the_engine_names_an_engine_check():
    """The oracle judges with its own walk, and no other module calls an
    engine check either, so engine and oracle are two sides, not one walk
    compared with itself."""
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "engine.py")
    assert PACKAGE / "oracle.py" in modules
    named = {path.name: _engine_checks_named(path) for path in modules}
    assert {name: checks for name, checks in named.items() if checks} == {}
