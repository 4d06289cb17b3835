"""The paper-style link handlers' DLookups, run on SQLite beside the engine.

Each link block reads the new head into `w` and looks for a witness `v`,
an affected domain row whose other chain compares with `w` as a
violation; tests/paper_dlookup.py evaluates both on a SQLite copy of the
engine's rows. On the written state a block must cancel exactly when
engine.check_link_update reports. Access runs the handler at
BeforeUpdate, on the state before the write; there it must give the same
answer unless its walks read a column of the edited row's set that the
edit changes, codegen's stale-row precondition.
"""

from __future__ import annotations

from funcdiag.codegen import Dialect, emit_units, gen_link_checks
from funcdiag.dsl import Action, Binding, Mutation, parse_schema, parse_script
from funcdiag.engine import apply_mutation, check_link_update, raw_apply, resolve_mutation
from funcdiag.model import Occurrence
from funcdiag.store import Database, RowId, StoreError

from conftest import fixture_text
from paper_dlookup import block, cancels, connect
from randgen import make_mutation
from test_differential import INCONSISTENT_SEEDS, MUTATIONS, SEEDS, _start
from test_sql_harness import to_sql_value


def load(source: str, script: str) -> tuple[Database, dict[str, RowId]]:
    schema, diagnostics = parse_schema(source)
    assert schema is not None, diagnostics
    mutations, diagnostics = parse_script(script, schema)
    assert mutations is not None, diagnostics
    db, handles = Database(schema), {}
    for m in mutations:
        assert apply_mutation(db, m, handles).applied, m
    return db, handles


def handler_cancels(db: Database, occ: Occurrence, row: RowId, value) -> bool:
    """Whether occ's block, on `db` as it stands, cancels the edit that
    gives `row`'s control `value`."""
    [unit] = [
        u
        for u in gen_link_checks(db.schema, occ.constraint, Dialect.PAPER_STYLE)
        if (u.target_set, u.target_function) == (occ.set_name, occ.function_name)
    ]
    connection = connect(db)
    variables = {"x": row.x, occ.function_name: to_sql_value(value)}
    try:
        return cancels(block(unit.body, occ), connection, variables)
    finally:
        connection.close()


GEOGRAPHY_SCRIPT = """
insert CONTINENTS (Continent = "Europe") as europe ;
insert CONTINENTS (Continent = "Asia") as asia ;
insert MOUNTAIN_RANGES (Range = "Alps", Continent = @europe) as alps ;
insert MOUNT_SUBRANGES (Subrange = "Western Alps", Range = @alps) as walps ;
insert MOUNT_GROUPS (MountGroup = "Mont Blanc massif", Subrange = @walps) as mbmassif ;
insert MOUNTAINS (Mountain = "Nameless") as m ;
insert RIVERS (River = "R1", Continent = @europe, Mountain = @m) ;
insert RIVERS (River = "R2", Continent = @asia, Mountain = @m) ;
"""


def test_a_null_to_value_edit_is_cancelled_at_a_witness_behind_a_holding_row():
    # R1 agrees with the Alps and R2 does not, so a handler that compared
    # one sampled river (R1) with the new head would let the edit through
    db, handles = load(fixture_text("geography.fd"), GEOGRAPHY_SCRIPT)
    mountain, group = handles["m"], handles["mbmassif"]
    [occ] = db.schema.occurrences[("MOUNTAINS", "Group")]
    assert handler_cancels(db, occ, mountain, group)
    edit = Mutation(Action.UPDATE, row_ref=mountain, bindings=(Binding("Group", group),))
    verdict = apply_mutation(db, edit)
    assert verdict.rejected
    assert [v.witness for v in verdict.violations] == [RowId("RIVERS", 2)]


NEIGHBORS_SCRIPT = """
insert COUNTRIES (Country = "A", FrontierColor = "red") as a ;
insert COUNTRIES (Country = "B", FrontierColor = "blue") as b ;
insert NEIGHBOR_COUNTRIES (Country = @a, Neighbor = @b) ;
"""


def test_a_clash_at_a_pair_with_no_name_is_cancelled():
    # the witness is looked up by its id, which is never Null; the pair's
    # nullable name is Null here
    source = fixture_text("neighbors.fd").replace("name Pair : text ;", "name Pair : text ? ;")
    db, handles = load(source, NEIGHBORS_SCRIPT)
    left, right = db.schema.occurrences[("COUNTRIES", "FrontierColor")]
    b = handles["b"]
    assert [handler_cancels(db, occ, b, "red") for occ in (left, right)] == [False, True]
    edit = Mutation(Action.UPDATE, row_ref=b, bindings=(Binding("FrontierColor", "red"),))
    verdict = apply_mutation(db, edit)
    assert verdict.rejected
    assert [v.witness for v in verdict.violations] == [RowId("NEIGHBOR_COUNTRIES", 1)]


def compare(seed: int, inconsistent: bool) -> tuple[int, list[str], list[str]]:
    """Run the seed's MUTATIONS random mutations through the engine and
    compare the handlers at each update (compare_update). Returns the
    number of blocks run, the differences and the stale-row differences."""
    rng, db = _start(seed, inconsistent)
    schema = db.schema
    bodies = {
        (u.constraint_id, u.target_set, u.target_function): u.body
        for u in emit_units(schema, schema.constraints, "link-checks", Dialect.PAPER_STYLE)
    }
    checks, differences, stale = 0, [], []
    for step in range(MUTATIONS):
        m = make_mutation(rng, db)
        if m.action is Action.UPDATE:
            where = f"seed {seed} step {step}: {m}"
            checks += compare_update(db, m, bodies, where, differences, stale)
        apply_mutation(db, m)
    return checks, differences, stale


def compare_update(
    db: Database, m: Mutation, bodies: dict, where: str, differences: list, stale: list
) -> int:
    """Run the block of every interior occurrence of a column `m` changes
    to a non-null value on the state `m` writes and on `db`, the state
    before it; return the number of blocks run. Appended to
    `differences`: a block that disagrees with the engine on the written
    state, or whose two answers differ outside the stale-row
    precondition; to `stale`: one whose answers differ under it."""
    values, row = resolve_mutation(m, {})
    written = db.clone(share_counter=False)
    try:
        before = db.read_row(row)
        raw_apply(written, m, values, row)
    except StoreError:
        return 0
    edited = {name for name, value in values.items() if before[name] != value}
    runs = [
        (occ, value)
        for name, value in sorted(values.items())
        if name in edited and value is not None
        for occ in db.schema.occurrences.get((row.set_name, name), ())
        if occ.reverse
    ]
    if not runs:
        return 0
    pre, post = connect(db), connect(written)
    for occ, value in runs:
        at = f"{where} at {occ.side.value}{occ.position}"
        expressions = block(bodies[(occ.constraint.id, occ.set_name, occ.function_name)], occ)
        variables = {"x": row.x, occ.function_name: to_sql_value(value)}
        on_post = cancels(expressions, post, variables)
        on_pre = cancels(expressions, pre, variables)
        if on_post != bool(check_link_update(written, occ, row, value)):
            differences.append(f"{at}: the engine says otherwise")
        elif on_pre != on_post:
            # the columns the block's walks read
            reads = {(fn.domain, fn.name) for fn in (*occ.head, *occ.reverse, *occ.other.functions)}
            if reads.isdisjoint((row.set_name, name) for name in edited):
                differences.append(f"{at}: before the write, outside the precondition")
            else:
                stale.append(at)
    pre.close()
    post.close()
    return len(runs)


def test_handlers_agree_with_the_engine_on_random_seeds():
    checks, differences, stale = 0, [], []
    for inconsistent, seeds in ((False, SEEDS), (True, INCONSISTENT_SEEDS)):
        for seed in seeds:
            counted, different, allowed = compare(seed, inconsistent)
            checks += counted
            differences += different
            stale += allowed
    assert differences == []
    assert (checks, len(stale)) == (1728, 4), stale
