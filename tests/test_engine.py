from __future__ import annotations

import operator
from dataclasses import replace
from functools import partial

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from funcdiag import cli
from funcdiag.dsl import Action, Binding, HandleRef, Mutation, parse_schema, parse_script
from funcdiag.engine import (
    ChangedLink,
    Outcome,
    Verdict,
    Violation,
    ViolationKind,
    affected_rows,
    apply_mutation,
    check_domain_row,
    check_link_update,
    dispatch,
    eval_chain,
    eval_prefix,
)
from funcdiag.model import Schema, Side, message_template_problem
from funcdiag.oracle import full_check, judge_row, oracle_apply
from funcdiag.store import Database, RowId, StoreError, UnknownFunction, UnknownRow, UnknownSet

import rowwise_engine
import store_layout
from conftest import FIXTURES, fixture_text, seeded_geography


def geo_constraint(schema):
    return schema.constraints[0]


def row_named(db, set_name, attr, value):
    for row in db.rows(set_name):
        if db.lookup(row, attr) == value:
            return row
    raise AssertionError(f"no {set_name} row with {attr}={value!r}")


# -- eval_chain --------------------------------------------------------------


def test_eval_chain_walks_to_continent(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    danube = row_named(geography_db, "RIVERS", "River", "Danube")
    europe = row_named(geography_db, "CONTINENTS", "Continent", "Europe")
    assert eval_chain(geography_db, c.left, danube) == europe
    assert eval_chain(geography_db, c.right, danube) == europe


def test_eval_chain_null_propagates(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    europe = row_named(geography_db, "CONTINENTS", "Continent", "Europe")
    row = geography_db.insert_row(
        "RIVERS", {"River": "Volga", "Continent": europe, "Mountain": None}
    )
    assert eval_chain(geography_db, c.left, row) is None


def test_eval_chain_length_one(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    indus = row_named(geography_db, "RIVERS", "River", "Indus")
    asia = row_named(geography_db, "CONTINENTS", "Continent", "Asia")
    assert eval_chain(geography_db, c.right, indus) == asia


# -- eval_prefix -------------------------------------------------------------


def test_eval_prefix_identity_at_position_one(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    asia = row_named(geography_db, "CONTINENTS", "Continent", "Asia")
    assert eval_prefix(geography_db, c.occurrences[0], asia) == asia


def test_eval_prefix_single_hop(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    alps = row_named(geography_db, "MOUNTAIN_RANGES", "Range", "Alps")
    europe = row_named(geography_db, "CONTINENTS", "Continent", "Europe")
    assert eval_prefix(geography_db, c.occurrences[1], alps) == europe


def test_eval_prefix_null_start(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    assert eval_prefix(geography_db, c.occurrences[2], None) is None


# -- affected_rows -----------------------------------------------------------


def brute_affected(db, chain, position, r):
    hits = set()
    for x in db.rows(chain.domain_set):
        current = x
        for p in range(chain.length, position, -1):
            current = db.lookup(current, chain.functions[p - 1].name)
            if current is None:
                break
        if current == r:
            hits.add(x)
    return hits


def test_affected_rows_empty_when_nothing_chains(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    europe = row_named(geography_db, "CONTINENTS", "Continent", "Europe")
    lonely = geography_db.insert_row(
        "MOUNTAIN_RANGES", {"Range": "Pyrenees", "Continent": europe}
    )
    assert affected_rows(geography_db, c.occurrences[0], lonely) == []


def test_affected_rows_exact_set(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    alps = row_named(geography_db, "MOUNTAIN_RANGES", "Range", "Alps")
    montblanc = row_named(geography_db, "MOUNTAINS", "Mountain", "Mont Blanc")
    europe = row_named(geography_db, "CONTINENTS", "Continent", "Europe")
    rhone = geography_db.insert_row(
        "RIVERS", {"River": "Rhone", "Continent": europe, "Mountain": montblanc}
    )
    danube = row_named(geography_db, "RIVERS", "River", "Danube")
    got = affected_rows(geography_db, c.occurrences[0], alps)
    assert got == [danube.x, rhone.x]
    assert got == sorted(x.x for x in brute_affected(geography_db, c.left, 1, alps))


def test_affected_rows_innermost_position_is_row_itself(
    geography_schema, geography_db
):
    c = geo_constraint(geography_schema)
    danube = row_named(geography_db, "RIVERS", "River", "Danube")
    assert affected_rows(geography_db, c.occurrences[4], danube) == [danube.x]


# -- check_domain_row --------------------------------------------------------


def test_domain_row_mismatch_is_violation(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    danube = row_named(geography_db, "RIVERS", "River", "Danube")
    asia = row_named(geography_db, "CONTINENTS", "Continent", "Asia")
    geography_db.set_values(danube, {"Continent": asia})
    violations = check_domain_row(geography_db, c, danube)
    assert len(violations) == 1
    v = violations[0]
    assert v.kind is ViolationKind.COMMUTATIVE
    assert v.witness == danube
    assert v.left != v.right
    assert v.left is not None and v.right is not None


def test_domain_row_null_is_vacuous(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    danube = row_named(geography_db, "RIVERS", "River", "Danube")
    geography_db.set_values(danube, {"Mountain": None})
    assert check_domain_row(geography_db, c, danube) == []


def test_domain_row_anti_commutative_equal_is_violation(neighbors_schema):
    db = Database(neighbors_schema)
    france = db.insert_row("COUNTRIES", {"Country": "France", "FrontierColor": "red"})
    spain = db.insert_row("COUNTRIES", {"Country": "Spain", "FrontierColor": "red"})
    pair = db.insert_row(
        "NEIGHBOR_COUNTRIES", {"Pair": "fr-es", "Country": france, "Neighbor": spain}
    )
    [v] = check_domain_row(db, neighbors_schema.constraints[0], pair)
    assert v.kind is ViolationKind.ANTI_COMMUTATIVE
    assert v.left == v.right == "red"


def _refusal(check, db, constraint, row) -> tuple[type, str, int]:
    """The StoreError `check` raises at row: its type, its text and the rows
    it counted first."""
    counted = db.rows_inspected
    with pytest.raises(StoreError) as raised:
        check(db, constraint, row)
    return type(raised.value), str(raised.value), db.rows_inspected - counted


@pytest.mark.parametrize(
    "row, refusal",
    [
        ("dead", (UnknownRow, "no row RIVERS#2", 0)),
        (RowId("RIVERS", 0), (UnknownRow, "no row RIVERS#0", 0)),
        (RowId("RIVERS", -1), (UnknownRow, "no row RIVERS#-1", 0)),
        (RowId("RIVERS", 3), (UnknownRow, "no row RIVERS#3", 0)),  # one past the last
        (RowId("RIVERS", "one"), (UnknownRow, "no row RIVERS#one", 0)),
        (RowId("LAKES", 1), (UnknownSet, "unknown set 'LAKES'", 0)),
        # a set without the left chain's first function: its row is read
        (
            RowId("MOUNTAIN_RANGES", 1),
            (UnknownFunction, "no function 'Mountain' on 'MOUNTAIN_RANGES'", 1),
        ),
    ],
)
def test_a_row_lookup_refuses_is_refused_with_its_error_and_count(geography_schema, row, refusal):
    """The one guarded read refuses what the lookup at every hop refused,
    with its error, text and count; the oracle's judge still walks that way."""
    db, handles = seeded_geography(geography_schema)
    c = geo_constraint(geography_schema)
    db.delete_row(handles["indus"])
    row = handles["indus"] if row == "dead" else row
    assert store_layout.next_id(db, "RIVERS") == 3
    assert _refusal(check_domain_row, db, c, row) == refusal
    assert _refusal(judge_row, db, c, row) == refusal


def test_a_live_row_outside_the_domain_set_is_refused(geography_schema):
    """MOUNTAINS has a text function named like the left chain's first one,
    Mountain: the lookup reads the row, and the check refuses it, naming
    the row and the domain set, instead of walking on from its text."""
    db, handles = seeded_geography(geography_schema)
    c = geo_constraint(geography_schema)
    assert db.lookup(handles["montblanc"], "Mountain") == "Mont Blanc"
    message = "MOUNTAINS#1 is not a row of 'RIVERS', the domain set of 'GeoContinent'"
    assert _refusal(check_domain_row, db, c, handles["montblanc"]) == (UnknownRow, message, 1)


def test_a_clones_domain_walks_read_the_clone_alone(geography_schema):
    """A write on the clone, at the left chain's last hop, is seen by the
    clone's checks alone: its domain check and, where that column is a
    head column, its link check. A write on the original, at the right
    chain's only hop, is seen by the original's alone; a row inserted into
    the clone is no row of the original."""
    db, h = seeded_geography(geography_schema)
    c = geo_constraint(geography_schema)
    clone = db.clone()
    clone.set_values(h["alps"], {"Continent": h["asia"]})
    [occ] = dispatch(geography_schema)[("MOUNT_SUBRANGES", "Range")]
    assert [(f.domain, f.name) for f in occ.head] == [("MOUNTAIN_RANGES", "Continent")]
    [seen] = check_link_update(clone, occ, h["walps"], h["alps"])
    assert (seen.witness, seen.left, seen.right) == (h["danube"], h["asia"], h["europe"])
    assert check_link_update(db, occ, h["walps"], h["alps"]) == []
    db.set_values(h["danube"], {"Continent": h["asia"]})
    [mine] = check_domain_row(db, c, h["danube"])
    [theirs] = check_domain_row(clone, c, h["danube"])
    assert (mine.left, mine.right) == (h["europe"], h["asia"])
    assert (theirs.left, theirs.right) == (h["asia"], h["europe"])
    rhone = clone.insert_row(
        "RIVERS", {"River": "Rhone", "Continent": h["asia"], "Mountain": h["montblanc"]}
    )
    assert check_domain_row(clone, c, rhone) == []
    with pytest.raises(UnknownRow, match="no row RIVERS#3"):
        check_domain_row(db, c, rhone)


NULLABLE_HOPS = """
schema Hops ;
set A { name Label : text ; F -> B ? ; G -> C ? ; }
set B { name Label : text ; H -> C ? ; }
set C { name Label : text ; V : integer ? ; }
constraint K commutative on A { left = V . H . F ; right = V . G ; }
"""


def test_a_constraint_the_store_did_not_bind_is_refused_by_both_checks():
    """A replace()d constraint or occurrence, equal to the schema's own but
    not bound by the store, is refused by the domain check, the link check
    and each of the link check's walks alike: the walks table's KeyError,
    before anything is counted, and by the link check even when the value
    written is null. oracle.judge_row judges the unbound
    constraint without a binding, with the same violations and count as
    the bound one's domain check, with a null at each hop of either chain."""
    schema, diagnostics = parse_schema(NULLABLE_HOPS)
    assert schema is not None, diagnostics
    [own] = schema.constraints
    unbound = replace(own)
    db = Database(schema)
    assert unbound == own and id(unbound) not in db.walks
    one, two, null = (db.insert_row("C", {"Label": str(v), "V": v}) for v in (1, 2, None))
    to_one = db.insert_row("B", {"Label": "to one", "H": one})
    to_null = db.insert_row("B", {"Label": "to null", "H": null})
    to_none = db.insert_row("B", {"Label": "to none", "H": None})
    rows = {
        "violated": (to_one, two),
        "held": (to_one, one),
        "null at the left's first hop": (None, two),
        "null at the left's second hop": (to_none, two),
        "null at the left's last hop": (to_null, two),
        "null at the right's first hop": (to_one, None),
        "null at the right's last hop": (to_one, null),
    }
    for name, (f, g) in rows.items():
        x = db.insert_row("A", {"Label": name, "F": f, "G": g})
        results = []
        for check, constraint in ((check_domain_row, own), (judge_row, unbound)):
            counted = db.rows_inspected
            results.append((check(db, constraint, x), db.rows_inspected - counted))
        assert results[0] == results[1], name
        assert bool(results[0][0]) is (name == "violated"), name
    x = db.rows("A")[0]
    # a live row of each occurrence's set, and a value its function holds
    written = {"A": (x, to_one), "B": (to_one, one), "C": (two, 2)}
    refusals = [partial(check_domain_row, db, unbound, x)]
    for occ in map(replace, own.occurrences):
        assert id(occ) not in db.walks
        r, value = written[occ.set_name]
        refusals.append(partial(affected_rows, db, occ, r))
        if occ.head:
            refusals.append(partial(eval_prefix, db, occ, value))
        if occ.reverse:
            refusals.append(partial(check_link_update, db, occ, r, value))
            refusals.append(partial(check_link_update, db, occ, r, None))
    assert len(refusals) == 15
    counted = db.rows_inspected
    for refused in refusals:
        with pytest.raises(KeyError):
            refused()
    assert db.rows_inspected == counted
    assert id(unbound) not in db.walks


# -- dispatch ----------------------------------------------------------------


def test_dispatch_geography(geography_schema):
    table = dispatch(geography_schema)
    assert len(table) == 6
    sets_touched = {key[0] for key in table}
    assert sets_touched == {
        "MOUNTAIN_RANGES",
        "MOUNT_SUBRANGES",
        "MOUNT_GROUPS",
        "MOUNTAINS",
        "RIVERS",
    }
    total = sum(len(occs) for occs in table.values())
    assert total == 6
    [occ] = table[("MOUNTAIN_RANGES", "Continent")]
    assert occ.side is Side.LEFT and occ.position == 1


def test_dispatch_shared_function_gets_one_occurrence_per_side(neighbors_schema):
    table = dispatch(neighbors_schema)
    occs = table[("COUNTRIES", "FrontierColor")]
    assert {(o.side, o.position) for o in occs} == {(Side.LEFT, 1), (Side.RIGHT, 1)}


def test_dispatch_empty_without_constraints(geography_schema):
    bare = Schema("G", geography_schema.sets, geography_schema.functions)
    assert dispatch(bare) == {}


# -- check_link_update -------------------------------------------------------


def test_link_update_reports_each_witness(geography_schema, geography_db):
    c = geo_constraint(geography_schema)
    table = dispatch(geography_schema)
    [occ] = table[("MOUNTAIN_RANGES", "Continent")]
    alps = row_named(geography_db, "MOUNTAIN_RANGES", "Range", "Alps")
    asia = row_named(geography_db, "CONTINENTS", "Continent", "Asia")
    danube = row_named(geography_db, "RIVERS", "River", "Danube")
    violations = check_link_update(geography_db, occ, alps, asia)
    assert [v.witness for v in violations] == [danube]
    v = violations[0]
    assert v.changed is not None
    assert (v.changed.set_name, v.changed.function, v.changed.row) == (
        "MOUNTAIN_RANGES",
        "Continent",
        alps,
    )
    assert v.left == asia  # the new composed head on the left side


def test_link_update_null_head_is_vacuous(geography_schema, geography_db):
    table = dispatch(geography_schema)
    [occ] = table[("MOUNTAINS", "Group")]
    montblanc = row_named(geography_db, "MOUNTAINS", "Mountain", "Mont Blanc")
    assert check_link_update(geography_db, occ, montblanc, None) == []


def test_link_update_no_witnesses_when_nothing_chains(
    geography_schema, geography_db
):
    table = dispatch(geography_schema)
    [occ] = table[("MOUNTAIN_RANGES", "Continent")]
    europe = row_named(geography_db, "CONTINENTS", "Continent", "Europe")
    asia = row_named(geography_db, "CONTINENTS", "Continent", "Asia")
    lonely = geography_db.insert_row(
        "MOUNTAIN_RANGES", {"Range": "Pyrenees", "Continent": europe}
    )
    assert check_link_update(geography_db, occ, lonely, asia) == []


def link_check_both_ways(db, occ, r, value):
    """check_link_update on db after writing `value` at r, and the
    row-at-a-time reference on a clone: the same violations, in witness
    order, and the same rows_inspected."""
    db.set_values(r, {occ.function_name: value})
    reference = db.clone(share_counter=False)
    counted, reference_counted = db.rows_inspected, reference.rows_inspected
    violations = check_link_update(db, occ, r, value)
    expected = rowwise_engine.check_link_update(reference, occ, r, value)
    assert violations == rowwise_engine.sort_violations(expected)
    assert db.rows_inspected - counted == reference.rows_inspected - reference_counted
    return violations


def neighbors_hub(schema, colours, clash_at=None):
    """A Hub country and one partner per colour, each paired with the hub
    on both sides; with `clash_at`, a red partner paired only as the
    hub's Neighbor, its pair inserted before partner `clash_at`'s."""
    db = Database(schema)
    hub = db.insert_row("COUNTRIES", {"Country": "Hub"})
    db.insert_row("COUNTRIES", {"Country": "Far", "FrontierColor": "red"})  # no pair
    clash = None
    for i, colour in enumerate(colours):
        if i == clash_at:
            partner = db.insert_row("COUNTRIES", {"Country": "Clash", "FrontierColor": "red"})
            clash = db.insert_row(
                "NEIGHBOR_COUNTRIES", {"Pair": "clash", "Country": hub, "Neighbor": partner}
            )
        partner = db.insert_row("COUNTRIES", {"Country": f"P{i}", "FrontierColor": colour})
        for name, country, neighbor in ((f"l{i}", hub, partner), (f"r{i}", partner, hub)):
            db.insert_row(
                "NEIGHBOR_COUNTRIES", {"Pair": name, "Country": country, "Neighbor": neighbor}
            )
    return db, hub, clash


def recolor(row, colour):
    return Mutation(Action.UPDATE, row_ref=row, bindings=(Binding("FrontierColor", colour),))


@pytest.mark.parametrize("clash_at", [None, 2])
def test_recolor_decided_after_partners_leave_the_walk_on_null(neighbors_schema, clash_at):
    """The hub turns red while its partners read null or blue, so its only
    red partner, if any, is the one clash, paired between partners that
    read null: a null at the last level never equals the head, so the
    rows that read it decide nothing and are never witnesses, and red
    elsewhere in the store matters not. Without the
    clash both sides accept; with it the left side reports exactly that
    pair."""
    colours = [None, "blue", None, None, "blue", None]
    db, hub, clash = neighbors_hub(neighbors_schema, colours, clash_at)
    reported = {
        occ.side: link_check_both_ways(db, occ, hub, "red")
        for occ in dispatch(neighbors_schema)[("COUNTRIES", "FrontierColor")]
    }
    witnesses = [] if clash is None else [clash]
    assert {side: [v.witness for v in vs] for side, vs in reported.items()} == {
        Side.LEFT: witnesses,
        Side.RIGHT: [],
    }
    db.set_values(hub, {"FrontierColor": None})
    reference = db.clone(share_counter=False)
    counted, reference_counted = db.rows_inspected, reference.rows_inspected
    verdict = apply_mutation(db, recolor(hub, "red"))
    assert verdict == rowwise_engine.apply_mutation(reference, recolor(hub, "red"))
    assert list(verdict.violations) == reported[Side.LEFT]
    assert verdict.rejected is (clash is not None)
    assert db.rows_inspected - counted == reference.rows_inspected - reference_counted


def test_recolor_both_occurrences_pass_is_applied_without_violations(neighbors_schema):
    """Green, which no partner reads, passes both sides' decision at once:
    no violation, and the verdict is a plain APPLIED."""
    colours = ["red", None, "blue", "red", "white"]
    db, hub, _ = neighbors_hub(neighbors_schema, colours)
    for occ in dispatch(neighbors_schema)[("COUNTRIES", "FrontierColor")]:
        assert link_check_both_ways(db, occ, hub, "green") == []
    db.set_values(hub, {"FrontierColor": None})
    reference = db.clone(share_counter=False)
    counted, reference_counted = db.rows_inspected, reference.rows_inspected
    verdict = apply_mutation(db, recolor(hub, "green"))
    assert verdict == Verdict(Outcome.APPLIED, ()) == rowwise_engine.apply_mutation(
        reference, recolor(hub, "green")
    )
    assert db.rows_inspected - counted == reference.rows_inspected - reference_counted


def test_commutative_link_update_some_affected_rows_agree(geography_schema):
    """Moving the Alps to Asia reaches three rivers: the Danube, on
    Europe, disagrees; the Rhone and Ganges, written on Asia without a
    check, agree. Only the Danube is a witness."""
    db, handles = seeded_geography(geography_schema)
    montblanc, asia = handles["montblanc"], handles["asia"]
    for river in ("Rhone", "Ganges"):
        db.insert_row("RIVERS", {"River": river, "Continent": asia, "Mountain": montblanc})
    [occ] = dispatch(geography_schema)[("MOUNTAIN_RANGES", "Continent")]
    assert len(affected_rows(db, occ, handles["alps"])) == 3
    violations = link_check_both_ways(db, occ, handles["alps"], asia)
    assert [v.witness for v in violations] == [handles["danube"]]
    assert violations[0].left == asia and violations[0].right == handles["europe"]


# -- one count decides: every affected row a witness, or a mask --------------


def apply_both_ways(db, m):
    """apply_mutation on db and the row-at-a-time reference on a clone: the
    same verdict, violations in witness order, and rows_inspected."""
    reference = db.clone(share_counter=False)
    counted, reference_counted = db.rows_inspected, reference.rows_inspected
    verdict = apply_mutation(db, m)
    assert verdict == rowwise_engine.apply_mutation(reference, m)
    assert db.rows_inspected - counted == reference.rows_inspected - reference_counted
    return verdict


def move(row, function, target):
    return Mutation(Action.UPDATE, row_ref=row, bindings=(Binding(function, target),))


def western_alps_rivers(db, handles, continent):
    """Two more mountains in the Mont Blanc massif, beside Mont Blanc, each
    a river's source on `continent`; the Danube already springs from Mont
    Blanc on Europe."""
    for i in range(2):
        mountain = db.insert_row(
            "MOUNTAINS", {"Mountain": f"M{i}", "Group": handles["mbmassif"]}
        )
        db.insert_row("RIVERS", {"River": f"R{i}", "Continent": continent, "Mountain": mountain})


def test_subrange_moved_to_another_continent_makes_every_affected_river_a_witness(
    geography_schema,
):
    db, handles = seeded_geography(geography_schema)
    western_alps_rivers(db, handles, handles["europe"])
    [occ] = dispatch(geography_schema)[("MOUNT_SUBRANGES", "Range")]
    affected = db.row_ids("RIVERS", affected_rows(db, occ, handles["walps"]))
    assert len(affected) == 3
    verdict = apply_both_ways(db, move(handles["walps"], "Range", handles["himalaya"]))
    assert verdict.rejected
    assert [v.witness for v in verdict.violations] == affected
    assert {(v.left, v.right) for v in verdict.violations} == {
        (handles["asia"], handles["europe"])
    }


def test_subrange_move_from_an_inconsistent_start_masks_the_rivers_that_agree(
    geography_schema,
):
    # R0 and R1 were written on Asia under the Western Alps, no check run
    db, handles = seeded_geography(geography_schema)
    western_alps_rivers(db, handles, handles["asia"])
    verdict = apply_both_ways(db, move(handles["walps"], "Range", handles["himalaya"]))
    assert [v.witness for v in verdict.violations] == [handles["danube"]]
    # and back to Europe, only the two Asian rivers break it
    db.set_values(handles["walps"], {"Range": handles["himalaya"]})
    verdict = apply_both_ways(db, move(handles["walps"], "Range", handles["alps"]))
    assert [db.lookup(v.witness, "River") for v in verdict.violations] == ["R0", "R1"]


@pytest.mark.parametrize("colours", [["red"] * 4, ["red", "red", "blue", "red"]])
def test_recolor_to_a_neighbours_colour_reports_exactly_the_pairs_that_share_it(
    neighbors_schema, colours
):
    """Every partner red: every affected pair is a witness, with no mask.
    All but one: the mask leaves out the blue partner's pairs."""
    db, hub, _ = neighbors_hub(neighbors_schema, colours)
    for occ in dispatch(neighbors_schema)[("COUNTRIES", "FrontierColor")]:
        # one pair per partner on each side, in the partners' order
        affected = db.row_ids("NEIGHBOR_COUNTRIES", affected_rows(db, occ, hub))
        violations = link_check_both_ways(db.clone(), occ, hub, "red")
        red = [pair for pair, colour in zip(affected, colours, strict=True) if colour == "red"]
        assert [v.witness for v in violations] == red
    verdict = apply_both_ways(db, recolor(hub, "red"))
    assert verdict.rejected and len(verdict.violations) == 2 * colours.count("red")


# BASINS.Continent is interior to the right chain, so its link check walks
# back to the rivers of a basin and reads the left chain, through the
# nullable Mountain and Group, at each
BASINS = """
set BASINS {
    name Basin : text ;
    Continent -> CONTINENTS ;
}
"""


def test_rivers_that_read_null_leave_before_every_other_is_a_witness():
    text = fixture_text("geography.fd")
    rivers = "    Mountain -> MOUNTAINS ? ;\n"
    text = text.replace(rivers, rivers + "    Basin -> BASINS ;\n")
    text = text.replace("right = Continent ;", "right = Continent . Basin ;") + BASINS
    schema, diagnostics = parse_schema(text)
    assert schema is not None, diagnostics
    # the fixture's continents and mountain paths, without its rivers
    seed = "\n".join(fixture_text("geography_ac1.fdm").splitlines()[1:11])
    mutations, diagnostics = parse_script(seed, schema)
    assert diagnostics == []
    db, handles = Database(schema), {}
    assert all(apply_mutation(db, m, handles).applied for m in mutations)
    danube = db.insert_row("BASINS", {"Basin": "Danube", "Continent": handles["europe"]})
    for i, mountain in enumerate([None, handles["montblanc"], None, handles["montblanc"]]):
        river = {"River": f"R{i}", "Mountain": mountain, "Basin": danube}
        db.insert_row("RIVERS", {**river, "Continent": handles["europe"]})
    [occ] = dispatch(schema)[("BASINS", "Continent")]
    assert len(affected_rows(db, occ, danube)) == 4
    verdict = apply_both_ways(db, move(danube, "Continent", handles["asia"]))
    assert [db.lookup(v.witness, "River") for v in verdict.violations] == ["R1", "R3"]
    assert {(v.left, v.right) for v in verdict.violations} == {
        (handles["europe"], handles["asia"])
    }


# -- the null rules, level by level -----------------------------------------

# A category's Owner is interior to the left chain, so its link check walks
# back to the category's items and reads the right chain at each: the
# items' own nullable Owner, one level, or the non-nullable Keeper of their
# nullable Shelf, two
OWNERS = """
schema Owners ;
set SHELVES { name Shelf : text ; Keeper : text ; }
set CATEGORIES { name Category : text ; Owner : text ? ; }
set ITEMS {
    name Item : text ;
    Category -> CATEGORIES ;
    Shelf -> SHELVES ? ;
    Owner : text ? ;
}
constraint Owned %s on ITEMS { left = Owner . Category ; right = %s ; }
"""


def owners_db(kind, right, levels):
    """The Owners schema with one constraint, and a Tools category whose
    items read `right` as `levels`: one Owner or one Shelf per item, a
    shelf given by its keeper's name and None for no shelf. The nullable
    flags the store binds for the link check's levels are checked too."""
    schema, diagnostics = parse_schema(OWNERS % (kind, right))
    assert schema is not None, diagnostics
    db = Database(schema)
    tools = db.insert_row("CATEGORIES", {"Category": "Tools"})
    shelves = {}
    for i, level in enumerate(levels):
        item = {"Item": f"I{i}", "Category": tools}
        if right == "Owner":
            item["Owner"] = level
        elif level is not None:
            if level not in shelves:
                shelves[level] = db.insert_row("SHELVES", {"Shelf": level, "Keeper": level})
            item["Shelf"] = shelves[level]
        db.insert_row("ITEMS", item)
    [occ] = dispatch(schema)[("CATEGORIES", "Owner")]
    _, _, interior, (_, last_nullable) = db.walks[id(occ)]
    nullable = [n for _, n in interior] + [last_nullable]
    assert nullable == ([True] if right == "Owner" else [True, False])
    return db, tools


def item_names(db, verdict):
    return [db.lookup(v.witness, "Item") for v in verdict.violations]


@pytest.mark.parametrize(
    "owners, witnesses",
    [
        ([None, "ann", None, "ann"], []),
        ([None, "ann", None, "bob", None], ["I3"]),
        ([None, None], []),
    ],
)
def test_commutative_check_with_a_nullable_last_level_leaves_its_null_rows_out(
    owners, witnesses
):
    """Items reading a null Owner at the last level neither keep the
    category's new owner from being accepted nor become witnesses."""
    db, tools = owners_db("commutative", "Owner", owners)
    verdict = apply_both_ways(db, move(tools, "Owner", "ann"))
    assert verdict.rejected is bool(witnesses)
    assert item_names(db, verdict) == witnesses


@pytest.mark.parametrize(
    "owners, witnesses",
    [
        ([None, "bob", None, "cid"], []),
        ([None, "ann", None, "bob", "ann"], ["I1", "I4"]),
        ([None], []),
    ],
)
def test_anti_commutative_check_with_nulls_at_the_last_level(owners, witnesses):
    """Nulls at the last level stay among the values and never equal the
    head: with no other owner equal to it, the update is accepted, and
    only the rows that share it are witnesses."""
    db, tools = owners_db("anticommutative", "Owner", owners)
    verdict = apply_both_ways(db, move(tools, "Owner", "ann"))
    assert verdict.rejected is bool(witnesses)
    assert item_names(db, verdict) == witnesses


@pytest.mark.parametrize(
    "kind, keepers, witnesses",
    [
        ("commutative", [None, "ann", None, "ann"], []),
        ("commutative", [None, "ann", None, "bob"], ["I3"]),
        ("anticommutative", [None, "bob", None], []),
        ("anticommutative", [None, "ann", None, "bob"], ["I1"]),
    ],
)
def test_a_row_reading_null_at_a_nullable_interior_level_leaves_the_walk(
    kind, keepers, witnesses
):
    """Items without a shelf read null at the nullable interior level and
    leave the walk there: they count as read once, as the reference
    counts them, and are never witnesses; the non-nullable Keeper at the
    last level is read for the rest."""
    db, tools = owners_db(kind, "Keeper . Shelf", keepers)
    verdict = apply_both_ways(db, move(tools, "Owner", "ann"))
    assert verdict.rejected is bool(witnesses)
    assert item_names(db, verdict) == witnesses


def test_an_update_the_store_refuses_on_a_live_row_counts_its_before_image():
    """The before-image of a live row is counted once the row is found
    live, before the values are validated, so a refused update still
    counts it; an update of a dead row counts nothing."""
    db, tools = owners_db("commutative", "Keeper . Shelf", ["ann"])
    shelf = db.rows("SHELVES")[0]
    dead = db.insert_row("CATEGORIES", {"Category": "Gone"})
    db.delete_row(dead)
    for row, function, value, counted in [
        (shelf, "Keeper", None, 1),  # a required attribute
        (tools, "Colour", "red", 1),  # no such function
        (db.rows("ITEMS")[0], "Shelf", RowId("SHELVES", 9), 2),  # and the missing target
        (dead, "Owner", "ann", 0),
    ]:
        counted_before = db.rows_inspected
        verdict = apply_both_ways(db, move(row, function, value))
        assert verdict.rejected
        assert [v.kind for v in verdict.violations] == [ViolationKind.STORE_ERROR]
        assert db.rows_inspected - counted_before == counted


# -- apply_mutation ----------------------------------------------------------


def test_applied_mutations_keep_full_check_empty(geography_schema):
    db, handles = seeded_geography(geography_schema)
    assert full_check(db).violations == ()


def test_rejected_update_leaves_database_identical(geography_schema):
    db, handles = seeded_geography(geography_schema)
    before = db.snapshot()
    verdict = apply_mutation(
        db,
        Mutation(
            Action.UPDATE,
            row_ref=handles["alps"],
            bindings=(Binding("Continent", handles["asia"]),),
        ),
    )
    assert verdict.rejected
    assert [v.witness for v in verdict.violations] == [handles["danube"]]
    assert db.snapshot() == before


def test_each_store_judges_a_link_update_by_its_own_rows(geography_schema):
    """A clone's link checks walk the clone's rows, and the original's its own."""
    db, handles = seeded_geography(geography_schema)
    before = db.snapshot()
    clone = db.clone(share_counter=False)
    # in the clone only, Mont Blanc (and with it the Danube) moves to Asia
    clone.set_values(handles["montblanc"], {"Group": handles["evgroup"]})
    clone.set_values(handles["danube"], {"Continent": handles["asia"]})

    def move(range_handle, continent_handle):
        return Mutation(
            Action.UPDATE,
            row_ref=handles[range_handle],
            bindings=(Binding("Continent", handles[continent_handle]),),
        )

    alps_to_asia, himalaya_to_europe = move("alps", "asia"), move("himalaya", "europe")
    assert apply_mutation(clone, alps_to_asia).applied
    verdict = apply_mutation(db, alps_to_asia)
    assert [v.witness for v in verdict.violations] == [handles["danube"]]
    verdict = apply_mutation(clone, himalaya_to_europe)
    assert [v.witness for v in verdict.violations] == [handles["danube"], handles["indus"]]
    verdict = apply_mutation(db, himalaya_to_europe)
    assert [v.witness for v in verdict.violations] == [handles["indus"]]
    assert db.snapshot() == before
    assert clone.lookup(handles["alps"], "Continent") == handles["asia"]
    assert full_check(db).violations == () == full_check(clone).violations


def test_update_link_to_null_is_vacuous_and_applied(geography_schema):
    db, handles = seeded_geography(geography_schema)
    verdict = apply_mutation(
        db,
        Mutation(
            Action.UPDATE,
            row_ref=handles["danube"],
            bindings=(Binding("Mountain", None),),
        ),
    )
    assert verdict.applied
    assert full_check(db).violations == ()


def test_multi_field_update_checked_against_combined_state(geography_schema):
    db, handles = seeded_geography(geography_schema)
    # flipping continent AND mountain together lands on a consistent pair
    verdict = apply_mutation(
        db,
        Mutation(
            Action.UPDATE,
            row_ref=handles["danube"],
            bindings=(
                Binding("Continent", handles["asia"]),
                Binding("Mountain", handles["everest"]),
            ),
        ),
    )
    assert verdict.applied
    # but flipping only the continent is rejected
    verdict = apply_mutation(
        db,
        Mutation(
            Action.UPDATE,
            row_ref=handles["indus"],
            bindings=(Binding("Continent", handles["europe"]),),
        ),
    )
    assert verdict.rejected


def test_noop_update_is_applied_without_checks(geography_schema):
    db, handles = seeded_geography(geography_schema)
    before = db.rows_inspected
    verdict = apply_mutation(
        db,
        Mutation(
            Action.UPDATE,
            row_ref=handles["alps"],
            bindings=(Binding("Continent", handles["europe"]),),
        ),
    )
    assert verdict.applied
    # the write reads the row and validates the link target; no chain walks
    assert db.rows_inspected - before <= 4


def test_insert_runs_no_link_checks_and_fresh_rows_have_empty_affected(
    geography_schema,
):
    db, handles = seeded_geography(geography_schema)
    c = geo_constraint(geography_schema)
    verdict = apply_mutation(
        db,
        Mutation(
            Action.INSERT,
            set_name="MOUNTAIN_RANGES",
            bindings=(
                Binding("Range", "Carpathians"),
                Binding("Continent", handles["asia"]),
            ),
        ),
    )
    assert verdict.applied
    assert verdict.row is not None
    # nothing can reference a row created by this very mutation
    assert affected_rows(db, c.occurrences[0], verdict.row) == []


def test_rejected_insert_burns_no_id(geography_schema):
    db, handles = seeded_geography(geography_schema)
    before = db.snapshot()
    verdict = apply_mutation(db, RHONE, handles)
    assert verdict.rejected
    assert verdict.violations[0].kind is ViolationKind.COMMUTATIVE
    assert db.snapshot() == before
    verdict = apply_mutation(
        db,
        Mutation(
            Action.INSERT,
            set_name="RIVERS",
            bindings=(Binding("River", "Rhone"), Binding("Continent", handles["europe"])),
        ),
    )
    assert verdict.applied
    assert verdict.row == RowId("RIVERS", before["next_ids"]["RIVERS"])


TWO_LINKS = """schema TwoLinks ;
set T { name N : text ; }
set A { name N : text ; a -> T ? ; }
set B { name N : text ; b -> T ? ; }
set S { name N : text ; g2 -> B ? ; g1 -> A ? ; }
set D { name N : text ; p -> S ? ; }
constraint C commutative on D {
    left = a . g1 . p ;
    right = b . g2 . p ;
}
"""


@pytest.mark.parametrize("order", [("g1", "g2"), ("g2", "g1")])
def test_two_link_checks_of_one_witness_keep_one_violation_whatever_the_binding_order(order):
    """Writing g1 and g2 of one S row runs one link check per column, and
    both find the D row below it; the verdict keeps one violation, the one
    that names g1, in whichever order the update binds the two columns."""
    schema, diagnostics = parse_schema(TWO_LINKS)
    assert schema is not None, diagnostics
    db = Database(schema)
    t1, t2 = (db.insert_row("T", {"N": n}) for n in ("t1", "t2"))
    targets = {
        "g1": db.insert_row("A", {"N": "a", "a": t1}),
        "g2": db.insert_row("B", {"N": "b", "b": t2}),
    }
    s = db.insert_row("S", {"N": "s"})
    d = db.insert_row("D", {"N": "d", "p": s})
    reference = db.clone(share_counter=False)
    update = Mutation(
        Action.UPDATE, row_ref=s, bindings=tuple(Binding(fn, targets[fn]) for fn in order)
    )
    verdict = apply_mutation(db, update)
    assert verdict == rowwise_engine.apply_mutation(reference, update)
    [violation] = verdict.violations
    assert violation.witness == d and violation.changed == ChangedLink("S", "g1", s)


def test_rejected_two_column_update_restores_both_link_targets(geography_schema):
    db, handles = seeded_geography(geography_schema)
    danube, montblanc, everest = handles["danube"], handles["montblanc"], handles["everest"]
    before = db.snapshot()
    old_sources = db.inverse("RIVERS", "Mountain", montblanc)
    new_sources = db.inverse("RIVERS", "Mountain", everest)
    assert danube in old_sources and danube not in new_sources
    verdict = apply_mutation(
        db,
        Mutation(
            Action.UPDATE,
            row_ref=danube,
            bindings=(Binding("River", "Donau"), Binding("Mountain", everest)),
        ),
    )
    assert verdict.rejected
    assert [v.witness for v in verdict.violations] == [danube]
    assert db.inverse("RIVERS", "Mountain", montblanc) == old_sources
    assert db.inverse("RIVERS", "Mountain", everest) == new_sources
    assert db.lookup(danube, "River") == "Danube"
    assert db.snapshot() == before


def test_store_error_rejects_with_store_violation(geography_schema):
    db, handles = seeded_geography(geography_schema)
    before = db.snapshot()
    verdict = apply_mutation(
        db,
        Mutation(
            Action.INSERT,
            set_name="RIVERS",
            bindings=(
                Binding("River", "Styx"),
                Binding("Continent", RowId("CONTINENTS", 99)),
            ),
        ),
    )
    assert verdict.rejected
    assert verdict.violations[0].kind is ViolationKind.STORE_ERROR
    assert db.snapshot() == before


@pytest.mark.parametrize("depth", [2**63, -(2**63) - 1], ids=["2^63", "-2^63-1"])
def test_integer_outside_64_bits_rejects_with_store_violation(depth):
    """The parser refuses such a literal; a mutation built through the API
    meets the same bound in the store."""
    schema, _ = parse_schema("schema T ;\nset A { name N : text ; Depth : integer ? ; }\n")
    db, handles = Database(schema), {}
    insert = Mutation(Action.INSERT, set_name="A", bindings=(Binding("N", "x"),), handle="a")
    assert apply_mutation(db, insert, handles).applied
    before = db.snapshot()
    for m in (
        Mutation(Action.INSERT, set_name="A", bindings=(Binding("N", "y"), Binding("Depth", depth))),
        Mutation(Action.UPDATE, row_ref=HandleRef("a"), bindings=(Binding("Depth", depth),)),
    ):
        verdict = apply_mutation(db, m, handles)
        assert verdict.rejected
        [v] = verdict.violations
        assert v.kind is ViolationKind.STORE_ERROR
        assert "64-bit" in v.message
        assert db.snapshot() == before


_GHOST, _UNBOUND = HandleRef("ghost"), "handle @ghost does not name an applied insert"
_STYX, _TO_GHOST = Binding("River", "Styx"), Binding("Continent", _GHOST)


@pytest.mark.parametrize(
    "m, message",
    [
        (Mutation(Action.INSERT, "RIVERS", bindings=(_STYX, _TO_GHOST), line=3), _UNBOUND),
        (Mutation(Action.UPDATE, None, RowId("RIVERS", 1), (_TO_GHOST,), line=3), _UNBOUND),
        (Mutation(Action.UPDATE, row_ref=_GHOST, bindings=(_STYX,), line=3), _UNBOUND),
        (Mutation(Action.DELETE, row_ref=_GHOST, line=3), _UNBOUND),
        (Mutation(Action.UPDATE, bindings=(_STYX,), line=3), "update statement names no row"),
        (Mutation(Action.DELETE, line=3), "delete statement names no row"),
    ],
    ids=["insert-binding", "update-binding", "update-row", "delete-row", "update", "delete"],
)
def test_a_resolution_error_reads_the_same_through_every_caller(
    geography_schema, monkeypatch, m, message
):
    """An unbound handle in a binding or as the row, or an update or delete
    built with no row, fails before anything is read or written: the
    engine and the oracle reject with the same store error, and `funcdiag
    check` stops at the statement with it, with exit code 2."""
    error = Violation(None, ViolationKind.STORE_ERROR, None, None, None, None, message)
    for apply in (apply_mutation, oracle_apply):
        db, handles = seeded_geography(geography_schema)
        bound, snapshot, before = dict(handles), db.snapshot(), db.rows_inspected
        assert apply(db, m, handles) == Verdict(Outcome.REJECTED, (error,))
        assert (handles, db.snapshot(), db.rows_inspected) == (bound, snapshot, before)
    europe = Binding("Continent", "Europe")
    script = [Mutation(Action.INSERT, "CONTINENTS", bindings=(europe,), line=1), m]
    monkeypatch.setattr(cli, "_load_script", lambda path, schema: script)
    result = CliRunner().invoke(cli.main, ["check", str(FIXTURES / "geography.fd"), "unread"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == f"statement 1 (line 3) failed: {message}\n"


def test_delete_restrict_and_delete_free_row(geography_schema):
    db, handles = seeded_geography(geography_schema)
    verdict = apply_mutation(db, Mutation(Action.DELETE, row_ref=handles["alps"]))
    assert verdict.rejected
    assert verdict.violations[0].kind is ViolationKind.STORE_ERROR
    free = db.insert_row(
        "MOUNTAIN_RANGES", {"Range": "Ural", "Continent": handles["europe"]}
    )
    verdict = apply_mutation(db, Mutation(Action.DELETE, row_ref=free))
    assert verdict.applied
    assert not db.row_exists(free)


def test_recolor_reported_by_both_occurrences_lists_each_witness_once(neighbors_schema):
    """A country that is `Country` in some clashing pairs, `Neighbor` in
    others and both in a self-pair: each side's link check reports its
    pairs, and the verdict merges them, each witness once, in witness
    order."""
    db = Database(neighbors_schema)
    spain = db.insert_row("COUNTRIES", {"Country": "Spain", "FrontierColor": "red"})
    italy = db.insert_row("COUNTRIES", {"Country": "Italy", "FrontierColor": "red"})
    france = db.insert_row("COUNTRIES", {"Country": "France"})

    def pair(name, country, neighbor):
        return db.insert_row(
            "NEIGHBOR_COUNTRIES", {"Pair": name, "Country": country, "Neighbor": neighbor}
        )

    fr_es = pair("fr-es", france, spain)
    it_fr = pair("it-fr", italy, france)
    fr_fr = pair("fr-fr", france, france)
    fr_it = pair("fr-it", france, italy)
    recolor = Mutation(
        Action.UPDATE, row_ref=france, bindings=(Binding("FrontierColor", "red"),)
    )
    before = db.snapshot()

    db.set_values(france, {"FrontierColor": "red"})
    reported = {
        occ.side: [v.witness for v in check_link_update(db, occ, france, "red")]
        for occ in dispatch(neighbors_schema)[("COUNTRIES", "FrontierColor")]
    }
    assert reported == {Side.LEFT: [fr_es, fr_fr, fr_it], Side.RIGHT: [it_fr, fr_fr]}
    db.set_values(france, {"FrontierColor": None})

    verdict = apply_mutation(db, recolor)
    assert verdict.rejected
    assert [v.witness for v in verdict.violations] == [fr_es, it_fr, fr_fr, fr_it]
    assert all(v.changed.row == france for v in verdict.violations)
    assert db.snapshot() == before


def test_anti_commutative_link_update(neighbors_schema):
    db = Database(neighbors_schema)
    france = db.insert_row("COUNTRIES", {"Country": "France", "FrontierColor": "red"})
    germany = db.insert_row(
        "COUNTRIES", {"Country": "Germany", "FrontierColor": "black"}
    )
    pair = db.insert_row(
        "NEIGHBOR_COUNTRIES", {"Pair": "fr-de", "Country": france, "Neighbor": germany}
    )
    verdict = apply_mutation(
        db,
        Mutation(
            Action.UPDATE, row_ref=germany, bindings=(Binding("FrontierColor", "red"),)
        ),
    )
    assert verdict.rejected
    assert [v.witness for v in verdict.violations] == [pair]
    assert verdict.violations[0].left == verdict.violations[0].right == "red"
    verdict = apply_mutation(
        db,
        Mutation(
            Action.UPDATE, row_ref=france, bindings=(Binding("FrontierColor", None),)
        ),
    )
    assert verdict.applied


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_anti_commutative_link_check_with_many_witnesses_matches_the_reference(
    neighbors_schema, side
):
    """Colouring a hub country red checks, on each side, every pair that
    has the hub in that side's link. The hub's partners read red, null or
    blue, interleaved, so witnesses and partner colours must stay aligned
    as the non-violating rows drop out. The head is an equal but distinct
    string, so its slot (left or right) shows by identity."""
    db = Database(neighbors_schema)
    hub = db.insert_row("COUNTRIES", {"Country": "Hub"})
    colours = ["red", None, "blue", "red", None, "red", "blue", "red"]
    pairs: dict[Side, list[RowId]] = {Side.LEFT: [], Side.RIGHT: []}
    for i, colour in enumerate(colours):
        partner = db.insert_row("COUNTRIES", {"Country": f"P{i}", "FrontierColor": colour})
        for pair_side, country, neighbor in (
            (Side.LEFT, hub, partner),
            (Side.RIGHT, partner, hub),
        ):
            pairs[pair_side].append(
                db.insert_row(
                    "NEIGHBOR_COUNTRIES",
                    {"Pair": f"{pair_side.value}{i}", "Country": country, "Neighbor": neighbor},
                )
            )
    red = "".join(("r", "ed"))
    db.set_values(hub, {"FrontierColor": red})
    reference = db.clone(share_counter=False)
    occurrences = dispatch(neighbors_schema)[("COUNTRIES", "FrontierColor")]
    [occ] = [o for o in occurrences if o.side is side]

    counted, reference_counted = db.rows_inspected, reference.rows_inspected
    violations = check_link_update(db, occ, hub, red)
    expected = rowwise_engine.check_link_update(reference, occ, hub, red)
    assert violations == rowwise_engine.sort_violations(expected)
    assert db.rows_inspected - counted == reference.rows_inspected - reference_counted

    clashing = [pair for pair, colour in zip(pairs[side], colours) if colour == "red"]
    assert len(clashing) == 4
    assert [v.witness for v in violations] == clashing  # ascending
    assert all(map(operator.is_, [v.witness for v in violations], clashing))
    for v in violations:
        head, other = (v.left, v.right) if side is Side.LEFT else (v.right, v.left)
        assert head is red and other == red and other is not red
        assert v.kind is ViolationKind.ANTI_COMMUTATIVE and v.changed.row == hub

    db.set_values(hub, {"FrontierColor": None})
    reference.set_values(hub, {"FrontierColor": None})
    recolor = Mutation(Action.UPDATE, row_ref=hub, bindings=(Binding("FrontierColor", "red"),))
    verdict = apply_mutation(db, recolor)
    assert verdict == rowwise_engine.apply_mutation(reference, recolor)
    assert len(verdict.violations) == 8


def test_violations_sorted_by_witness(geography_schema):
    db, handles = seeded_geography(geography_schema)
    for i in range(3):
        verdict = apply_mutation(
            db,
            Mutation(
                Action.INSERT,
                set_name="RIVERS",
                bindings=(
                    Binding("River", f"R{i}"),
                    Binding("Continent", handles["europe"]),
                    Binding("Mountain", handles["montblanc"]),
                ),
            ),
        )
        assert verdict.applied
    verdict = apply_mutation(
        db,
        Mutation(
            Action.UPDATE,
            row_ref=handles["alps"],
            bindings=(Binding("Continent", handles["asia"]),),
        ),
    )
    assert verdict.rejected
    witnesses = [v.witness.x for v in verdict.violations]
    assert witnesses == sorted(witnesses)
    assert len(witnesses) == 4


def test_link_check_witnesses_match_the_reference_and_carry_the_written_head(geography_schema):
    db, handles = seeded_geography(geography_schema)
    for i in range(2):
        rapids = Mutation(
            Action.INSERT,
            set_name="RIVERS",
            bindings=(
                Binding("River", f"R{i}"),
                Binding("Continent", handles["europe"]),
                Binding("Mountain", handles["montblanc"]),
            ),
        )
        assert apply_mutation(db, rapids).applied
    reference_db = db.clone(share_counter=False)
    before = db.snapshot()
    move_alps = Mutation(
        Action.UPDATE,
        row_ref=handles["alps"],
        bindings=(Binding("Continent", handles["asia"]),),
    )
    verdict = apply_mutation(db, move_alps)
    assert verdict.rejected and db.snapshot() == before
    assert type(verdict.violations) is tuple and len(verdict.violations) == 3
    expected = rowwise_engine.apply_mutation(reference_db, move_alps)
    assert verdict == expected and hash(verdict) == hash(expected)
    # The head reads Asia, where the store's Alps are back in Europe.
    assert [(v.left, v.right) for v in verdict.violations] == [
        (handles["asia"], handles["europe"])
    ] * 3
    assert {v.changed.row for v in verdict.violations} == {handles["alps"]}
    assert {v.kind for v in verdict.violations} == {ViolationKind.COMMUTATIVE}


def test_script_replay_matches_expectations(geography_schema):
    mutations, diagnostics = parse_script(
        fixture_text("geography_ac1.fdm"), geography_schema
    )
    assert diagnostics == []
    db = Database(geography_schema)
    handles = {}
    for m in mutations:
        verdict = apply_mutation(db, m, handles)
        if m.expectation is not None:
            wanted_accept = m.expectation.value == "accept"
            assert wanted_accept == verdict.applied, (m, verdict.violations)


# -- message templates ---------------------------------------------------------


RHONE = Mutation(
    Action.INSERT,
    set_name="RIVERS",
    bindings=(
        Binding("River", "Rhone"),
        Binding("Continent", HandleRef("asia")),
        Binding("Mountain", HandleRef("montblanc")),
    ),
)


def test_every_message_field_formats_in_a_violation():
    template = "{constraint} {witness}: {left_chain}={left} vs {right_chain}={right} {{x}}"
    source = fixture_text("geography.fd").replace(
        "The mountain a river springs from must lie on the river's own continent"
        " (left={left}, right={right})",
        template,
    )
    schema, diagnostics = parse_schema(source)
    assert schema is not None, diagnostics
    db, handles = seeded_geography(schema)
    verdict = apply_mutation(db, RHONE, handles)
    assert verdict.rejected
    [violation] = verdict.violations
    assert violation.message == (
        f"GeoContinent {violation.witness!r}:"
        f" Continent . Range . Subrange . Group . Mountain={handles['europe']!r}"
        f" vs Continent={handles['asia']!r} {{x}}"
    )


def test_violation_message_is_read_twice_alike_and_equality_compares_source(
    geography_schema,
):
    db, handles = seeded_geography(geography_schema)
    [violation] = apply_mutation(db, RHONE, handles).violations
    message = violation.message
    assert violation.message == message
    assert message.endswith(f"(left={violation.left!r}, right={violation.right!r})")
    assert violation._replace(source="another text") != violation
    assert violation._replace() == violation
    assert hash(violation._replace()) == hash(violation)


def test_verdicts_and_changed_links_compare_and_hash_by_value(geography_schema, geography_db):
    """A verdict's equality and hash ignore `row`; a violation holding a
    changed link hashes."""
    [occ] = dispatch(geography_schema)[("MOUNTAIN_RANGES", "Continent")]
    alps = row_named(geography_db, "MOUNTAIN_RANGES", "Range", "Alps")
    asia = row_named(geography_db, "CONTINENTS", "Continent", "Asia")
    [violation] = check_link_update(geography_db, occ, alps, asia)
    link = ChangedLink("MOUNTAIN_RANGES", "Continent", RowId(*alps))
    assert violation.changed == link and hash(violation.changed) == hash(link)
    assert link != ChangedLink("MOUNTAIN_RANGES", "Continent", asia)
    assert {violation, violation._replace(changed=link)} == {violation}

    rejected = Verdict(Outcome.REJECTED, (violation,))
    assert rejected == Verdict(Outcome.REJECTED, (violation._replace(),), row=alps)
    assert hash(rejected) == hash(Verdict(Outcome.REJECTED, (violation._replace(),), alps))
    applied = Verdict(Outcome.APPLIED, (), alps)
    assert applied == Verdict(Outcome.APPLIED, ()) and applied != rejected
    assert hash(applied) == hash(Verdict(Outcome.APPLIED, ()))
    assert (applied.applied, applied.rejected, applied.row) == (True, False, alps)
    assert (rejected.applied, rejected.rejected, rejected.row) == (False, True, None)


def test_store_error_violation_built_positionally_returns_its_text():
    violation = Violation(
        None, ViolationKind.STORE_ERROR, None, None, None, None, "no row 'S#3'"
    )
    assert violation.message == "no row 'S#3'"


TEMPLATE_FIELDS = st.builds(
    "{{{}{}}}".format,
    st.sampled_from(["left", "right", "witness", "left_chain", "", "0", "river"]),
    st.sampled_from(["", ".x", "[0]", "!r", ":>3", ":d", ":"]),
)
TEMPLATES = st.lists(
    st.one_of(TEMPLATE_FIELDS, st.sampled_from([" ", "text", "{{", "}}", "{", "}"])),
    max_size=6,
).map("".join)


@given(TEMPLATES)
def test_accepted_message_templates_never_crash_the_engine(geography_schema, template):
    # a template such as "{left.x}" used to raise AttributeError here at
    # the first violation; parse_schema now refuses every template this
    # check rejects
    if message_template_problem(template) is not None:
        return
    s = geography_schema
    templated = replace(s.constraints[0], message=template)
    schema = Schema(s.name, s.sets, s.functions, (templated,))
    [constraint] = schema.constraints
    db, handles = seeded_geography(schema)
    rhone = db.insert_row(
        "RIVERS",
        {"River": "Rhone", "Continent": handles["asia"], "Mountain": handles["montblanc"]},
    )
    [violation] = check_domain_row(db, constraint, rhone)
