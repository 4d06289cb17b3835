from __future__ import annotations

import operator
import random

import pytest

from funcdiag.dsl import parse_script
from funcdiag.engine import apply_mutation
from funcdiag.model import FunctionDef, ScalarType, Schema, SetDef
from funcdiag.store import (
    DanglingReference,
    Database,
    MissingRequired,
    RestrictViolation,
    RowId,
    UnknownFunction,
    UnknownRow,
    UnknownSet,
    Value,
    ValueTypeMismatch,
)
import store_layout
from conftest import fixture_text
from rowwise_engine import lookup_ids


def brute_force_preimage(
    db: Database, domain_set: str, fn_name: str, target: RowId
) -> frozenset[RowId]:
    """Reference implementation of inverse() by scanning every row."""
    matches: list[RowId] = []
    for row in db.rows(domain_set):
        if db.lookup(row, fn_name) == target:
            matches.append(row)
    return frozenset(matches)


def dump_text(db: Database) -> str:
    """Line-oriented debugging dump of every row, sorted by set and id."""
    lines: list[str] = []
    for set_name, table in sorted(db.snapshot()["tables"].items()):
        for x in sorted(table):
            values = table[x]
            parts = " ".join(
                f"{name}={_render_value(values[name])}" for name in sorted(values)
            )
            lines.append(f"{set_name} x={x} {parts}".rstrip())
    return "\n".join(lines)


def _render_value(value: Value) -> str:
    if value is None:
        return "null"
    if isinstance(value, RowId):
        return repr(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return str(value)


@pytest.fixture()
def schema():
    return Schema(
        "Shop",
        (SetDef("CATEGORIES", "Category"), SetDef("ITEMS", "Item")),
        (
            FunctionDef("Category", "CATEGORIES", ScalarType.TEXT),
            FunctionDef("Item", "ITEMS", ScalarType.TEXT),
            FunctionDef("Stock", "ITEMS", ScalarType.INTEGER, nullable=True),
            FunctionDef("Category", "ITEMS", "CATEGORIES", nullable=True),
        ),
    )


@pytest.fixture()
def db(schema):
    return Database(schema)


def test_row_id_sorts_by_set_then_x_and_prints_as_set_hash_x():
    rows = [RowId("B", 1), RowId("A", 10), RowId("A", 2)]
    assert sorted(rows) == [RowId("A", 2), RowId("A", 10), RowId("B", 1)]
    assert repr(RowId("S", 3)) == "S#3"
    assert RowId("A", 3) != RowId("B", 3)
    assert len({RowId("A", 3), RowId("B", 3)}) == 2
    # the hash of the (set_name, x) pair, so set iteration order is stable
    assert hash(RowId("S", 3)) == hash(("S", 3))


def test_first_surrogate_is_one(db):
    row = db.insert_row("CATEGORIES", {"Category": "tools"})
    assert row == RowId("CATEGORIES", 1)
    assert db.insert_row("CATEGORIES", {"Category": "toys"}).x == 2


def test_insert_nullable_link_as_null(db):
    db.insert_row("CATEGORIES", {"Category": "tools"})
    row = db.insert_row("ITEMS", {"Item": "hammer", "Category": None})
    assert db.lookup(row, "Category") is None


def test_insert_missing_required(db):
    with pytest.raises(MissingRequired):
        db.insert_row("ITEMS", {"Stock": 3})


def test_insert_dangling_reference(db):
    with pytest.raises(DanglingReference):
        db.insert_row("ITEMS", {"Item": "hammer", "Category": RowId("CATEGORIES", 9)})


def test_insert_unknown_function(db):
    with pytest.raises(UnknownFunction):
        db.insert_row("CATEGORIES", {"Category": "x", "Price": 1})


def test_insert_checks_bound_values_before_required_functions(db):
    # "Item" is missing from both, but each bound value fails first
    with pytest.raises(UnknownFunction, match="'Price'"):
        db.insert_row("ITEMS", {"Stock": 1, "Price": 1})
    with pytest.raises(DanglingReference):
        db.insert_row("ITEMS", {"Category": RowId("CATEGORIES", 9)})
    assert db.rows_inspected == 1
    normalized = db.validate_insert("ITEMS", {"Stock": 2, "Item": "saw"})
    assert list(normalized.items()) == [("Stock", 2), ("Item", "saw"), ("Category", None)]


def test_value_type_checks(db):
    with pytest.raises(ValueTypeMismatch):
        db.insert_row("CATEGORIES", {"Category": 7})
    db.insert_row("CATEGORIES", {"Category": "tools"})
    with pytest.raises(ValueTypeMismatch):
        db.insert_row("ITEMS", {"Item": "saw", "Stock": "many"})
    with pytest.raises(ValueTypeMismatch):
        db.insert_row("ITEMS", {"Item": "saw", "Stock": True})
    with pytest.raises(ValueTypeMismatch):
        # a link may only hold rows of its declared codomain set
        db.insert_row("ITEMS", {"Item": "saw", "Category": RowId("ITEMS", 1)})
    with pytest.raises(MissingRequired):
        db.insert_row("ITEMS", {"Item": None})
    # integers are SQLite's, signed 64-bit
    saw = db.insert_row("ITEMS", {"Item": "saw", "Stock": 2**63 - 1})
    db.set_values(saw, {"Stock": -(2**63)})
    for stock in (2**63, -(2**63) - 1):
        with pytest.raises(ValueTypeMismatch, match="64-bit"):
            db.insert_row("ITEMS", {"Item": "drill", "Stock": stock})
        with pytest.raises(ValueTypeMismatch, match="64-bit"):
            db.set_values(saw, {"Stock": stock})
    assert db.lookup(saw, "Stock") == -(2**63)
    assert db.rows("ITEMS") == (saw,)


def test_set_value_moves_reverse_index(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    toys = db.insert_row("CATEGORIES", {"Category": "toys"})
    item = db.insert_row("ITEMS", {"Item": "kite", "Category": tools})
    assert db.inverse("ITEMS", "Category", tools) == {item}
    db.set_values(item, {"Category": toys})
    assert db.inverse("ITEMS", "Category", tools) == frozenset()
    assert db.inverse("ITEMS", "Category", toys) == {item}


def test_inverse_on_empty_table_is_empty(db):
    cat = db.insert_row("CATEGORIES", {"Category": "tools"})
    assert db.inverse("ITEMS", "Category", cat) == frozenset()


def test_delete_restrict_lists_referencing_rows(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    item = db.insert_row("ITEMS", {"Item": "saw", "Category": tools})
    with pytest.raises(RestrictViolation) as exc:
        db.delete_row(tools)
    assert exc.value.referencing == (item,)
    db.set_values(item, {"Category": None})
    db.delete_row(tools)
    assert not db.row_exists(tools)


def test_delete_restrict_lists_referrers_in_the_order_functions_are_given():
    """A hand-built schema may list its functions interleaving sets; delete
    RESTRICT lists the referencing rows link by link in that order."""
    schema = Schema(
        "Shop",
        (SetDef("SHELVES", "Shelf"), SetDef("CATEGORIES", "Category"), SetDef("ITEMS", "Item")),
        (
            FunctionDef("Category", "CATEGORIES", ScalarType.TEXT),
            FunctionDef("Item", "ITEMS", ScalarType.TEXT),
            FunctionDef("Category", "ITEMS", "CATEGORIES"),
            FunctionDef("Shelf", "SHELVES", ScalarType.TEXT),
            FunctionDef("Category", "SHELVES", "CATEGORIES"),
        ),
    )
    assert [fn.domain for fn in schema.links_into("CATEGORIES")] == ["ITEMS", "SHELVES"]
    db = Database(schema)
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    shelf = db.insert_row("SHELVES", {"Shelf": "top", "Category": tools})
    item = db.insert_row("ITEMS", {"Item": "saw", "Category": tools})
    with pytest.raises(RestrictViolation) as exc:
        db.delete_row(tools)
    assert exc.value.referencing == (item, shelf)


def test_surrogates_never_reused_after_delete(db):
    a = db.insert_row("CATEGORIES", {"Category": "a"})
    db.delete_row(a)
    b = db.insert_row("CATEGORIES", {"Category": "b"})
    assert b.x == a.x + 1


def test_unknown_row_update(db):
    with pytest.raises(UnknownRow):
        db.set_values(RowId("ITEMS", 4), {"Item": "x"})


def test_multi_value_update_validates_before_writing(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    item = db.insert_row("ITEMS", {"Item": "saw", "Category": tools})
    with pytest.raises(ValueTypeMismatch):
        db.set_values(item, {"Item": "hammer", "Stock": "oops"})
    assert db.lookup(item, "Item") == "saw"


def test_undo_write_takes_back_an_update_and_an_insert(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    toys = db.insert_row("CATEGORIES", {"Category": "toys"})
    item = db.insert_row("ITEMS", {"Item": "kite", "Category": tools})
    before = db.snapshot()
    image = db.set_values(item, {"Category": toys, "Item": "yo-yo"})
    assert list(image.items()) == [("Category", tools), ("Item", "kite")]
    db.undo_write(item, image)
    assert db.snapshot() == before
    assert db.inverse("ITEMS", "Category", toys) == frozenset()
    extra = db.insert_row("ITEMS", {"Item": "saw", "Category": toys})
    db.undo_write(extra, None)
    assert db.snapshot() == before
    assert db.insert_row("ITEMS", {"Item": "saw"}) == extra


def test_snapshot_equality_and_independence(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    before = db.snapshot()
    assert before == db.snapshot()
    db.insert_row("ITEMS", {"Item": "saw", "Category": tools})
    assert before != db.snapshot()


def test_rows_of_an_unknown_set_raise(db):
    with pytest.raises(UnknownSet, match="unknown set 'SHOPS'"):
        db.rows("SHOPS")


# a set whose one function, its name, is nullable: its rows may hold no value
BARE = Schema(
    "Bare", (SetDef("MARKS", "Mark"),), (FunctionDef("Mark", "MARKS", ScalarType.TEXT, True),)
)


def test_a_set_of_rows_without_values_keeps_its_rows():
    db = Database(BARE)
    first, second = db.insert_row("MARKS", {}), db.insert_row("MARKS", {})
    db.delete_row(first)
    assert db.rows("MARKS") == (second,)
    assert db.read_row(second) == {"Mark": None}
    tables = {"MARKS": {2: {"Mark": None}}}
    assert db.snapshot()["tables"] == tables == db.clone().snapshot()["tables"]


def test_read_row_refuses_an_unknown_set_or_a_dead_row_counting_nothing(db):
    saw = db.insert_row("ITEMS", {"Item": "saw"})
    db.delete_row(db.insert_row("ITEMS", {"Item": "kite"}))
    bare = Database(BARE)
    before = db.rows_inspected
    for store, row, message in (
        (db, RowId("SHOPS", 1), "unknown set 'SHOPS'"),
        (db, RowId("ITEMS", 2), "no row ITEMS#2"),
        (bare, RowId("MARKS", 1), "no row MARKS#1"),
    ):
        with pytest.raises((UnknownSet, UnknownRow), match=f"^{message}$"):
            store.read_row(row)
    assert (db.rows_inspected, bare.rows_inspected) == (before, 0)
    assert db.read_row(saw) == {"Item": "saw", "Stock": None, "Category": None}
    assert db.rows_inspected == before + 1


def test_clone_is_deep_and_shares_counter_by_default(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    clone = db.clone()
    assert clone.snapshot() == db.snapshot()
    clone.insert_row("ITEMS", {"Item": "saw", "Category": RowId("CATEGORIES", 1)})
    assert len(db.rows("ITEMS")) == 0
    base = db.rows_inspected
    clone.lookup(RowId("ITEMS", 1), "Item")
    assert db.rows_inspected == base + 1
    detached = db.clone(share_counter=False)
    detached.lookup(tools, "Category")
    assert db.rows_inspected == base + 1


def _same_objects(got, expected) -> bool:
    return len(got) == len(expected) and all(map(operator.is_, got, expected))


@pytest.mark.parametrize("fixture", ["geography_schema", "neighbors_schema"])
def test_walks_bind_and_clone_inserts_grow_the_stores_own_lists(fixture, request):
    """A store binds each constraint's two domain walks, the ones domain
    checks read, over its own columns, and a walk for each occurrence
    whose reverse walk is not empty, the ones link checks read, over its
    own reverse indexes and columns, each column beside whether its
    function is nullable and the last level apart from the interior
    ones; a clone binds the same walks over its own.
    Inserts into a clone, into every set, grow the clone's id, column
    and reverse-index lists alone: the original's keep their length and
    their contents."""
    schema = request.getfixturevalue(fixture)
    db = Database(schema)
    checked = [occ for c in schema.constraints for occ in c.occurrences if occ.reverse]
    clone = db.clone()
    for store in (db, clone):
        assert set(store.walks) == {id(c) for c in schema.constraints} | {id(o) for o in checked}
        for c in schema.constraints:
            lefts, rights = (
                [store_layout.column(store, f.domain, f.name) for f in chain.functions[::-1]]
                for chain in (c.left, c.right)
            )
            walked_left, walked_right = store.walks[id(c)]
            assert _same_objects(walked_left, lefts[1:]) and _same_objects(walked_right, rights)
        for occ in checked:
            indexes, interior, last = store.walks[id(occ)]
            assert _same_objects(
                indexes, [store_layout.reverse_index(store, f.domain, f.name) for f in occ.reverse]
            )
            columns, nullable = zip(*interior, last)
            assert _same_objects(
                columns,
                [store_layout.column(store, f.domain, f.name) for f in occ.other.functions[::-1]],
            )
            assert nullable == tuple(f.nullable for f in occ.other.functions[::-1])
    script = {"geography_schema": "geography_ac1.fdm", "neighbors_schema": "neighbors_ac2.fdm"}
    mutations, _ = parse_script(fixture_text(script[fixture]), schema)
    handles: dict = {}
    for m in mutations:
        apply_mutation(clone, m, handles)
    assert all(clone.rows(s.name) for s in schema.sets)
    links = [f for f in schema.functions if f.is_link]
    lists = {
        store: [
            *(store_layout.ids(store, s.name) for s in schema.sets),
            *(store_layout.column(store, f.domain, f.name) for f in schema.functions),
            *(store_layout.reverse_index(store, f.domain, f.name) for f in links),
        ]
        for store in (db, clone)
    }
    assert all(len(got) == 1 for got in lists[db])  # slot 0 alone
    assert all(len(got) > 1 for got in lists[clone])
    assert not any(map(operator.is_, lists[db], lists[clone]))
    assert db.snapshot() == Database(schema).snapshot()


def test_rows_inverse_and_row_ids_hand_out_the_row_ids_insert_row_returned(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    toys = db.insert_row("CATEGORIES", {"Category": "toys"})
    saw = db.insert_row("ITEMS", {"Item": "saw", "Category": tools})
    kite = db.insert_row("ITEMS", {"Item": "kite", "Category": toys})
    drill = db.insert_row("ITEMS", {"Item": "drill", "Category": tools})
    assert _same_objects(db.rows("CATEGORIES"), (tools, toys))
    assert _same_objects(db.rows("ITEMS"), (saw, kite, drill))
    preimage = db.inverse("ITEMS", "Category", RowId("CATEGORIES", 1))
    assert _same_objects(sorted(preimage), [saw, drill])
    before = db.rows_inspected
    assert _same_objects(db.row_ids("ITEMS", iter([3, 1, 2])), [drill, saw, kite])
    assert db.rows_inspected == before  # reads no values


def test_an_undone_insert_is_gone_and_a_reinsert_gets_an_equal_row_id(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    saw = db.insert_row("ITEMS", {"Item": "saw", "Category": tools})
    db.undo_write(saw, None)
    assert db.rows("ITEMS") == ()
    assert db.inverse("ITEMS", "Category", tools) == frozenset()
    again = db.insert_row("ITEMS", {"Item": "saw", "Category": tools})
    assert again == saw
    assert _same_objects(db.rows("ITEMS"), (again,))
    assert _same_objects(db.inverse("ITEMS", "Category", tools), (again,))


# NODES links to itself by Parent and TAGS links into it by Node, so an
# insert into NODES grows its ids, three columns and two reverse indexes.
TREE = Schema(
    "Tree",
    (SetDef("NODES", "Label"), SetDef("TAGS", "Tag")),
    (
        FunctionDef("Label", "NODES", ScalarType.TEXT),
        FunctionDef("Weight", "NODES", ScalarType.INTEGER, nullable=True),
        FunctionDef("Parent", "NODES", "NODES", nullable=True),
        FunctionDef("Tag", "TAGS", ScalarType.TEXT),
        FunctionDef("Node", "TAGS", "NODES", nullable=True),
    ),
)


@pytest.mark.parametrize(
    "values, error, counted",
    [
        ({"Label": "b", "Weight": 1, "Parent": RowId("NODES", 9)}, DanglingReference, 1),
        ({"Label": "b", "Parent": RowId("NODES", 1), "Weight": "heavy"}, ValueTypeMismatch, 1),
        ({"Label": "b", "Parent": RowId("NODES", 1), "Colour": "red"}, UnknownFunction, 1),
        ({"Weight": 2, "Parent": RowId("NODES", 1)}, MissingRequired, 1),
    ],
    ids=["dangling-link", "type-mismatch", "unknown-function", "missing-required"],
)
def test_an_insert_refused_at_its_last_binding_grows_nothing(values, error, counted):
    """Validation runs whole before the one writing pass, so an insert that
    fails after every other binding passed leaves every list the insert
    would grow at its length and the state as it was; it counts the
    existence checks it made, +1 per link checked."""
    db = Database(TREE)
    root = db.insert_row("NODES", {"Label": "root"})
    db.insert_row("TAGS", {"Tag": "t", "Node": root})
    lengths = store_layout.slot_lengths(db, "NODES")
    snapshot, before = db.snapshot(), db.rows_inspected
    with pytest.raises(error):
        db.insert_row("NODES", values)
    assert store_layout.slot_lengths(db, "NODES") == lengths == [2, 2, 2, 2, 2, 2]
    assert db.snapshot() == snapshot
    assert db.rows_inspected == before + counted


def test_a_self_set_link_lands_in_its_targets_reverse_slot():
    db = Database(TREE)
    root = db.insert_row("NODES", {"Label": "root"})
    before = db.rows_inspected
    leaf = db.insert_row("NODES", {"Label": "leaf", "Parent": root})
    assert db.rows_inspected == before + 2  # the target's existence, the write
    assert store_layout.reverse_index(db, "NODES", "Parent") == [(), {2}, ()]
    assert store_layout.reverse_index(db, "TAGS", "Node") == [(), (), ()]
    assert db.inverse("NODES", "Parent", root) == {leaf}
    assert db.read_row(leaf) == {"Label": "leaf", "Weight": None, "Parent": root}
    assert store_layout.slot_lengths(db, "NODES") == [3] * 6


def test_a_clone_shares_the_row_ids_while_writes_stay_apart(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    saw = db.insert_row("ITEMS", {"Item": "saw", "Category": tools})
    clone = db.clone()
    assert _same_objects(clone.rows("CATEGORIES"), (tools,))
    assert _same_objects(clone.rows("ITEMS"), (saw,))
    kite = clone.insert_row("ITEMS", {"Item": "kite", "Category": tools})
    clone.delete_row(saw)
    db.delete_row(saw)
    drill = db.insert_row("ITEMS", {"Item": "drill", "Category": tools})
    assert drill == kite
    assert _same_objects(clone.rows("ITEMS"), (kite,))
    assert _same_objects(db.rows("ITEMS"), (drill,))
    assert clone.read_row(kite)["Item"] == "kite" and db.read_row(drill)["Item"] == "drill"


# Ids that name no live row: slots 0 and -1 (the live row 3's, were it
# read as an index), the next id, an int's look-alikes, a deleted row's,
# and an undone insert's (which is also the next id, on another history).
BAD_IDS = {
    "0": (0, False),
    "-1": (-1, False),
    "next": (4, False),
    "1.0": (1.0, False),
    "'1'": ("1", False),
    "deleted": (2, False),
    "undone": (4, True),
}


@pytest.mark.parametrize("x, undone", BAD_IDS.values(), ids=BAD_IDS)
def test_no_bad_id_wraps_around_or_aliases_a_row(db, x, undone):
    """In each set rows 1 and 3 are live and row 2 is deleted (and, with
    `undone`, row 4 was inserted and taken back): an id that names none of
    the live rows is refused by every read and write as no row, as a link
    target as a missing one, and has an empty preimage; reads count
    nothing, and nothing changes."""
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    db.delete_row(db.insert_row("CATEGORIES", {"Category": "gone"}))
    toys = db.insert_row("CATEGORIES", {"Category": "toys"})
    saw = db.insert_row("ITEMS", {"Item": "saw", "Category": tools})
    db.delete_row(db.insert_row("ITEMS", {"Item": "gone"}))
    db.insert_row("ITEMS", {"Item": "kite", "Category": toys})
    if undone:
        db.undo_write(db.insert_row("CATEGORIES", {"Category": "undone"}), None)
        db.undo_write(db.insert_row("ITEMS", {"Item": "undone", "Category": toys}), None)
    snapshot, before = db.snapshot(), db.rows_inspected
    for set_name, name in (("CATEGORIES", "Category"), ("ITEMS", "Item")):
        row = RowId(set_name, x)
        assert not db.row_exists(row)
        for refused in (
            lambda: db.lookup(row, name),
            lambda: db.read_row(row),
            lambda: db.set_values(row, {name: "renamed"}),
            lambda: db.delete_row(row),
        ):
            with pytest.raises(UnknownRow, match=f"^no row {set_name}#{x}$"):
                refused()
    assert db.rows_inspected == before
    target = RowId("CATEGORIES", x)
    assert db.inverse("ITEMS", "Category", target) == frozenset()
    with pytest.raises(DanglingReference):
        db.insert_row("ITEMS", {"Item": "drill", "Category": target})
    with pytest.raises(DanglingReference):
        db.set_values(saw, {"Category": target})
    assert db.snapshot() == snapshot


def test_dump_text_mentions_rows(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    db.insert_row("ITEMS", {"Item": "saw", "Category": tools, "Stock": 3})
    dump = dump_text(db)
    assert 'CATEGORIES x=1 Category="tools"' in dump
    assert "Category=CATEGORIES#1" in dump and "Stock=3" in dump


def test_counter_counts_lookups(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    before = db.rows_inspected
    db.lookup(tools, "Category")
    db.lookup(tools, "Category")
    assert db.rows_inspected == before + 2


@pytest.mark.parametrize(
    "row, fn_name, error, message, counted",
    [
        (RowId("SHOPS", 1), "Item", UnknownSet, "unknown set 'SHOPS'", 0),
        (RowId("ITEMS", 2), "Item", UnknownRow, "no row ITEMS#2", 0),
        (RowId("ITEMS", 2), "Colour", UnknownRow, "no row ITEMS#2", 0),
        (RowId("ITEMS", 9), "Item", UnknownRow, "no row ITEMS#9", 0),
        (RowId("ITEMS", 1), "Colour", UnknownFunction, "no function 'Colour' on 'ITEMS'", 1),
    ],
)
def test_lookup_fails_on_a_missing_set_row_or_function_and_counts_only_a_live_row(
    db, row, fn_name, error, message, counted
):
    """An unknown set or a dead row is refused before any row is read; an
    unknown function is refused after reading the live row."""
    saw = db.insert_row("ITEMS", {"Item": "saw"})
    db.delete_row(db.insert_row("ITEMS", {"Item": "kite"}))
    before = db.rows_inspected
    with pytest.raises(error, match=f"^{message}$"):
        db.lookup(row, fn_name)
    assert db.rows_inspected == before + counted
    assert db.lookup(saw, "Item") == "saw"
    assert db.rows_inspected == before + counted + 1


@pytest.mark.parametrize(
    "set_name, values, error, message, counted",
    [
        ("SHOPS", {"Item": "saw"}, UnknownSet, "unknown set 'SHOPS'", 0),
        ("ITEMS", {"Item": "saw", "Price": 1}, UnknownFunction, "no function 'Price' on 'ITEMS'", 0),
        ("ITEMS", {"Stock": 1}, MissingRequired, "insert into 'ITEMS' misses required 'Item'", 0),
        ("ITEMS", {"Item": None}, MissingRequired, "'Item' on 'ITEMS' does not allow null", 0),
        ("ITEMS", {"Item": 3}, ValueTypeMismatch, "'Item' on 'ITEMS' holds text, got int", 0),
        (
            "ITEMS",
            {"Item": "saw", "Category": RowId("ITEMS", 1)},
            ValueTypeMismatch,
            "'Category' on 'ITEMS' links to 'CATEGORIES', got row of 'ITEMS'",
            0,
        ),
        (
            "ITEMS",
            {"Item": "saw", "Category": RowId("CATEGORIES", 9)},
            DanglingReference,
            "'Category' on 'ITEMS' references missing CATEGORIES#9",
            1,
        ),
    ],
)
def test_validate_insert_refuses_each_bad_insert_and_writes_nothing(
    db, set_name, values, error, message, counted
):
    db.insert_row("CATEGORIES", {"Category": "tools"})
    snapshot, before = db.snapshot(), db.rows_inspected
    with pytest.raises(error, match=f"^{message}$"):
        db.validate_insert(set_name, values)
    assert db.rows_inspected == before + counted
    assert db.snapshot() == snapshot


@pytest.mark.parametrize(
    "row, values, error, message, counted",
    [
        (RowId("SHOPS", 1), {"Price": 1}, UnknownSet, "unknown set 'SHOPS'", 0),
        (RowId("ITEMS", 2), {"Price": 1}, UnknownRow, "no row ITEMS#2", 0),
        (RowId("ITEMS", 9), {"Item": "saw"}, UnknownRow, "no row ITEMS#9", 0),
        (RowId("ITEMS", 1), {"Price": 1}, UnknownFunction, "no function 'Price' on 'ITEMS'", 0),
        (
            RowId("ITEMS", 1),
            {"Item": None},
            MissingRequired,
            "'Item' on 'ITEMS' does not allow null",
            0,
        ),
        (
            RowId("ITEMS", 1),
            {"Item": 3},
            ValueTypeMismatch,
            "'Item' on 'ITEMS' holds text, got int",
            0,
        ),
        (
            RowId("ITEMS", 1),
            {"Stock": "3"},
            ValueTypeMismatch,
            "'Stock' on 'ITEMS' holds integers, got str",
            0,
        ),
        (
            RowId("ITEMS", 1),
            {"Stock": True},
            ValueTypeMismatch,
            "'Stock' on 'ITEMS' holds integers, got bool",
            0,
        ),
        (
            RowId("ITEMS", 1),
            {"Category": 1},
            ValueTypeMismatch,
            "'Category' on 'ITEMS' is a link to 'CATEGORIES', got int",
            0,
        ),
        (
            RowId("ITEMS", 1),
            {"Category": RowId("ITEMS", 1)},
            ValueTypeMismatch,
            "'Category' on 'ITEMS' links to 'CATEGORIES', got row of 'ITEMS'",
            0,
        ),
        (
            RowId("ITEMS", 1),
            {"Category": RowId("CATEGORIES", 9)},
            DanglingReference,
            "'Category' on 'ITEMS' references missing CATEGORIES#9",
            1,
        ),
        # bound values are checked in order: a good link counts its target
        (
            RowId("ITEMS", 1),
            {"Category": RowId("CATEGORIES", 1), "Stock": "3"},
            ValueTypeMismatch,
            "'Stock' on 'ITEMS' holds integers, got str",
            1,
        ),
        (
            RowId("ITEMS", 1),
            {"Stock": "3", "Category": RowId("CATEGORIES", 9)},
            ValueTypeMismatch,
            "'Stock' on 'ITEMS' holds integers, got str",
            0,
        ),
    ],
)
def test_validate_update_refuses_each_bad_update_and_writes_nothing(
    db, row, values, error, message, counted
):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    db.insert_row("ITEMS", {"Item": "saw", "Category": tools, "Stock": 2})
    db.delete_row(db.insert_row("ITEMS", {"Item": "kite"}))
    snapshot = db.snapshot()
    # set_values also counts the before-image it reads once the row is live
    for update, image in ((db.validate_update, 0), (db.set_values, db.row_exists(row))):
        before = db.rows_inspected
        with pytest.raises(error, match=f"^{message}$"):
            update(row, values)
        assert db.rows_inspected == before + counted + image
        assert db.snapshot() == snapshot


def test_validate_insert_keeps_the_bound_order_and_appends_nulls_in_schema_order(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    bound = {"Category": tools, "Stock": 2, "Item": "saw"}
    assert list(db.validate_insert("ITEMS", bound).items()) == list(bound.items())
    assert list(db.validate_insert("ITEMS", {"Item": "saw"}).items()) == [
        ("Item", "saw"),
        ("Stock", None),
        ("Category", None),
    ]


def test_bulk_reads_answer_and_count_as_the_per_row_reads(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    toys = db.insert_row("CATEGORIES", {"Category": "toys"})
    saw = db.insert_row("ITEMS", {"Item": "saw", "Category": tools, "Stock": 3})
    kite = db.insert_row("ITEMS", {"Item": "kite", "Category": toys})
    drill = db.insert_row("ITEMS", {"Item": "drill", "Category": tools})
    items = [drill.x, saw.x, kite.x]
    before = db.rows_inspected
    assert lookup_ids(db, "ITEMS", "Stock", items) == [None, 3, None]
    assert lookup_ids(db, "ITEMS", "Category", items) == [tools, tools, toys]
    assert db.rows_inspected == before + 6


@pytest.mark.parametrize(
    "read, error, counted",
    [
        (lambda db: lookup_ids(db, "ITEMS", "Stock", [1, 7, 2]), UnknownRow, 1),
        (lambda db: lookup_ids(db, "ITEMS", "Colour", [1, 2]), UnknownFunction, 1),
        (lambda db: lookup_ids(db, "SHOPS", "Item", [1]), UnknownSet, 0),
        (lambda db: db.inverse("ITEMS", "Stock", RowId("CATEGORIES", 1)), UnknownFunction, 0),
    ],
)
def test_bulk_reads_fail_as_the_per_row_reads(db, read, error, counted):
    """The first bad row raises lookup's error, after counting the rows
    lookup reads before it."""
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    db.insert_row("ITEMS", {"Item": "saw", "Category": tools})
    db.insert_row("ITEMS", {"Item": "kite"})
    before = db.rows_inspected
    with pytest.raises(error):
        read(db)
    assert db.rows_inspected == before + counted


@pytest.mark.parametrize("seed", range(10))
def test_reverse_index_matches_brute_force_after_random_ops(schema, seed):
    rng = random.Random(seed)
    db = Database(schema)
    categories: list[RowId] = []
    items: list[RowId] = []
    for _ in range(120):
        op = rng.random()
        try:
            if op < 0.3 or not categories:
                categories.append(
                    db.insert_row("CATEGORIES", {"Category": rng.choice("abc")})
                )
            elif op < 0.55:
                target = rng.choice(categories + [None])
                items.append(
                    db.insert_row(
                        "ITEMS", {"Item": rng.choice("xyz"), "Category": target}
                    )
                )
            elif op < 0.8 and items:
                db.set_values(
                    rng.choice(items), {"Category": rng.choice(categories + [None])}
                )
            elif items and rng.random() < 0.5:
                victim = rng.choice(items)
                db.delete_row(victim)
                items.remove(victim)
            elif categories:
                victim = rng.choice(categories)
                db.delete_row(victim)
                categories.remove(victim)
        except RestrictViolation:
            pass
        for cat in categories:
            assert db.inverse("ITEMS", "Category", cat) == brute_force_preimage(
                db, "ITEMS", "Category", cat
            )


# -- the store against a plain {set: {x: {function: value}}} model ------------

MODEL_SCHEMA = Schema(
    "Shelves",
    (SetDef("CATEGORIES", "Category"), SetDef("ITEMS", "Item")),
    (
        FunctionDef("Category", "CATEGORIES", ScalarType.TEXT),
        FunctionDef("Item", "ITEMS", ScalarType.TEXT),
        FunctionDef("Stock", "ITEMS", ScalarType.INTEGER, nullable=True),
        FunctionDef("Category", "ITEMS", "CATEGORIES", nullable=True),
        FunctionDef("Successor", "ITEMS", "ITEMS", nullable=True),
    ),
)


def _model_refusal(model: dict, set_name: str, values: dict, insert: bool):
    """The StoreError class the store must raise for this write, or None."""
    for name, value in values.items():
        fn = MODEL_SCHEMA.function(set_name, name)
        if fn is None:
            return UnknownFunction
        if value is None:
            if not fn.nullable:
                return MissingRequired
        elif fn.is_link:
            if not isinstance(value, RowId) or value.set_name != fn.codomain:
                return ValueTypeMismatch
            if value.x not in model[fn.codomain]:
                return DanglingReference
        elif fn.codomain is ScalarType.TEXT:
            if not isinstance(value, str):
                return ValueTypeMismatch
        elif isinstance(value, bool) or not isinstance(value, int):
            return ValueTypeMismatch
    if insert and any(
        fn.name not in values and not fn.nullable
        for fn in MODEL_SCHEMA.functions_of(set_name)
    ):
        return MissingRequired
    return None


def _random_values(rng: random.Random, model: dict, set_name: str, insert: bool) -> dict:
    """One to all of set_name's functions bound, now and then to a value the
    store must refuse: a wrong kind, a null for a required function, a
    row that does not exist (ids 0 and -1 among them), a row of the wrong
    set or an unknown name."""
    functions = list(MODEL_SCHEMA.functions_of(set_name))
    chosen = functions if insert and rng.random() < 0.8 else rng.sample(
        functions, rng.randint(1, len(functions))
    )
    values: dict[str, Value] = {}
    for fn in chosen:
        if fn.is_link:
            pool = [RowId(fn.codomain, x) for x in model[fn.codomain]] + [None]
            values[fn.name] = rng.choice(pool)
        elif fn.codomain is ScalarType.TEXT:
            values[fn.name] = rng.choice("abc")
        else:
            values[fn.name] = rng.choice([None, 0, 7, -3])
    if rng.random() < 0.15:
        fn = rng.choice(chosen)
        values[fn.name] = rng.choice(
            [None, "text", 5, True, RowId("ITEMS", 99), RowId("CATEGORIES", 99)]
            + [RowId("ITEMS", 0), RowId("ITEMS", -1)]
        )
    if rng.random() < 0.03:
        values["Colour"] = "red"
    return values


def _model_reverse(model: dict) -> dict:
    reverse = {}
    for fn in MODEL_SCHEMA.functions:
        if fn.is_link:
            index: dict[int, list[int]] = {}
            for x, row in model[fn.domain].items():
                if row[fn.name] is not None:
                    index.setdefault(row[fn.name].x, []).append(x)
            reverse[f"{fn.domain}.{fn.name}"] = {t: tuple(sorted(s)) for t, s in index.items()}
    return reverse


def _assert_matches(
    db: Database, model: dict, next_ids: dict, issued: dict, rng: random.Random
) -> None:
    """`issued` maps each row to the RowId object insert_row returned for it:
    every read that hands out a live row must hand out that object. Every
    column and reverse index has one slot per id issued in its set, and
    no reverse-index slot holds an empty set, which a clone would share."""
    snapshot = db.snapshot()
    assert snapshot == {
        "next_ids": next_ids,
        "tables": model,
        "reverse": _model_reverse(model),
    }
    for fn in MODEL_SCHEMA.functions:
        assert len(store_layout.column(db, fn.domain, fn.name)) == next_ids[fn.domain]
        if fn.is_link:
            index = store_layout.reverse_index(db, fn.domain, fn.name)
            assert len(index) == next_ids[fn.codomain] and set() not in index
    for set_name, table in model.items():
        rows = db.rows(set_name)
        assert rows == tuple(RowId(set_name, x) for x in table)
        assert _same_objects(rows, [issued[row] for row in rows])
        for x, row in table.items():
            assert db.read_row(RowId(set_name, x)) == row
        xs = list(table) * 2
        rng.shuffle(xs)
        assert _same_objects(db.row_ids(set_name, xs), [issued[RowId(set_name, x)] for x in xs])
        for fn in MODEL_SCHEMA.functions_of(set_name):
            before = db.rows_inspected
            assert lookup_ids(db, set_name, fn.name, xs) == [table[x][fn.name] for x in xs]
            assert db.rows_inspected == before + len(xs)
            if fn.is_link:
                for target in db.rows(fn.codomain):
                    for source in db.inverse(set_name, fn.name, target):
                        assert source is issued[source]


@pytest.mark.parametrize("seed", range(8))
def test_store_matches_a_row_dict_model_through_random_writes_and_undos(seed):
    """Inserts, multi-value updates, deletes and undos, refused ones
    included, leave the store equal to a plain row-dict model after every
    step: snapshot, row order, whole rows, bulk reads and next ids, and
    every row handed out is the very RowId its insert returned. A clone
    shares those RowIds, but one taken before a step and mutated after it
    shares nothing else with the original, either way round."""
    rng = random.Random(seed)
    db = Database(MODEL_SCHEMA)
    model: dict[str, dict[int, dict[str, Value]]] = {s.name: {} for s in MODEL_SCHEMA.sets}
    next_ids = {s.name: 1 for s in MODEL_SCHEMA.sets}
    issued: dict[RowId, RowId] = {}  # each row inserted -> the RowId insert_row returned
    undoable = None  # (row, set_values' image or None, model, next_ids) of the last write
    for step in range(120):
        clone = db.clone()
        clone_image = clone.snapshot()
        for set_name in model:
            assert _same_objects(clone.rows(set_name), db.rows(set_name))
        saved = ({s: {x: dict(r) for x, r in t.items()} for s, t in model.items()}, dict(next_ids))
        op = rng.random()
        set_name = rng.choice(["CATEGORIES", "ITEMS", "ITEMS"])
        live = [RowId(set_name, x) for x in model[set_name]]
        if op < 0.15 and undoable is not None:
            row, image, model, next_ids = undoable
            db.undo_write(row, image)
            undoable = None
        elif op < 0.55 or not live:
            values = _random_values(rng, model, set_name, insert=True)
            refusal = _model_refusal(model, set_name, values, insert=True)
            if refusal is not None:
                with pytest.raises(refusal):
                    db.insert_row(set_name, values)
            else:
                row = db.insert_row(set_name, values)
                assert row == RowId(set_name, next_ids[set_name])
                issued[row] = row
                next_ids[set_name] += 1
                model[set_name][row.x] = {
                    fn.name: values.get(fn.name) for fn in MODEL_SCHEMA.functions_of(set_name)
                }
                undoable = (row, None, *saved)
        elif op < 0.85:
            row = rng.choice(live)
            values = _random_values(rng, model, set_name, insert=False)
            refusal = _model_refusal(model, set_name, values, insert=False)
            if refusal is not None:
                with pytest.raises(refusal):
                    db.set_values(row, values)
            else:
                image = db.set_values(row, values)
                assert image == {name: model[set_name][row.x][name] for name in values}
                model[set_name][row.x].update(values)
                undoable = (row, image, *saved)
        else:
            row = rng.choice(live)
            referenced = any(  # a row's links to itself do not count
                value == row
                for other_set, table in model.items()
                for other, values in table.items()
                for value in values.values()
                if (other_set, other) != row
            )
            if referenced:
                with pytest.raises(RestrictViolation):
                    db.delete_row(row)
            else:
                db.delete_row(row)
                del model[set_name][row.x]
                undoable = None
        _assert_matches(db, model, next_ids, issued, rng)
        assert clone.snapshot() == clone_image, f"seed {seed} step {step}"
        clone.insert_row("CATEGORIES", {"Category": "from the clone"})
        for row in clone.rows("ITEMS")[:2]:
            clone.set_values(row, {"Item": "cloned", "Stock": 1, "Successor": row})
        _assert_matches(db, model, next_ids, issued, rng)
