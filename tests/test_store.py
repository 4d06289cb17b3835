from __future__ import annotations

import random

import pytest

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
    image = db.read_row(item)
    db.set_values(item, {"Item": "yo-yo", "Category": toys})
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


def test_bulk_reads_answer_and_count_as_the_per_row_reads(db):
    tools = db.insert_row("CATEGORIES", {"Category": "tools"})
    toys = db.insert_row("CATEGORIES", {"Category": "toys"})
    saw = db.insert_row("ITEMS", {"Item": "saw", "Category": tools, "Stock": 3})
    kite = db.insert_row("ITEMS", {"Item": "kite", "Category": toys})
    drill = db.insert_row("ITEMS", {"Item": "drill", "Category": tools})
    items = [drill.x, saw.x, kite.x]
    before = db.rows_inspected
    assert db.lookup_ids("ITEMS", "Stock", items) == [None, 3, None]
    assert db.lookup_ids("ITEMS", "Category", items) == [tools, tools, toys]
    assert db.rows_inspected == before + 6
    assert db.inverse_ids("ITEMS", "Category", {tools.x, toys.x, 99}) == set(items)
    assert db.inverse_ids("ITEMS", "Category", []) == set()
    assert db.rows_inspected == before + 9


@pytest.mark.parametrize(
    "read, error, counted",
    [
        (lambda db: db.lookup_ids("ITEMS", "Stock", [1, 7, 2]), UnknownRow, 1),
        (lambda db: db.lookup_ids("ITEMS", "Colour", [1, 2]), UnknownFunction, 1),
        (lambda db: db.lookup_ids("SHOPS", "Item", [1]), UnknownSet, 0),
        (lambda db: db.inverse_ids("ITEMS", "Stock", [1]), UnknownFunction, 0),
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
