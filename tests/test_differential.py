"""The engine against the oracle, the row-at-a-time reference and the
emitted SQL on randomized schemas and mutation streams.

Each seed grows a schema with 1-3 constraints (chains may share
functions, loop, and revisit sets), seeds a valid database, and replays
60 random mutations once, feeding each to apply_mutation on one copy,
oracle_apply on another, rowwise_engine (the link check that walks one
row at a time) on a third, and SQLite guarded by the emitted generic-sql
triggers on a fourth. After every step the four agree on the verdict,
the reference violation for violation and on rows_inspected. A second
run starts them from a database that random raw writes have left
violating some constraints. A few more seeds grow chains of up to 30
functions, and a few more make some functions required (non-nullable),
so that link checks walk levels that cannot read null.
"""

from __future__ import annotations

import random
import re
import sqlite3

import pytest
from hypothesis import given, note, settings, strategies as st

from funcdiag.dsl import Action, parse_schema
from funcdiag.engine import affected_rows, apply_mutation, raw_apply, resolve_mutation
from funcdiag.model import Side
from funcdiag.oracle import oracle_apply
from funcdiag.store import Database, StoreError

import rowwise_engine
import store_layout
from conftest import fixture_text
from printers import format_schema
from randgen import make_mutation, make_schema, seed_database
from test_sql_harness import (
    contents,
    generic_sql_units,
    indexed_columns,
    install,
    sql_apply,
    sql_contents,
)

# 143-182 are seeds on which BEFORE triggers read a row's old values
SEEDS = [*range(40), 143, 150, 167, 182]
MUTATIONS = 60
# 53-293 are seeds on which an oracle that forgave standing violations
# applied an update the engine and SQLite reject
INCONSISTENT_SEEDS = [*range(10), 53, 167, 238, 261, 272, 286, 293]
RAW_WRITES = 15
# seeds whose chains, of up to LONG_CHAIN functions, compose 8 or more:
# nested subqueries overflowed SQLite's parser stack from about 12
LONG_CHAIN_SEEDS = [0, 1, 5, 11, 17]
LONG_CHAIN = 30
# seeds replayed on schemas with required functions, from both starts
REQUIRED_SEEDS = range(20)
# Hypothesis examples of the drawn replay, each a schema, a start and a
# stream of MUTATIONS, about 2 s in all; derandomized, so every run draws
# the same ones
DRAWN_EXAMPLES = 10


def _schema(rng: random.Random, max_chain: int = 6, required: bool = False):
    return make_schema(rng, rng.randint(1, 3), max_chain, required)


def _contents(verdict) -> list:
    """Everything a violation reports but the changed link, which only the
    engine knows; the message is formatted here, on first read."""
    return [
        (v.constraint, v.witness, v.kind, v.left, v.right, v.message)
        for v in verdict.violations
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_agrees_with_oracle(seed):
    """Engine, oracle, reference and SQLite: the same verdict after every
    step and the same final tables."""
    _replay(seed, inconsistent=False)


@pytest.mark.parametrize("seed", INCONSISTENT_SEEDS)
def test_engine_agrees_with_oracle_from_an_inconsistent_state(seed):
    """As above, from a database that raw writes, which no check guards,
    have left violating: a write is judged by the rows it touches, and a
    touched row that still violates rejects it."""
    _replay(seed, inconsistent=True)


@pytest.mark.parametrize(
    "seed, inconsistent",
    [(seed, False) for seed in SEEDS] + [(seed, True) for seed in INCONSISTENT_SEEDS],
)
def test_set_at_a_time_link_checks_match_the_row_at_a_time_reference(seed, inconsistent):
    """The engine and the row-at-a-time reference give the same verdict,
    violation for violation in the same order, `changed` included, and
    count the same rows_inspected for every mutation: the same replay as
    the engine-oracle case of this seed and start."""
    _replay(seed, inconsistent)


# (seed, inconsistent) of the streams whose replay has passed
_REPLAYED: set[tuple[int, bool]] = set()


def _replay(seed: int, inconsistent: bool) -> None:
    """The seed's stream through _three_ways, replayed once per session:
    each seeded stream has two cases, engine against oracle and engine
    against reference, and one replay asserts both after every step."""
    if (seed, inconsistent) not in _REPLAYED:
        _three_ways(*_start(seed, inconsistent), seed)
        _REPLAYED.add((seed, inconsistent))


@pytest.mark.parametrize("inconsistent", [False, True])
@pytest.mark.parametrize("seed", LONG_CHAIN_SEEDS)
def test_engine_agrees_with_oracle_on_long_chains(seed, inconsistent):
    """As above, on schemas whose triggers join up to 58 tables."""
    rng, db = _start(seed, inconsistent, LONG_CHAIN)
    lengths = [c.chain(side).length for c in db.schema.constraints for side in Side]
    assert 8 <= max(lengths) <= LONG_CHAIN, lengths
    _three_ways(rng, db, seed)


@pytest.mark.parametrize("inconsistent", [False, True])
@pytest.mark.parametrize("seed", REQUIRED_SEEDS)
def test_engine_agrees_with_oracle_with_required_functions(seed, inconsistent):
    """As above, on schemas where about half the functions that may be are
    required: SQLite's columns are NOT NULL, the store refuses a null in
    them, and a link check does not look for nulls in their levels."""
    _three_ways(*_start(seed, inconsistent, required=True), seed)


def test_required_seeds_walk_levels_that_cannot_read_null():
    """The required seeds' link checks walk non-nullable levels, interior
    and last, beside nullable ones."""
    interior, last = set(), set()
    for seed in REQUIRED_SEEDS:
        db = _start(seed, False, required=True)[1]
        for constraint in db.schema.constraints:
            for occ in constraint.occurrences:
                if occ.reverse:
                    *inner, outermost = reversed(occ.other.functions)
                    interior.update(fn.nullable for fn in inner)
                    last.add(outermost.nullable)
    assert interior == last == {False, True}


class DrawnRandom:
    """The four methods of random.Random that randgen calls, each drawing
    from Hypothesis's `data`, so that randgen, unchanged, builds schemas,
    states and streams that Hypothesis can shrink."""

    def __init__(self, data) -> None:
        self.data = data

    def choice(self, seq):
        # by index: a drawn integer costs less than st.sampled_from
        return seq[self.data.draw(st.integers(0, len(seq) - 1))]

    def randint(self, a: int, b: int) -> int:
        return self.data.draw(st.integers(a, b))

    def random(self) -> float:
        # in hundredths: randgen compares it only with probabilities in
        # hundredths, and evenly drawn small integers keep its branches
        # mixed, where Hypothesis's large integers mostly read near 0
        return self.data.draw(st.integers(0, 99)) / 100

    def shuffle(self, x: list) -> None:
        x[:] = self.data.draw(st.permutations(x))


@settings(derandomize=True, max_examples=DRAWN_EXAMPLES, deadline=None)
@given(st.data())
def test_engine_agrees_with_oracle_on_drawn_schemas_and_streams(data):
    """The seeded tests' replay on a schema, a start and a mutation stream
    that Hypothesis draws through randgen. On a failure it shrinks the
    draws and notes the schema as .fd text; no health check is suppressed."""
    rng, db = _start(DrawnRandom(data), data.draw(st.booleans(), "inconsistent"))
    note(format_schema(db.schema))
    _three_ways(rng, db, "drawn")


# seeds whose chains revisit a set, the first five also looping back to
# their domain set, on chains of up to 6 functions and of up to LONG_CHAIN
REVISITING = [(11, 6), (12, 6), (23, 6), (24, 6), (34, 6), (1, LONG_CHAIN), (5, LONG_CHAIN)]


@pytest.mark.parametrize("inconsistent", [False, True])
@pytest.mark.parametrize("seed, max_chain", REVISITING)
def test_walks_that_revisit_a_set_list_each_affected_row_once(seed, max_chain, inconsistent):
    """A function maps each row to one value, so the preimages of distinct
    rows are disjoint and no level of a reverse walk holds a row twice,
    even on a chain that passes a set more than once. At every live row
    of every walked position, affected_rows lists the ids the reference's
    frozenset holds, strictly ascending, and both count the same
    rows_inspected."""
    _, db = _start(seed, inconsistent, max_chain)
    reference = db.clone(share_counter=False)
    revisiting_walks = 0
    for constraint in db.schema.constraints:
        for occ in constraint.occurrences:
            if not occ.reverse:
                continue
            chain = constraint.chain(occ.side)
            sets = [fn.domain for fn in chain.functions]
            revisits = len(set(sets)) < len(sets) or chain.codomain == chain.domain_set
            for r in db.rows(occ.set_name):
                counted, reference_counted = db.rows_inspected, reference.rows_inspected
                ids = affected_rows(db, occ, r)
                expected = rowwise_engine.affected_rows(reference, chain, occ.position, r)
                where = f"seed {seed} {occ.set_name}.{occ.function_name} at {r}"
                assert all(a < b for a, b in zip(ids, ids[1:])), where
                assert ids == sorted(row.x for row in expected), where
                assert (
                    db.rows_inspected - counted == reference.rows_inspected - reference_counted
                ), where
                revisiting_walks += revisits and len(ids) > 1
    assert revisiting_walks


def _start(
    seed: int | DrawnRandom, inconsistent: bool, max_chain: int = 6, required: bool = False
) -> tuple[random.Random, Database]:
    """The seed's random stream, or `seed` itself when it is one, and its
    seeded database, on chains of up to `max_chain` functions, with
    `required` functions or none; when `inconsistent`, after RAW_WRITES
    unchecked random writes."""
    rng = random.Random(seed) if isinstance(seed, int) else seed
    schema = _schema(rng, max_chain, required)
    db = seed_database(rng, schema)
    if inconsistent:
        for _ in range(RAW_WRITES):
            m = make_mutation(rng, db)
            try:
                raw_apply(db, m, *resolve_mutation(m, {}))
            except StoreError:
                pass
    return rng, db


def _three_ways(rng: random.Random, db, seed: int | str) -> None:
    """Feed MUTATIONS random mutations to `db` through the engine, to one
    copy through the oracle, to another through rowwise_engine and to
    SQLite, asserting after each that the oracle and SQLite give the
    engine's verdict and state, and the reference its verdict, violation
    for violation in order, `changed` included, and its rows_inspected."""
    schema = db.schema
    oracle_db, reference = db.clone(share_counter=False), db.clone(share_counter=False)
    connection = sqlite3.connect(":memory:")
    install(connection, schema, generic_sql_units(schema), db)
    for step in range(MUTATIONS):
        m = make_mutation(rng, db)
        before = db.clone(share_counter=False)
        counted, reference_counted = db.rows_inspected, reference.rows_inspected
        verdict = apply_mutation(db, m)
        expected = oracle_apply(oracle_db, m)
        where = f"seed {seed} step {step}: {m}"
        assert verdict == rowwise_engine.apply_mutation(reference, m), where
        assert (
            db.rows_inspected - counted == reference.rows_inspected - reference_counted
        ), where
        assert verdict.outcome is expected.outcome, where
        if verdict.rejected:
            assert _contents(verdict) == _contents(expected), where
            assert store_layout.same_state(db, before), where
        assert store_layout.same_state(db, oracle_db), where
        next_x = store_layout.next_id(before, m.set_name)
        assert sql_apply(connection, m, *resolve_mutation(m, {}), next_x) == verdict.applied, where
    assert contents(connection, schema) == sql_contents(db)
    connection.close()


@pytest.mark.parametrize("seed", range(6))
def test_same_state_agrees_with_snapshot_equality(seed):
    """The store comparison _three_ways makes says what comparing snapshots
    says, on equal stores and on stores that random raw writes set apart."""
    rng, db = _start(seed, inconsistent=False)
    other = db.clone(share_counter=False)
    answers = set()
    for _ in range(RAW_WRITES):
        same = store_layout.same_state(db, other)
        assert same == (db.snapshot() == other.snapshot()) == store_layout.same_state(other, db)
        answers.add(same)
        m = make_mutation(rng, other)
        try:
            raw_apply(other, m, *resolve_mutation(m, {}))
        except StoreError:
            pass
    assert answers == {True, False}


def test_seeds_cover_revisiting_chains_and_multi_column_updates():
    revisits = loops = multi = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        schema = _schema(rng)
        for c in schema.constraints:
            for chain in (c.left, c.right):
                sets = [fn.domain for fn in chain.functions]
                revisits += len(set(sets)) < len(sets)
                loops += chain.codomain == chain.domain_set
        db = seed_database(rng, schema)
        for _ in range(MUTATIONS):
            m = make_mutation(rng, db)
            multi += m.action is Action.UPDATE and len(m.bindings) > 1
            apply_mutation(db, m)
    assert revisits and loops and multi


# -- trigger plans ------------------------------------------------------------

_TRIGGER_RE = re.compile(r"CREATE TRIGGER \[([^\]]*)\].*?\n    (FROM .*?);\nEND;", re.S)
_NEW_OR_OLD_RE = re.compile(r"\b(?:NEW|OLD)\.\[[^\]]*\]")


def plan_gate(schema) -> tuple[int, list[str], list[str], int]:
    """Plan the join of every emitted trigger as SQLite plans it, with each
    NEW. and OLD. column read as a constant. Returns the number of
    triggers, the plan lines that SCAN, the link triggers whose domain-row
    hop (the last of the reverse walk) reads more than an index, and the
    number of covering indexes [S.f.g] whose set also gets [S.f]."""
    units = generic_sql_units(schema)
    connection = install(sqlite3.connect(":memory:"), schema, units)
    domain_hop = {
        f"{c.id}.{occ.set_name}.{occ.function_name}.{occ.side.value}{occ.position}":
        f"t{len(occ.head) + len(occ.reverse)}"
        for c in schema.constraints
        for occ in c.occurrences
        if occ.reverse
    }
    triggers, scans, uncovered = 0, [], []
    for unit in units:
        for name, clause in _TRIGGER_RE.findall(unit.body):
            triggers += 1
            query = "EXPLAIN QUERY PLAN SELECT 1 " + _NEW_OR_OLD_RE.sub("1", clause)
            plan = [detail for *_, detail in connection.execute(query)]
            scans += [f"{name}: {detail}" for detail in plan if detail.startswith("SCAN")]
            alias = domain_hop.get(name)
            if alias and not any(
                detail.startswith(f"SEARCH {alias} USING COVERING INDEX ") for detail in plan
            ):
                uncovered.append(f"{name}: {plan}")
    indexes = indexed_columns(connection)
    connection.close()
    both = sum(len(columns) == 2 and (table, columns[:1]) in indexes for table, columns in indexes)
    return triggers, scans, uncovered, both


@pytest.mark.parametrize(
    "source, max_chain",
    [("geography", None), ("neighbors", None)]
    + [(seed, 6) for seed in SEEDS]
    + [(seed, LONG_CHAIN) for seed in LONG_CHAIN_SEEDS],
)
def test_every_trigger_searches_and_reads_its_domain_rows_from_an_index(source, max_chain):
    """No emitted trigger plans a SCAN, on the fixtures and on random
    schemas with chains of up to 6 and up to LONG_CHAIN functions, every
    link trigger reads its domain rows from a covering index, and no set
    keeps an index [S.f] beside a covering index [S.f.g] on the same link."""
    if max_chain is None:
        schema, diagnostics = parse_schema(fixture_text(f"{source}.fd"))
        assert schema is not None, diagnostics
    else:
        schema = _schema(random.Random(source), max_chain)
    triggers, scans, uncovered, both = plan_gate(schema)
    assert triggers
    assert scans == [], scans
    assert uncovered == [], uncovered
    assert both == 0
