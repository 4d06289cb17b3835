"""Randomized schema, database, and mutation generators for property tests.

Schemas are grown backward from a chosen codomain so both chains always
compose; link reuse lets chains share functions, revisit sets, and loop.
Databases are seeded valid by leaving one nullable innermost chain column
null everywhere (every instance starts vacuously satisfied); mutation
streams then push non-null values through the checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from funcdiag.dsl import Action, Binding, Mutation
from funcdiag.model import (
    ConstraintKind,
    FunctionDef,
    RawChain,
    RawConstraint,
    ScalarType,
    Schema,
    SetDef,
    Side,
    validate_diagram,
)
from funcdiag.store import Database, RowId

_COLORS = ["red", "green", "blue", "black", "white"]


@dataclass
class _Builder:
    rng: random.Random
    sets: list[str] = field(default_factory=list)
    functions: dict[str, dict[str, FunctionDef]] = field(default_factory=dict)
    fn_counter: int = 0

    def new_set(self) -> str:
        name = f"S{len(self.sets)}"
        self.sets.append(name)
        self.functions[name] = {}
        self._add(FunctionDef("Name", name, ScalarType.TEXT, nullable=False))
        return name

    def _add(self, fn: FunctionDef) -> FunctionDef:
        self.functions[fn.domain][fn.name] = fn
        return fn

    def pick_set(self, new_probability: float = 0.3) -> str:
        if not self.sets or self.rng.random() < new_probability:
            return self.new_set()
        return self.rng.choice(self.sets)

    def fn_into(self, codomain: str | ScalarType, reuse_probability: float = 0.4) -> FunctionDef:
        """An existing or fresh function whose codomain is `codomain`."""
        candidates = [
            fn
            for per_set in self.functions.values()
            for fn in per_set.values()
            if fn.codomain == codomain
        ]
        if candidates and self.rng.random() < reuse_probability:
            return self.rng.choice(candidates)
        domain = self.pick_set()
        return self.make_fn(domain, codomain)

    def make_fn(self, domain: str, codomain: str | ScalarType) -> FunctionDef:
        self.fn_counter += 1
        prefix = "f" if isinstance(codomain, str) else "a"
        name = f"{prefix}{self.fn_counter}"
        while name in self.functions[domain]:
            self.fn_counter += 1
            name = f"{prefix}{self.fn_counter}"
        return self._add(FunctionDef(name, domain, codomain, nullable=True))

    def link_between(self, domain: str, codomain: str) -> FunctionDef:
        existing = [
            fn
            for fn in self.functions[domain].values()
            if fn.is_link and fn.codomain == codomain
        ]
        if existing and self.rng.random() < 0.4:
            return self.rng.choice(existing)
        return self.make_fn(domain, codomain)

    def schema(self, name: str) -> Schema:
        sets = tuple(SetDef(s, "Name") for s in self.sets)
        functions = tuple(
            fn for s in self.sets for fn in self.functions[s].values()
        )
        return Schema(name, sets, functions)


def _grow_chain(builder: _Builder, length: int, codomain: str | ScalarType) -> list[FunctionDef]:
    """Functions outermost-first; the last one's domain becomes the chain domain."""
    fns: list[FunctionDef] = []
    current: str | ScalarType = codomain
    for _ in range(length):
        fn = builder.fn_into(current)
        fns.append(fn)
        current = fn.domain
    return fns


def make_schema(rng: random.Random, n_constraints: int = 1, max_chain: int = 6) -> Schema:
    """`n_constraints` constraints whose chains compose 1 to `max_chain`
    functions each, at least one of them two or more; the default draws
    what every seed drew before chains could be longer."""
    builder = _Builder(rng)
    raws: list[RawConstraint] = []
    for index in range(n_constraints):
        n = rng.randint(1, max_chain)
        m = rng.randint(1, max_chain)
        if n == 1 and m == 1:
            n = rng.randint(2, max_chain)
        if rng.random() < 0.4:
            codomain: str | ScalarType = rng.choice(
                [ScalarType.TEXT, ScalarType.INTEGER]
            )
        else:
            codomain = builder.pick_set()
        left = _grow_chain(builder, n, codomain)
        domain = left[-1].domain
        if m == 1:
            right = [builder.make_fn(domain, codomain)]
        else:
            right_outer = _grow_chain(builder, m - 1, codomain)
            right = right_outer + [builder.link_between(domain, right_outer[-1].domain)]
        kind = rng.choice(list(ConstraintKind))
        raws.append(
            RawConstraint(
                f"c{index}",
                kind,
                domain,
                RawChain(tuple(fn.name for fn in left)),
                RawChain(tuple(fn.name for fn in right)),
            )
        )
    # a couple of decoy functions beyond the chains
    for _ in range(rng.randint(0, 3)):
        builder.make_fn(builder.pick_set(0.2), rng.choice([ScalarType.TEXT, ScalarType.INTEGER]))
    schema = builder.schema(f"Random{rng.randint(0, 10**6)}")
    constraints = []
    for raw in raws:
        resolved, issues = validate_diagram(schema, raw)
        assert resolved is not None, issues
        constraints.append(resolved)
    return Schema(schema.name, schema.sets, schema.functions, tuple(constraints))


def _vacuous_columns(schema: Schema) -> set[tuple[str, str]]:
    """One nullable innermost column per constraint, kept null while seeding."""
    skip: set[tuple[str, str]] = set()
    for c in schema.constraints:
        for chain in (c.left, c.right):
            fn = chain.innermost
            if fn.nullable:
                skip.add((fn.domain, fn.name))
                break
        else:
            raise AssertionError("no nullable innermost column to keep vacuous")
    return skip


def seed_database(
    rng: random.Random, schema: Schema, min_rows: int = 10, max_rows: int = 40
) -> Database:
    """A valid database: rows everywhere, links mostly wired, but every
    constraint left vacuous via one null innermost column."""
    db = Database(schema)
    sizes = {s.name: rng.randint(min_rows, max_rows) for s in schema.sets}
    for set_name, size in sizes.items():
        for i in range(size):
            values = {}
            for fn in schema.functions_of(set_name):
                if fn.name == "Name":
                    values[fn.name] = f"{set_name.lower()}-{i}"
                elif not fn.nullable and fn.is_attribute:
                    values[fn.name] = _scalar(rng, fn)
            db.insert_row(set_name, values)
    skip = _vacuous_columns(schema)
    for set_name in sizes:
        for row in db.rows(set_name):
            updates = {}
            for fn in schema.functions_of(set_name):
                if (set_name, fn.name) in skip or fn.name == "Name":
                    continue
                if fn.is_link:
                    if rng.random() < 0.7:
                        updates[fn.name] = _random_row(rng, db, fn.codomain)
                elif fn.nullable and rng.random() < 0.8:
                    updates[fn.name] = _scalar(rng, fn)
            if updates:
                db.set_values(row, updates)
    return db


def _scalar(rng: random.Random, fn: FunctionDef):
    if fn.codomain is ScalarType.TEXT:
        return rng.choice(_COLORS)
    return rng.randint(0, 4)


def _random_row(rng: random.Random, db: Database, set_name: str) -> RowId | None:
    rows = db.rows(set_name)
    if not rows:
        return None
    return rng.choice(rows)


def make_mutation(rng: random.Random, db: Database) -> Mutation:
    """A plausible random mutation, biased toward chain columns."""
    schema = db.schema
    roll = rng.random()
    if roll < 0.45 and schema.constraints:
        # update some chain column somewhere
        constraint = rng.choice(schema.constraints)
        chain = constraint.chain(rng.choice(list(Side)))
        fn = rng.choice(chain.functions)
        rows = db.rows(fn.domain)
        if rows:
            row = rng.choice(rows)
            value = _value_for(rng, db, fn)
            return Mutation(
                Action.UPDATE, row_ref=row, bindings=(Binding(fn.name, value),)
            )
    if roll < 0.65:
        set_name = rng.choice([s.name for s in schema.sets])
        bindings = [Binding("Name", f"new-{rng.randint(0, 10**6)}")]
        for fn in schema.functions_of(set_name):
            if fn.name == "Name":
                continue
            if rng.random() < 0.6:
                bindings.append(Binding(fn.name, _value_for(rng, db, fn)))
        return Mutation(Action.INSERT, set_name=set_name, bindings=tuple(bindings))
    if roll < 0.8:
        # multi-column update on a random row
        set_name = rng.choice([s.name for s in schema.sets])
        rows = db.rows(set_name)
        if rows:
            row = rng.choice(rows)
            fns = [fn for fn in schema.functions_of(set_name) if fn.name != "Name"]
            rng.shuffle(fns)
            bindings = tuple(
                Binding(fn.name, _value_for(rng, db, fn)) for fn in fns[:2]
            )
            if bindings:
                return Mutation(Action.UPDATE, row_ref=row, bindings=bindings)
    if roll < 0.95:
        set_name = rng.choice([s.name for s in schema.sets])
        rows = db.rows(set_name)
        if rows:
            return Mutation(Action.DELETE, row_ref=rng.choice(rows))
    # deliberately broken: dangling link target
    links = [fn for fn in schema.functions if fn.is_link]
    if links:
        fn = rng.choice(links)
        rows = db.rows(fn.domain)
        if rows:
            return Mutation(
                Action.UPDATE,
                row_ref=rng.choice(rows),
                bindings=(Binding(fn.name, RowId(fn.codomain, 10**9)),),
            )
    return Mutation(Action.INSERT, set_name=schema.sets[0].name, bindings=(Binding("Name", "x"),))


def _value_for(rng: random.Random, db: Database, fn: FunctionDef):
    if fn.is_link:
        if rng.random() < 0.25:
            return None
        return _random_row(rng, db, fn.codomain)
    if fn.nullable and rng.random() < 0.15:
        return None
    return _scalar(rng, fn)
