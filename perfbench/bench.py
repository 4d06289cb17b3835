"""The funcdiag benchmark: engine and emitted-SQLite enforcement on
generated workloads, end to end (tracing off) or per layer (traced).

A run generates one workload from its seed, then sets it up the way
`funcdiag run` does (parse_schema, parse_script, Database, apply_mutation
per seed statement), emits the check code of both dialects and installs
the generic-sql triggers in an in-memory SQLite database holding the same
seed. It then replays the measured statements through the engine and
through SQLite, each pass on a fresh copy of the set-up state: first one
pass of each side, then turns, until --seconds are spent and each side
made at least MIN_PASSES passes.

The host is shared, and its speed swings in stretches of a second to
minutes. Two things keep the figures steady. Every time is scaled to a
nominal machine speed (see speed.py). And the figures are medians over
passes, which all replay the same statements on the same state:
throughput comes from the median of the passes' total times, and
percentiles from each statement's median time.

Every measured verdict is checked against the script's `expect`, and the
first passes are checked for equal final contents and for no standing
violation (oracle.full_check). A statement that raises counts as failed.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import gc
import math
import resource
import sqlite3
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from funcdiag import codegen, dsl, engine, oracle
from funcdiag.codegen import Dialect, EmittedUnit
from funcdiag.dsl import Expectation, Mutation
from funcdiag.model import Schema
from funcdiag.store import Database, RowId

import gen
import sqlreplay
from speed import PYTHON, SQLITE, Speed
from tracing import Tracer

SETUP_REPEATS = 3
MIN_PASSES = 4
# A side's turn lasts at least this long, so a side with short passes
# gets as many timings per statement as its share of the time allows.
TURN_S = 0.5
# VM instructions between two SQLite progress-handler calls in the traced run.
PROGRESS_STEP = 16

END_TO_END_UNITS = {
    "setup_s": "s",
    "engine.ops_per_s": "1/s",
    "engine.p50_us": "us",
    "engine.p99_us": "us",
    "sqlite.ops_per_s": "1/s",
    "sqlite.p50_us": "us",
    "sqlite.p99_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "dsl.parse_schema_ms": "ms",
    "dsl.parse_script_s": "s",
    "dsl.us_per_stmt": "us",
    "codegen.emit_ms": "ms",
    "codegen.units": "count",
    "codegen.bytes": "bytes",
    "sqlite.install_ms": "ms",
    "store.validate_us": "us",
    "store.validate_calls_per_op": "count/op",
    "store.write_us": "us",
    "engine.dispatch_us": "us",
    "engine.dispatch_calls_per_op": "count/op",
    "engine.resolve_us": "us",
    "engine.domain_check_us": "us",
    "engine.domain_checks_per_op": "count/op",
    "engine.eval_chain_us": "us",
    "engine.link_check_us": "us",
    "engine.link_checks_per_op": "count/op",
    "engine.affected_rows_us": "us",
    "engine.affected_per_link_check": "rows/check",
    "store.inverse_per_op": "count/op",
    "store.lookups_per_op": "count/op",
    "engine.violation_build_us": "us",
    "engine.witnesses_per_reject": "rows/reject",
    "engine.self_us": "us",
    "engine.accept_ratio": "ratio",
    "store.rows_inspected_accept": "rows/op",
    "store.rows_inspected_reject": "rows/op",
    "sqlite.vm_steps_per_op": "steps/op",
    "oracle.full_check_s": "s",
    "oracle.rows_scanned": "rows",
    "trace.overhead_pct": "%",
    "error_rate": "ratio",
}

ENGINE_SPANS = (
    "apply_mutation",
    "resolve_mutation",
    "dispatch",
    "check_domain_row",
    "check_link_update",
    "affected_rows",
    "eval_chain",
    "eval_prefix",
    "raw_apply",
    "sort_violations",
    "_constraint_violation",
)
STORE_SPANS = (
    "validate_insert",
    "validate_update",
    "validate_delete",
    "insert_row",
    "set_values",
    "delete_row",
)
STORE_COUNTS = ("lookup", "inverse")


def wrap_layers(trace: Tracer) -> None:
    """Span the engine and store functions; count the hot store leaves."""
    for name in ENGINE_SPANS:
        trace.span(engine, name, name, size_of=len if name == "affected_rows" else None)
    for name in STORE_SPANS:
        trace.span(Database, name, name)
    for name in STORE_COUNTS:
        trace.count(Database, name, name)


class SetupError(Exception):
    """The workload could not be set up; no measurement is possible."""


@dataclass
class Setup:
    schema: Schema
    statements: int
    measured: list[Mutation]
    db: Database
    handles: dict[str, RowId]
    snapshot: sqlite3.Connection  # holds the seeded SQLite state
    replica: sqlreplay.Replica
    units: list[EmittedUnit]
    install_s: float
    seconds: float  # at nominal speed


def build(workload: gen.Workload) -> Setup:
    speed = Speed(PYTHON)
    schema, diagnostics = dsl.parse_schema(workload.schema)
    if schema is None:
        raise SetupError(f"schema does not parse: {diagnostics[:3]}")
    mutations, diagnostics = dsl.parse_script(workload.script, schema)
    if mutations is None:
        raise SetupError(f"script does not parse: {diagnostics[:3]}")
    speed.tick()
    seed = mutations[: workload.seed_statements]
    db = Database(schema)
    handles: dict[str, RowId] = {}
    refused = []
    for m in seed:
        if not engine.apply_mutation(db, m, handles).applied:
            refused.append(m.line)
        speed.tick()
    units = [
        unit
        for dialect in Dialect
        for unit in codegen.emit_units(schema, schema.constraints, "all", dialect)
    ]
    install_start = time.perf_counter()
    snapshot = sqlreplay.connect()
    sqlreplay.install(snapshot, schema, units)
    install_s = time.perf_counter() - install_start
    replica = sqlreplay.Replica(schema, snapshot)
    for m in seed:
        if not replica.apply(m):
            refused.append(m.line)
        speed.tick()
    speed.finish()
    if refused:
        raise SetupError(f"seed statements refused at script lines {refused[:10]}")
    return Setup(
        schema,
        len(mutations),
        mutations[workload.seed_statements :],
        db,
        handles,
        snapshot,
        replica,
        units,
        install_s,
        speed.seconds(),
    )


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """One replay of all measured statements.

    times_ns[i] is statement i's time at nominal speed. outcomes[i] is
    None when statement i raised; otherwise, for the engine, (applied,
    rows_inspected, witnesses), and for SQLite, applied. `final` is the
    end state: a Database, or SQLite's contents.
    """

    times_ns: array = field(default_factory=lambda: array("d"))
    outcomes: list = field(default_factory=list)
    final: object = None
    vm_steps: int = 0

    @property
    def seconds(self) -> float:
        return sum(self.times_ns) / 1e9


def engine_pass(setup: Setup) -> Pass:
    db = setup.db.clone(share_counter=False)
    handles = dict(setup.handles)
    counter = db.counter
    apply = engine.apply_mutation
    clock = time.perf_counter_ns
    result = Pass()
    times_ns: list[int] = []
    intervals: list[int] = []
    gc.collect()
    speed = Speed(PYTHON)
    for m in setup.measured:
        before = counter.rows_inspected
        t0 = clock()
        try:
            verdict = apply(db, m, handles)
        except Exception as exc:  # a raising statement is a failed op
            times_ns.append(clock() - t0)
            result.outcomes.append(None)
            print(f"engine raised at line {m.line}: {exc!r}", file=sys.stderr)
        else:
            times_ns.append(clock() - t0)
            witnesses = sum(1 for v in verdict.violations if v.witness is not None)
            result.outcomes.append(
                (verdict.applied, counter.rows_inspected - before, witnesses)
            )
        intervals.append(speed.interval)
        speed.tick()
    result.times_ns = speed.scale(times_ns, intervals)
    result.final = db
    return result


def sqlite_pass(setup: Setup, count_steps: bool = False) -> Pass:
    connection = sqlreplay.restore(setup.snapshot)
    replica = setup.replica.fork(connection)
    result = Pass()
    if count_steps:
        def tick() -> int:
            result.vm_steps += PROGRESS_STEP
            return 0

        connection.set_progress_handler(tick, PROGRESS_STEP)
    apply = replica.apply
    clock = time.perf_counter_ns
    times_ns: list[int] = []
    intervals: list[int] = []
    gc.collect()
    speed = Speed(SQLITE)
    try:
        for m in setup.measured:
            t0 = clock()
            try:
                applied = apply(m)
            except Exception as exc:  # a raising statement is a failed op
                applied = None
                print(f"sqlite raised at line {m.line}: {exc!r}", file=sys.stderr)
            times_ns.append(clock() - t0)
            result.outcomes.append(applied)
            intervals.append(speed.interval)
            speed.tick()
        result.times_ns = speed.scale(times_ns, intervals)
        connection.set_progress_handler(None, 0)
        result.final = sqlreplay.contents(connection, setup.schema)
    finally:
        connection.close()
    return result


def run_turns(
    sides: dict[str, Callable[[int], Pass]], passes: dict[str, list[Pass]], budget_s: float
) -> None:
    """Add turns of each side in order to `passes`, which holds each side's
    first pass, until the budget is spent and every side ran MIN_PASSES
    passes. A turn runs passes of one side for at least TURN_S.

    Taking turns gives every side the same mix of the host's fast and slow
    stretches. A side's pass function gets the index of the pass. Only the
    first passes keep their final state.
    """
    start = time.perf_counter()
    while min(map(len, passes.values())) < MIN_PASSES or time.perf_counter() - start < budget_s:
        for name, one_pass in sides.items():
            done = passes[name]
            turn_start = time.perf_counter()
            while time.perf_counter() - turn_start < TURN_S:
                done.append(one_pass(len(done)))
                done[-1].final = None


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    mismatches: dict[str, int] = field(default_factory=dict)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches[what] = self.mismatches.get(what, 0) + 1

    def verdicts(self, side: str, setup: Setup, passes: list[Pass]) -> None:
        for p in passes:
            for m, outcome in zip(setup.measured, p.outcomes):
                if outcome is None:
                    self.record(False, f"{side} line {m.line}: raised")
                    continue
                applied = outcome if isinstance(outcome, bool) else outcome[0]
                got = "accept" if applied else "reject"
                self.record(
                    applied == (m.expectation is Expectation.ACCEPT),
                    f"{side} line {m.line}: expected {m.expectation.value}, got {got}",
                )

    def final_state(
        self, setup: Setup, db: Database, sql_tables: dict
    ) -> oracle.OracleReport:
        engine_tables = _engine_contents(db, setup.schema)
        differing = [name for name in engine_tables if engine_tables[name] != sql_tables.get(name)]
        self.record(not differing, f"final contents differ in {differing}")
        report = oracle.full_check(db)
        self.record(
            not report.violations,
            f"oracle.full_check: {len(report.violations)} standing violations",
        )
        return report

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _engine_contents(db: Database, schema: Schema) -> dict[str, dict]:
    tables = db.snapshot()["tables"]
    out = {}
    for set_def in schema.sets:
        names = [fn.name for fn in schema.functions_of(set_def.name)]
        out[set_def.name] = {
            x: tuple(v.x if isinstance(v, RowId) else v for v in (values[n] for n in names))
            for x, values in tables[set_def.name].items()
        }
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _percentile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _median_seconds(passes: list[Pass]) -> float:
    """The median of the passes' total times."""
    return statistics.median(p.seconds for p in passes)


def _latency_metrics(prefix: str, passes: list[Pass], notes: list[str]) -> dict[str, float]:
    """Throughput from the median pass total, which keeps every cost that
    lands on a different statement in each pass, such as a garbage
    collection; percentiles over each statement's median time."""
    typical = sorted(statistics.median(times) for times in zip(*(p.times_ns for p in passes)))
    notes.append(f"{prefix}: {len(typical)} statements x {len(passes)} passes")
    return {
        f"{prefix}.ops_per_s": len(typical) / _median_seconds(passes),
        f"{prefix}.p50_us": _percentile(typical, 0.50) / 1e3,
        f"{prefix}.p99_us": _percentile(typical, 0.99) / 1e3,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload: gen.Workload, seconds: float, checks: Checks, notes: list[str]) -> dict:
    setup_times = []
    setup = None
    for _ in range(SETUP_REPEATS):
        setup = None
        gc.collect()
        setup = build(workload)
        setup_times.append(setup.seconds)
    gc.collect()
    notes.append("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup_times))

    engine_passes, sqlite_passes = [engine_pass(setup)], [sqlite_pass(setup)]
    checks.final_state(setup, engine_passes[0].final, sqlite_passes[0].final)
    # Read here, so the figure does not depend on how many passes fit the budget.
    peak_rss_mb = _peak_rss_mb()
    engine_passes[0].final = sqlite_passes[0].final = None
    run_turns(
        {"engine": lambda i: engine_pass(setup), "sqlite": lambda i: sqlite_pass(setup)},
        {"engine": engine_passes, "sqlite": sqlite_passes},
        seconds,
    )
    checks.verdicts("engine", setup, engine_passes)
    checks.verdicts("sqlite", setup, sqlite_passes)

    metrics = {"setup_s": statistics.median(setup_times)}
    metrics.update(_latency_metrics("engine", engine_passes, notes))
    metrics.update(_latency_metrics("sqlite", sqlite_passes, notes))
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics


def per_layer(workload: gen.Workload, seconds: float, checks: Checks, notes: list[str]) -> dict:
    with Tracer() as setup_trace:
        setup_trace.span(dsl, "parse_schema", "parse_schema")
        setup_trace.span(dsl, "parse_script", "parse_script")
        setup_trace.span(codegen, "emit_units", "emit_units")
        setup = build(workload)
    setup_totals = setup_trace.totals()

    own_s: Counter[str] = Counter()
    spans: Counter[str] = Counter()
    counts: Counter[str] = Counter()

    def traced_pass(i: int) -> Pass:
        with Tracer() as trace:
            wrap_layers(trace)
            result = engine_pass(setup)
        for name, (_, own, n) in trace.totals().items():
            own_s[name] += own
            spans[name] += n
        counts.update(trace.calls)
        counts.update(trace.sizes)
        return result

    # Only the first SQLite pass counts VM steps, on a fresh statement cache.
    untraced, traced = [engine_pass(setup)], [traced_pass(0)]
    sqlite_passes = [sqlite_pass(setup, count_steps=True)]
    run_turns(
        {
            "untraced": lambda i: engine_pass(setup),
            "traced": traced_pass,
            "sqlite": lambda i: sqlite_pass(setup),
        },
        {"untraced": untraced, "traced": traced, "sqlite": sqlite_passes},
        seconds,
    )

    checks.verdicts("engine", setup, untraced + traced)
    checks.verdicts("sqlite", setup, sqlite_passes)
    reference = untraced[0].outcomes
    for i, p in enumerate(traced):
        checks.record(
            p.outcomes == reference,
            f"traced pass {i} differs from the untraced pass in verdicts or rows_inspected",
        )
    with Tracer() as oracle_trace:
        oracle_trace.span(oracle, "full_check", "full_check")
        report = checks.final_state(setup, untraced[0].final, sqlite_passes[0].final)
    oracle_s = oracle_trace.totals()["full_check"][0]

    ops = sum(len(p.outcomes) for p in traced)
    notes.append(f"traced: {ops} statements in {len(traced)} passes")

    def self_us(*names: str) -> float:
        return sum(own_s[n] for n in names) / ops * 1e6

    def calls(*names: str) -> int:
        return sum(spans[n] for n in names)

    accepted = [o for o in reference if o and o[0]]
    rejected = [o for o in reference if o and not o[0]]
    parse_script_s = setup_totals["parse_script"][0]
    return {
        "dsl.parse_schema_ms": setup_totals["parse_schema"][0] * 1e3,
        "dsl.parse_script_s": parse_script_s,
        "dsl.us_per_stmt": parse_script_s / setup.statements * 1e6,
        "codegen.emit_ms": setup_totals["emit_units"][0] * 1e3,
        "codegen.units": len(setup.units),
        "codegen.bytes": sum(len(u.body.encode()) for u in setup.units),
        "sqlite.install_ms": setup.install_s * 1e3,
        "store.validate_us": self_us("validate_insert", "validate_update", "validate_delete"),
        "store.validate_calls_per_op": calls("validate_insert", "validate_update", "validate_delete") / ops,
        "store.write_us": self_us("insert_row", "set_values", "delete_row", "raw_apply"),
        "engine.dispatch_us": self_us("dispatch"),
        "engine.dispatch_calls_per_op": calls("dispatch") / ops,
        "engine.resolve_us": self_us("resolve_mutation"),
        "engine.domain_check_us": self_us("check_domain_row"),
        "engine.domain_checks_per_op": calls("check_domain_row") / ops,
        "engine.eval_chain_us": self_us("eval_chain", "eval_prefix"),
        "engine.link_check_us": self_us("check_link_update"),
        "engine.link_checks_per_op": calls("check_link_update") / ops,
        "engine.affected_rows_us": self_us("affected_rows"),
        "engine.affected_per_link_check": (
            counts["affected_rows"] / calls("affected_rows") if calls("affected_rows") else 0.0
        ),
        "store.inverse_per_op": counts["inverse"] / ops,
        "store.lookups_per_op": counts["lookup"] / ops,
        "engine.violation_build_us": self_us("_constraint_violation", "sort_violations"),
        "engine.witnesses_per_reject": _mean(o[2] for o in rejected),
        "engine.self_us": self_us("apply_mutation"),
        "engine.accept_ratio": len(accepted) / len(reference),
        "store.rows_inspected_accept": _mean(o[1] for o in accepted),
        "store.rows_inspected_reject": _mean(o[1] for o in rejected),
        "sqlite.vm_steps_per_op": sqlite_passes[0].vm_steps / len(sqlite_passes[0].outcomes),
        "oracle.full_check_s": oracle_s,
        "oracle.rows_scanned": report.rows_scanned,
        "trace.overhead_pct": (_median_seconds(traced) / _median_seconds(untraced) - 1) * 100,
        "error_rate": checks.error_rate,
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workload = gen.generate(name, seed, scale)
    notes = [
        f"workload {name} seed {seed}: {workload.seed_statements} seed and"
        f" {workload.measured_statements} measured statements"
    ]
    checks = Checks()
    if trace:
        values = per_layer(workload, seconds, checks, notes)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(workload, seconds, checks, notes)
        units = END_TO_END_UNITS
    for line in notes:
        print(line)
    for what, count in sorted(checks.mismatches.items()):
        print(f"FAILED x{count}: {what}")
    print(f"checks: {checks.failed} failed of {checks.attempted} attempted")
    for metric, unit in units.items():
        print(f"{metric} {values[metric]} {unit}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
