"""Bytecode instructions per measured statement of the engine, per function.

    PYTHONPATH=src python tests/instruction_tally.py [--seed 71] [--scale 0.2]

For each benchmark workload (perfbench/gen.py), this writes the seed
section through engine.apply_mutation untraced, then replays the measured
section under sys.settrace with opcode events on, counting one per
bytecode instruction executed, per code object. It prints the measured
statements, the instructions per statement, and the functions that ran
the most of them. Instructions run inside C functions (list, map, sorted,
the dict and list methods) are not counted; the engine's generating of a
check kernel first used in the measured section is.

The count is deterministic for one interpreter version and one tree:
beside rows_inspected, it shows constant-factor changes that wall time
hides in noise. Counts from two versions do not compare. It is not
collected by pytest. Not every interpreter delivers opcode events to a
settrace function: under CPython 3.12.1 the first workload counts 0. When
any workload counts 0 the script exits 1 rather than report it.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from funcdiag import dsl, engine  # noqa: E402
from funcdiag.store import Database  # noqa: E402


TOP = 8  # functions listed per workload


def tally(name: str, seed: int, scale: float) -> tuple[int, Counter]:
    """Measured statements and instructions per (file, function)."""
    workload = gen.generate(name, seed, scale)
    schema, diagnostics = dsl.parse_schema(workload.schema)
    if schema is None:
        raise SystemExit(f"{name}: schema does not parse: {diagnostics[:3]}")
    mutations, diagnostics = dsl.parse_script(workload.script, schema)
    if diagnostics:
        raise SystemExit(f"{name}: script does not parse: {diagnostics[:3]}")
    db, handles = Database(schema), {}
    for m in mutations[: workload.seed_statements]:
        engine.apply_mutation(db, m, handles)
    measured = mutations[workload.seed_statements :]
    counts: Counter = Counter()

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        key = (Path(frame.f_code.co_filename).name, frame.f_code.co_name)

        def on_event(frame, event, arg):
            if event == "opcode":
                counts[key] += 1
            return on_event

        return on_event

    apply = engine.apply_mutation
    sys.settrace(on_call)
    try:
        for m in measured:
            apply(db, m, handles)
    finally:
        sys.settrace(None)
    return len(measured), counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=71)
    parser.add_argument("--scale", type=float, default=0.2)
    args = parser.parse_args()
    print(f"Python {sys.version.split()[0]}, seed {args.seed}, scale {args.scale}")
    zero = False
    for name in gen.WORKLOADS:
        statements, counts = tally(name, args.seed, args.scale)
        total = sum(counts.values())
        zero = zero or total == 0
        per_statement = total / statements
        print(f"{name}: {statements} statements, {per_statement:.1f} instructions per statement")
        for (filename, function), count in counts.most_common(TOP):
            print(f"  {count / statements:9.1f}  {filename}:{function}")
    if zero:
        print("no instruction counted: this interpreter gives settrace no opcode events")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
