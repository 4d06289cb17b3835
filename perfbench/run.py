"""Run one workload of the funcdiag benchmark and print its metrics.

    python3 perfbench/run.py --workload geo-accept --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the library is imported from its `src/`
directory, never from an installed copy. With --trace 0 the result holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run. The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import gen

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description="funcdiag benchmark")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "funcdiag" / "__init__.py").is_file():
        print(f"error: no funcdiag sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import funcdiag

    if not Path(funcdiag.__file__).resolve().is_relative_to(SRC):
        print(f"error: funcdiag imported from {funcdiag.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
