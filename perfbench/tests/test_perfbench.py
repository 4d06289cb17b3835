"""The benchmark's own checks, at small sizes.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]

from click.testing import CliRunner  # noqa: E402

from funcdiag import engine  # noqa: E402
from funcdiag.cli import main as cli  # noqa: E402
from funcdiag.store import Database  # noqa: E402

import bench  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402

SCALE = 0.02
WORKLOADS = sorted(gen.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic(name):
    first = gen.generate(name, 7, SCALE)
    assert gen.generate(name, 7, SCALE) == first
    assert gen.generate(name, 8, SCALE).script != first.script


@pytest.mark.parametrize("name", WORKLOADS)
def test_generated_files_replay_through_the_cli(tmp_path, name):
    workload = gen.generate(name, 3, SCALE)
    schema_path, script_path = gen.write(workload, tmp_path)
    result = CliRunner().invoke(cli, ["run", str(schema_path), str(script_path), "--json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["totals"]["expectation_failures"] == 0
    expected = [r["expected"] for r in report["mutations"]]
    assert len(expected) == workload.seed_statements + workload.measured_statements
    assert None not in expected[workload.seed_statements :]
    assert "reject" in expected and "accept" in expected


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_passes_agree(name):
    setup = bench.build(gen.generate(name, 5, SCALE))
    untraced = bench.engine_pass(setup)
    originals = {n: getattr(engine, n) for n in bench.ENGINE_SPANS}
    originals.update({n: getattr(Database, n) for n in bench.STORE_SPANS + bench.STORE_COUNTS})
    with Tracer() as trace:
        bench.wrap_layers(trace)
        traced = bench.engine_pass(setup)
    assert len(traced.outcomes) == len(setup.measured)
    assert traced.outcomes == untraced.outcomes
    assert trace.totals()["apply_mutation"][2] == len(setup.measured)
    assert trace.calls["lookup"] > 0
    restored = {n: getattr(engine, n) for n in bench.ENGINE_SPANS}
    restored.update({n: getattr(Database, n) for n in bench.STORE_SPANS + bench.STORE_COUNTS})
    assert restored == originals


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_benchmark_metric_is_emitted_with_its_unit(name, trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert name in {w["name"] for w in spec["workloads"]}
    result = bench.run(name, 11, 0.01, trace, SCALE)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = {m: v["unit"] for m, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec[section]}


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "geo-accept", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
