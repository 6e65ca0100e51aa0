"""Self-test of the end-to-end benchmark harness (smoke scale, < 60 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

Not collected by the tier-1 suite (its test paths are ``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict[str, object]:
    return {
        target: tracer.resolve(target)[2]
        for targets in tracer.LAYERS.values()
        for target in targets
    }


def test_every_layer_target_resolves():
    for targets in tracer.LAYERS.values():
        for target in targets:
            owner, attr, raw = tracer.resolve(target)
            assert callable(raw) or isinstance(raw, (classmethod, staticmethod))
    with pytest.raises(LookupError):
        tracer.resolve("repro.fracture.refine:no_such_function")


def test_bindings_are_restored_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert _bindings() != before
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[t] is before[t] for t in before)


@pytest.mark.parametrize("workload", ["mdp-ilt", "chip-tiled", "gds-wafer"])
def test_traced_run_restores_bindings_and_accounts_for_wall(workload, tmp_path):
    before = _bindings()
    inputs = workloads.build_inputs(workload, 1, "smoke", 1.0)
    result = workloads.RUNNERS[workload](inputs, 0.5, True, tmp_path)
    after = _bindings()
    assert all(after[t] is before[t] for t in before)
    assert result["correct"]
    trace = result["trace"]
    assert trace["traced_passes"] >= 1
    # Self times plus the root's unattributed time add up to wall.
    layers = trace["layers"]
    total_self = sum(entry["self_s"] for entry in layers.values())
    assert abs(total_self - trace["traced_wall_s"]) < 1e-3
    assert layers[tracer.ROOT]["self_s"] / trace["traced_wall_s"] == pytest.approx(
        trace["unattributed_frac"]
    )
    assert trace["span_tree"]["name"] == tracer.ROOT


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_input_digests_follow_the_seed(workload):
    first = workloads.build_inputs(workload, 7, "smoke", 3.0).digest
    again = workloads.build_inputs(workload, 7, "smoke", 3.0).digest
    other = workloads.build_inputs(workload, 8, "smoke", 3.0).digest
    assert first == again
    assert first != other


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload,trace", [("daemon-open", 0), ("gds-wafer", 1)])
def test_command_ends_with_the_result_line(workload, trace, tmp_path):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke",
                 "--out", str(tmp_path / "run.json")], ROOT)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    spec = metrics.benchmark_spec()
    listed = spec["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    run = json.loads((tmp_path / "run.json").read_text())["runs"][0]
    assert run["workloads"][workload]["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in metrics.benchmark_spec()["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "mdp-ilt", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_harness_metrics():
    spec = metrics.benchmark_spec()
    for m in spec["end_to_end"]:
        unit, better, _bound, applies, _meaning = metrics.END_TO_END[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
        assert applies == metrics.ALL, f"{m['name']} is not reported by every workload"
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
