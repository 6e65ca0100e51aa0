#!/usr/bin/env python3
"""End-to-end benchmark: four seeded workloads, per-layer attribution.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--scale full|smoke]
                                  [--repeat K] [--out PATH [--append]]

Every workload runs in a fresh child process, so the LUT, the profile
caches and peak RSS are never shared between workloads.  Without
``--workload`` all four run one after another.  An untraced run
(``--trace 0``, the default) measures the end-to-end metrics; a traced
run (``--trace``) wraps the call-site bindings of each layer from the
outside (see ``tracer.py``) and reports per-layer numbers, the span tree
and the tracing overhead.

The command prints every metric by name with its unit, checks that the
outputs are correct, writes ``benchmarks/e2e/out/<run>.json`` and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``
holding the metrics ``BENCHMARK.json`` lists.  It exits nonzero when an
output is wrong or a workload fails to run.  ``--repeat K`` runs K seeds
(``--seed`` .. ``--seed + K - 1``) into one output file, the input
``compare.py`` takes; ``--append`` adds runs to an existing file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from metrics import END_TO_END, MAX_TRACE_OVERHEAD, MAX_UNATTRIBUTED, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("mdp-ilt", "chip-tiled", "gds-wafer", "daemon-open")
#: A workload whose children have not finished by then is killed and the
#: run fails (the whole command must end within 180 s).
CHILD_TIMEOUT_S = 160.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per workload (default 30)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run (bare flag means 1)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run this many consecutive seeds")
    parser.add_argument("--out", type=Path, help="output JSON (default out/<run>.json)")
    parser.add_argument("--append", action="store_true",
                        help="add the runs to an existing --out file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    if args.append and args.out is None:
        parser.error("--append needs --out")
    return args


# -- child side --------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Build the inputs (set-up), say READY, run the workload, write JSON.

    Runs with ``PYTHONPATH`` pointing at ``src`` (see :func:`_spawn`).
    """
    import workloads

    inputs = workloads.build_inputs(args.child, args.seed, args.scale, args.seconds)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    runner = workloads.RUNNERS[args.child]
    result = runner(inputs, args.seconds, bool(args.trace), Path.cwd())
    result["digest"] = inputs.digest
    result["metrics"].setdefault("peak_rss_mb", workloads.peak_rss_mb())
    args.result.write_text(json.dumps(result, indent=1))
    return 0


# -- parent side -------------------------------------------------------------


def _spawn(args: argparse.Namespace, workload: str, seed: int, work: Path,
           setup_only: bool, deadline: float,
           started: list[subprocess.Popen]) -> tuple[subprocess.Popen, float]:
    """Start a child in its own process group (appended to ``started``);
    returns it and the seconds until it said READY."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--result", str(work / "result.json")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    started.append(proc)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else b""
    setup_s = time.perf_counter() - start
    if line.strip() != b"READY":
        _reap(proc, deadline)
        raise RuntimeError(f"{workload}: child failed during set-up")
    return proc, setup_s


def _reap(proc: subprocess.Popen, deadline: float) -> int:
    """Wait for a child until the deadline, then kill its process group
    (a daemon or pool worker it started goes with it)."""
    try:
        return proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise RuntimeError("child timed out and was killed") from None
    finally:
        proc.stdout.close()


def _kill(proc: subprocess.Popen) -> None:
    """SIGKILL a child that is still running, with its process group."""
    if proc.returncode is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def run_workload(args: argparse.Namespace, workload: str, seed: int,
                 work: Path) -> dict[str, Any]:
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups: list[float] = []
    started: list[subprocess.Popen] = []
    try:
        if workload != "daemon-open":  # the daemon's set-up is spawn -> ping
            for _ in range(2):
                proc, setup_s = _spawn(args, workload, seed, work, True, deadline, started)
                setups.append(setup_s)
                _reap(proc, deadline)
        proc, setup_s = _spawn(args, workload, seed, work, False, deadline, started)
        setups.append(setup_s)
        code = _reap(proc, deadline)
    finally:
        for child in started:  # on an error or interrupt, leave nothing behind
            _kill(child)
    if code != 0 or not (work / "result.json").is_file():
        raise RuntimeError(f"{workload}: child exited with {code}")
    result = json.loads((work / "result.json").read_text())
    samples = result.pop("setup_samples", setups)
    result["setup_samples"] = samples
    result["metrics"]["setup_s"] = statistics.median(samples)
    result["invalid"] = invalid_reasons(workload, result)
    return result


def invalid_reasons(workload: str, result: dict) -> list[str]:
    """Run-validity guards; an invalid run is reported, not failed."""
    reasons = [f"{name} failed" for name, ok in result["validity"].items() if not ok]
    trace = result.get("trace")
    if trace is not None:
        overhead, unattributed = trace["trace.overhead_frac"], trace["unattributed_frac"]
        if overhead >= MAX_TRACE_OVERHEAD:
            reasons.append(f"trace.overhead_frac {overhead:.3f} >= {MAX_TRACE_OVERHEAD}")
        # The daemon client mostly sleeps until the next arrival is due.
        if workload != "daemon-open" and unattributed > MAX_UNATTRIBUTED:
            reasons.append(f"unattributed_frac {unattributed:.3f} > {MAX_UNATTRIBUTED}")
    return reasons


def load_benchmark() -> dict | None:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else None


def listed_metrics(result: dict, trace: bool, bench: dict) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists, with units, from one workload's result."""
    if not trace:
        return {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                for m in bench["end_to_end"]}
    t = result["trace"]
    values = {**t["layer_shares"], **t["metrics"],
              "unattributed_frac": t["unattributed_frac"],
              "trace.overhead_frac": t["trace.overhead_frac"]}
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in bench["per_layer"]}


# -- printing ----------------------------------------------------------------


def print_workload(workload: str, seed: int, result: dict) -> None:
    print(f"== {workload}  seed={seed}  digest={result['digest'][:12]} ==")
    for name, value in result["metrics"].items():
        unit = END_TO_END[name][0] if name in END_TO_END else ""
        print(f"  {name:<22s} {value:>14.6g} {unit}")
    print(f"  correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}  checks={json.dumps(result['checks'])}")
    trace = result.get("trace")
    if trace is not None:
        print(f"  -- per layer (mean of {trace['traced_passes']} traced pass(es), "
              f"{trace['traced_wall_s']:.3f} s each) --")
        for name, value in trace["metrics"].items():
            unit = PER_LAYER.get(name, ("",))[0]
            print(f"  {name:<28s} {value:>14.6g} {unit}")
        for name in ("unattributed_frac", "trace.overhead_frac", "trace.ab_delta_frac"):
            if name in trace:
                print(f"  {name:<28s} {trace[name]:>14.6g} ratio")
        print("  -- self time by span --")
        rows = sorted(trace["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, entry in rows:
            if entry["self_s"] > 0.0005 * trace["traced_wall_s"]:
                print(f"  {name:<24s} self {entry['self_s']:9.4f} s  "
                      f"total {entry['total_s']:9.4f} s  calls {entry['calls']:9.1f}")
    if result["invalid"]:
        print(f"  INVALID RUN: {'; '.join(result['invalid'])}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if bench is None:
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    selected = (args.workload,) if args.workload else WORKLOADS
    label = args.workload or "all"
    run_id = (f"{time.strftime('%Y%m%d-%H%M%S')}-{label}-s{args.seed}"
              f"{'-trace' if args.trace else ''}-{os.getpid()}")
    OUT.mkdir(exist_ok=True)
    work_root = OUT / f"{run_id}.work"
    runs, line_metrics = [], {}
    correct, attempted, failed = True, 0, 0
    try:
        for seed in range(args.seed, args.seed + args.repeat):
            run = {"seed": seed, "trace": bool(args.trace), "seconds": args.seconds,
                   "scale": args.scale, "workloads": {}}
            for workload in selected:
                result = run_workload(args, workload, seed, work_root / f"{workload}-{seed}")
                run["workloads"][workload] = result
                print_workload(workload, seed, result)
                correct &= bool(result["correct"])
                attempted += result["attempted"]
                failed += result["failed"]
                for name, metric in listed_metrics(result, bool(args.trace), bench).items():
                    key = name if args.workload else f"{workload}/{name}"
                    line_metrics.setdefault(key, []).append(metric)
            runs.append(run)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    out = args.out or OUT / f"{run_id}.json"
    if args.append and out.is_file():
        runs = json.loads(out.read_text())["runs"] + runs
    out.write_text(json.dumps({
        "schema": "repro.bench.e2e/v1",
        "run": run_id,
        "platform": {"python": platform.python_version(),
                     "machine": platform.machine(), "cpus": os.cpu_count()},
        "runs": runs,
    }, indent=1))
    print(f"wrote {out}")
    metrics = {key: {"value": statistics.median(m["value"] for m in values),
                     "unit": values[0]["unit"]}
               for key, values in line_metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
