#!/usr/bin/env python3
"""Compare two sets of end-to-end runs against the benchmark's bounds.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

Each file is what ``run.py`` writes (``--repeat K`` gives a set of K
seeds).  Only untraced runs count.  For every (workload, metric) pair
both sides report, one row shows each side's median and quartiles over
its runs and a verdict:

* ``unresolved`` — the run-to-run spread (IQR / median) on either side
  exceeds the bound, unless every NEW run beats every BASE run;
* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``within bound`` — otherwise.

Time and memory bounds come from ``BENCHMARK.json``, falling back to
``metrics.py`` for metrics it does not list.  Outputs that must not grow
at all (shots, failing pixels, failed share) are compared seed by seed
when both sides ran the same seeds: any increase is ``worse``.  Exits 1
when any row is ``worse``, and 2 when the two sides ran a workload with
a different ``--seconds`` or ``--scale``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from metrics import END_TO_END, ROOT, quartiles


def samples(path: Path) -> tuple[dict[tuple[str, str], dict[int, float]], set]:
    """(workload, metric) -> {seed: value} over the untraced runs, and the
    (workload, seconds, scale) settings those runs used."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    settings = set()
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"]:
            continue
        for workload, result in run["workloads"].items():
            settings.add((workload, run["seconds"], run["scale"]))
            for metric, value in result["metrics"].items():
                out.setdefault((workload, metric), {})[run["seed"]] = value
    return out, settings


def rules(benchmark: Path) -> dict[str, tuple[str, str, float, bool]]:
    """metric -> (unit, better, bound, exact)."""
    table = {name: (unit, better, bound, bound == 0.0)
             for name, (unit, better, bound, _w, _d) in END_TO_END.items()}
    for m in json.loads(benchmark.read_text())["end_to_end"]:
        exact = table.get(m["name"], (None, None, None, False))[3]
        table[m["name"]] = (m["unit"], m["better"], m["bound"], exact)
    return table


def _spread(q: tuple[float, float, float]) -> float:
    q1, median, q3 = q
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(base: dict[int, float], new: dict[int, float], better: str,
            bound: float, exact: bool) -> tuple[str, float]:
    """Returns (verdict, relative change of the medians, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    qb, qn = quartiles(list(base.values())), quartiles(list(new.values()))
    if qb[1] == qn[1]:
        change = 0.0
    elif qb[1] == 0:
        change = float("inf") * sign * (qn[1] - qb[1])
    else:
        change = sign * (qn[1] - qb[1]) / abs(qb[1])
    common = set(base) & set(new)
    if exact and common:
        worse = sum(sign * (new[s] - base[s]) > 0 for s in common)
        improved = sum(sign * (new[s] - base[s]) < 0 for s in common)
        return ("worse" if worse else "better" if improved else "within bound"), change
    if max(_spread(qb), _spread(qn)) > bound:
        every_run_better = (
            max(new.values()) < min(base.values()) if better == "lower"
            else min(new.values()) > max(base.values())
        )
        return ("better" if every_run_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within bound", change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    (base, base_settings), (new, new_settings) = samples(args.base), samples(args.new)
    common = {s[0] for s in base_settings} & {s[0] for s in new_settings}
    differ = {s for s in base_settings ^ new_settings if s[0] in common}
    if differ:
        print(f"error: the runs differ in run length or scale: {sorted(differ)}",
              file=sys.stderr)
        return 2
    table = rules(args.benchmark)
    print(f"{'workload':<12s} {'metric':<17s} {'base median [q1, q3]':>32s}  "
          f"{'new median [q1, q3]':>32s} {'change':>8s} {'bound':>6s}  verdict")
    counts: dict[str, int] = {}
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        if metric not in table:
            continue
        unit, better, bound, exact = table[metric]
        result, change = verdict(base[key], new[key], better, bound, exact)
        counts[result] = counts.get(result, 0) + 1
        qb, qn = quartiles(list(base[key].values())), quartiles(list(new[key].values()))
        paired = exact and set(base[key]) & set(new[key])
        print(f"{workload:<12s} {metric:<17s} "
              f"{qb[1]:>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {unit:<5s} "
              f"{qn[1]:>10.4g} [{qn[0]:.4g}, {qn[2]:.4g}] {unit:<5s} "
              f"{change:>+8.1%} {'paired' if paired else f'{bound:.0%}':>6s}  {result}")
    print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
