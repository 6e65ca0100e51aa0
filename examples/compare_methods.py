#!/usr/bin/env python3
"""Compare all fracturing heuristics on a few ILT clips.

Reproduces the structure of the paper's Table 2 on a three-clip subset:
conventional partitioning explodes on curvy shapes, greedy covering and
matching pursuit land in between, and coloring + refinement wins.

    python examples/compare_methods.py [--clips 3]
"""

import argparse

from repro import FractureSpec, ModelBasedFracturer
from repro.baselines import (
    GreedySetCoverFracturer,
    MatchingPursuitFracturer,
    PartitionFracturer,
    ProtoEdaFracturer,
)
from repro.bench.shapes import ilt_suite


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--clips", type=int, default=3)
    args = parser.parse_args()

    spec = FractureSpec()
    shapes = ilt_suite()[: args.clips]
    methods = [
        PartitionFracturer(),
        GreedySetCoverFracturer(),
        MatchingPursuitFracturer(),
        ProtoEdaFracturer(),
        ModelBasedFracturer(),
    ]

    header = f"{'clip':<8s}" + "".join(f"{m.name:>14s}" for m in methods)
    print(header)
    print("-" * len(header))
    totals = {m.name: 0 for m in methods}
    for shape in shapes:
        cells = [f"{shape.name:<8s}"]
        for method in methods:
            result = method.fracture(shape, spec)
            totals[method.name] += result.shot_count
            mark = "" if result.feasible else "*"
            cells.append(f"{result.shot_count}{mark} ({result.runtime_s:.1f}s)".rjust(14))
        print("".join(cells))
    print("-" * len(header))
    print(f"{'total':<8s}" + "".join(f"{totals[m.name]:>14d}" for m in methods))
    print("(* = solution left CD violations)")

    ours = totals["OURS"]
    for name, count in totals.items():
        if name != "OURS" and ours:
            print(f"OURS vs {name}: {count / ours:.2f}x shots")


if __name__ == "__main__":
    main()
