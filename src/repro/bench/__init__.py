"""Benchmark harness: workloads, bounds, runners and table formatters.

Regenerates every table and figure of the paper's evaluation:

* :mod:`repro.bench.shapes` — the ILT-10 clip suite and the known-optimal
  AGB/RGB suites (substitutes for the UCLA/UCSD benchmark download; see
  DESIGN.md).
* :mod:`repro.bench.bounds` — heuristic lower/upper shot-count bounds
  standing in for the ILP bounds of [16].
* :mod:`repro.bench.runner` — run a set of fracturers over a suite.
* :mod:`repro.bench.tables` — Table 2 / Table 3 formatters.
* :mod:`repro.bench.figures` — SVG renderings of Figures 1–5 from the
  actual algorithm internals.
"""

from repro.bench.bounds import lower_bound_shots, upper_bound_shots
from repro.bench.runner import SuiteResult, run_suite
from repro.bench.shapes import agb_suite, ilt_suite, rgb_suite
from repro.bench.tables import format_table2, format_table3

__all__ = [
    "SuiteResult",
    "agb_suite",
    "format_table2",
    "format_table3",
    "ilt_suite",
    "lower_bound_shots",
    "rgb_suite",
    "run_suite",
    "upper_bound_shots",
]
