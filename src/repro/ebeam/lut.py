"""Lookup-table acceleration of the erf edge profile (paper §4.1).

Shot-edge adjustment evaluates three convolutions per candidate edge move;
the paper speeds the convolution up with a lookup table.  The 1-D edge
profile of a shot boundary is ``0.5 · (1 + erf(d / σ))`` as a function of
the signed distance ``d`` to the edge.  We tabulate erf once on a fine
grid and interpolate linearly — the error is far below the 1e-6 cost
resolution used by the refinement loop's improvement test.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np
from scipy.special import erf


class ErfLookupTable:
    """Linear-interpolation table for ``erf`` on ``[-bound, bound]``.

    Outside the tabulated range erf is saturated to ±1, which is exact to
    < 1e-8 for ``bound >= 4``.
    """

    __slots__ = ("bound", "step", "_table", "_inv_step")

    def __init__(self, bound: float = 5.0, samples: int = 20001):
        if bound <= 0.0:
            raise ValueError("bound must be positive")
        if samples < 2:
            raise ValueError("need at least 2 samples")
        self.bound = float(bound)
        xs = np.linspace(-bound, bound, samples)
        self._table = erf(xs)
        self.step = xs[1] - xs[0]
        self._inv_step = 1.0 / self.step

    def __call__(self, u: np.ndarray | float) -> np.ndarray | float:
        """Interpolated erf of ``u``; scalar in, Python float out."""
        scalar = np.ndim(u) == 0
        pos = np.asarray(
            (np.asarray(u, dtype=np.float64) + self.bound) * self._inv_step
        )
        last = len(self._table) - 1
        np.clip(pos, 0.0, float(last), out=pos)
        idx = pos.astype(np.int64)
        # The base index of the interpolation cell can be at most
        # samples - 2, so the idx + 1 read below stays in bounds; at the
        # upper table edge frac becomes exactly 1.0 and the interpolation
        # returns the last table entry.
        np.minimum(idx, last - 1, out=idx)
        frac = pos - idx
        lo = self._table[idx]
        out = lo + (self._table[idx + 1] - lo) * frac
        return float(out) if scalar else out

    def eval_concat(self, segments: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Evaluate several argument arrays with one table interpolation.

        The batched pricing engine concatenates every 1-D profile argument
        of an iteration into a single flat array so the clip/index/gather
        sequence of :meth:`__call__` runs once instead of per candidate.
        The returned views partition the flat result in input order, and
        each element is bit-identical to a per-array evaluation (the
        interpolation is elementwise).
        """
        if not segments:
            return []
        flat = segments[0] if len(segments) == 1 else np.concatenate(segments)
        values = self(flat)
        out: list[np.ndarray] = []
        offset = 0
        for segment in segments:
            out.append(values[offset : offset + len(segment)])
            offset += len(segment)
        return out

    def max_abs_error(self, samples: int = 4096) -> float:
        """Worst interpolation error over the table range (for tests)."""
        xs = np.linspace(-self.bound, self.bound, samples)
        return float(np.max(np.abs(self(xs) - erf(xs))))

    @property
    def key(self) -> tuple[float, int]:
        """Identity of the tabulation: ``(bound, samples)``.

        Two tables with the same key interpolate identically, so caches
        of values derived from a LUT (the 1-D profile bank of the
        service daemon) may key on this instead of object identity.
        """
        return (self.bound, len(self._table))


_DEFAULT_LUT: ErfLookupTable | None = None
# Concurrent jobs in the service daemon share the default table; the
# lock makes the lazy build race-free.  The fast path (table already
# built) reads one reference without locking — atomic under the GIL —
# so per-evaluation cost is unchanged.
_DEFAULT_LUT_LOCK = threading.Lock()


def default_lut() -> ErfLookupTable:
    """Process-wide shared table (construction costs ~1 ms, reuse is free).

    Thread-safe: concurrent first calls build the table exactly once
    (double-checked under a module lock), so parallel service jobs never
    observe a half-initialized default or build duplicate tables.
    """
    global _DEFAULT_LUT
    lut = _DEFAULT_LUT
    if lut is not None:
        return lut
    with _DEFAULT_LUT_LOCK:
        if _DEFAULT_LUT is None:
            _DEFAULT_LUT = ErfLookupTable()
        return _DEFAULT_LUT

