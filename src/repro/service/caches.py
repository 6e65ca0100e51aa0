"""Daemon-lifetime warm state shared across jobs.

The entire economic argument for a resident daemon is that batch MDP
workloads resubmit near-identical work: the same clip re-fractured
after a parameter nudge, the same layout at a different priority, or a
verbatim retry after a client crash.  Three layers of warmth, cheapest
check first:

1. **Result cache** — the library-level content-addressed
   :class:`~repro.fracture.cache.FractureCache`.  The sha256 of
   (canonical clip vertices, spec, method, window) maps to the
   finished shot list plus its frame, so a resubmission — even a
   *translated* one — costs one hash, skipping rasterization,
   fracture and verification (the stored feasibility verdict was
   computed from scratch on identical canonical geometry the first
   time).  The executor passes it to the batch loop as the
   :class:`~repro.mask.mdp.MdpPipeline` store, so a hit counts as
   ``cache.fracture.hits``, as in a CLI run.  With
   ``persist_dir`` set, entries survive daemon restarts on disk.
2. **Profile bank** (:class:`~repro.ebeam.intensity_map.ProfileBank`)
   — keyed 1-D edge profiles shared by every ``IntensityMap`` over the
   same (grid, σ, LUT).  A changed spec misses the result cache but a
   re-fractured layout still reuses every profile the previous run
   computed.
3. **Default LUT** (:func:`repro.ebeam.lut.default_lut`) — built once
   per process, shared by all jobs (thread-safe double-checked build).

:class:`WarmCaches` owns layers 1–2, installs the bank process-wide on
daemon startup, and answers the daemon-wide store gauges that the
``stats`` op, ``metrics`` and ``top`` expose.

The result cache is keyed by
:func:`repro.fracture.cache.canonical_fingerprint`, the library's shape
key, so service and library hashes can never drift.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.ebeam.intensity_map import ProfileBank, set_profile_bank
from repro.fracture.cache import FractureCache

__all__ = ["WarmCaches"]

#: Results the in-memory result cache holds (the oldest is evicted).
RESULT_ENTRIES = 256
#: Grid layouts whose edge profiles the profile bank keeps.
PROFILE_LAYOUTS = 64


class WarmCaches:
    """The daemon's shared warm state: result cache + profile bank.

    ``install()`` publishes the profile bank process-wide so every
    ``IntensityMap`` built by any job thread attaches to it;
    ``uninstall()`` detaches (tests use this to restore isolation).
    ``persist_dir`` turns the result cache into an on-disk store shared
    across daemon restarts (and with ``--fracture-cache`` CLI runs).
    """

    def __init__(
        self,
        *,
        persist_dir: str | Path | None = None,
        min_free_bytes: int | None = None,
    ):
        self.results = FractureCache(
            max_entries=RESULT_ENTRIES, persist_dir=persist_dir,
            min_free_bytes=min_free_bytes,
        )
        self.profiles = ProfileBank(max_caches=PROFILE_LAYOUTS)
        self._installed = False

    def install(self) -> "WarmCaches":
        set_profile_bank(self.profiles)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            set_profile_bank(None)
            self._installed = False

    def __enter__(self) -> "WarmCaches":
        return self.install()

    def __exit__(self, *exc: object) -> bool:
        self.uninstall()
        return False

    def stats(self) -> dict[str, Any]:
        """Gauges for the ``stats`` op and per-job telemetry.

        Keys follow the unified ``cache.<name>.*`` namespace
        (``cache.result.entries``, ``cache.profile.layouts``, …), so
        the ``stats`` op, the ``metrics`` exposition and per-job
        manifests all agree on naming.
        """
        return {
            "result": self.results.stats(),
            "profile": {
                "layouts": self.profiles.layouts,
                "profiles": self.profiles.profiles,
                "attaches": self.profiles.attach_count,
                "warm_attaches": self.profiles.warm_attach_count,
            },
        }

    def counters(self) -> dict[str, float]:
        """The same stats flattened to dotted ``cache.<name>.<key>`` keys."""
        flat: dict[str, float] = {}
        for cache_name, stats in self.stats().items():
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    flat[f"cache.{cache_name}.{key}"] = value
        return flat
