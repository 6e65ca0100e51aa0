"""Regression tests for shared-state races the daemon depends on.

Concurrent service jobs share the default erf LUT and the installed
profile bank.  Before the locks landed, two jobs racing the lazy
default-LUT build could each construct a table (one leaked), and a
reader racing ``set_profile_bank`` could observe a half-swapped module
global.  These tests hammer the same interleavings from many threads;
they are timing-sensitive by nature, so they assert invariants (exactly
one table, no exceptions, bit-identical physics) rather than schedules.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.ebeam.intensity_map import (
    IntensityMap,
    ProfileBank,
    get_profile_bank,
    set_profile_bank,
)
from repro.ebeam import lut as lut_module
from repro.ebeam.lut import ErfLookupTable, default_lut

THREADS = 16


class TestDefaultLutRaces:
    def test_concurrent_first_build_yields_one_table(self, monkeypatch):
        # Force the lazy-build path; monkeypatch restores the table.
        monkeypatch.setattr(lut_module, "_DEFAULT_LUT", None)
        barrier = threading.Barrier(THREADS)

        def build() -> ErfLookupTable:
            barrier.wait()  # maximise the racing window
            return default_lut()

        with ThreadPoolExecutor(THREADS) as pool:
            tables = list(pool.map(lambda _: build(), range(THREADS)))
        assert all(table is tables[0] for table in tables)


class TestProfileBankRaces:
    def test_concurrent_attach_same_layout_shares_one_cache(self, spec, rect_shape):
        bank = ProfileBank()
        key = ProfileBank.bank_key(rect_shape.grid, spec.sigma, default_lut())
        barrier = threading.Barrier(THREADS)

        def attach() -> int:
            barrier.wait()
            return id(bank.cache_for(key))

        with ThreadPoolExecutor(THREADS) as pool:
            cache_ids = set(pool.map(lambda _: attach(), range(THREADS)))
        assert len(cache_ids) == 1
        assert bank.layouts == 1
        assert bank.attach_count == THREADS

    def test_install_swap_race_is_atomic(self):
        banks = [ProfileBank() for _ in range(3)]
        allowed = {id(bank) for bank in banks} | {id(None)}
        stop = threading.Event()
        bad: list[int] = []

        def reader() -> None:
            while not stop.is_set():
                bank = get_profile_bank()
                if id(bank) not in allowed:
                    bad.append(id(bank))

        previous = set_profile_bank(None)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for _ in range(100):
                for bank in banks:
                    set_profile_bank(bank)
                set_profile_bank(None)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert bad == []
        finally:
            stop.set()
            set_profile_bank(previous)

    def test_parallel_maps_on_shared_bank_stay_bit_identical(
        self, spec, rect_shape
    ):
        """Jobs racing on one warm cache must not corrupt the physics."""
        from repro.baselines import PartitionFracturer

        shots = PartitionFracturer().fracture_shots(rect_shape, spec)
        cold = IntensityMap(rect_shape.grid, spec.sigma)
        for shot in shots:
            cold.add(shot)

        previous = set_profile_bank(ProfileBank())
        try:
            def run_map(_: int) -> np.ndarray:
                shared = IntensityMap(rect_shape.grid, spec.sigma)
                for shot in shots:
                    shared.add(shot)
                return shared.total

            with ThreadPoolExecutor(8) as pool:
                totals = list(pool.map(run_map, range(8)))
            for total in totals:
                np.testing.assert_array_equal(cold.total, total)
        finally:
            set_profile_bank(previous)
