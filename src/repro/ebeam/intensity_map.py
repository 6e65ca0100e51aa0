"""Incrementally maintained total intensity ``I_tot`` over the pixel grid.

Shot refinement (paper §4) evaluates thousands of candidate edge moves.
Recomputing all shots every time would dominate runtime, so — like the
paper's implementation — intensity is maintained incrementally: adding,
removing or moving a shot only touches the pixels within the shot's
blur reach.  The reach is 4σ (erf tail < 2e-8) rather than the kernel's
3σ truncation so incremental and from-scratch evaluation agree to float
precision; tests assert the drift bound.

Because the kernel is separable, every patch this module produces is an
outer product of two 1-D axis profiles ``0.5·(erf((t−lo)/σ) −
erf((t−hi)/σ))``.  Shots snap to the pixel pitch, so the same (axis, lo,
hi, window) profile recurs heavily across candidate pricing and committed
updates; :class:`IntensityMap` therefore memoizes profiles in a keyed
cache (hit/miss counters exported through ``repro.obs``).  The cache
needs no invalidation: a profile depends only on the grid, σ and the LUT
— all immutable — never on the current shot list.
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np

from repro.ebeam.intensity import shot_intensity
from repro.ebeam.lut import ErfLookupTable, default_lut
from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect
from repro.obs import get_recorder

# A profile-cache key: (axis, lo, hi, window start, window stop).
ProfileKey = tuple[str, float, float, int, int]

_PROFILE_CACHE_DEFAULT = True
_PROFILE_CACHE_LIMIT = 20_000
_DELTA_CACHE_LIMIT = 4096


class ProfileBank:
    """Process-level store of 1-D profile caches, shared across jobs.

    A profile depends only on (grid geometry, σ, LUT tabulation) — never
    on the current shot list — so two fracture runs over the *same
    layout* recompute identical profiles from scratch when each builds a
    private :class:`IntensityMap`.  The service daemon installs a bank
    (:func:`set_profile_bank`); every map constructed while it is
    installed adopts the bank's shared cache dict for its key instead of
    a private one, so a resubmitted layout starts with every profile of
    the previous run already warm.

    Thread safety: ``cache_for`` is guarded by a lock (it runs once per
    map construction, never on the pricing hot path); the per-key dicts
    themselves are mutated only through single ``dict`` operations,
    which are atomic under the GIL — concurrent jobs sharing a cache can
    at worst duplicate a profile computation, never corrupt one.
    """

    def __init__(self, max_caches: int = 64):
        if max_caches < 1:
            raise ValueError("max_caches must be at least 1")
        self.max_caches = max_caches
        self._lock = threading.Lock()
        self._caches: dict[tuple, dict[ProfileKey, np.ndarray]] = {}
        self.attach_count = 0
        self.warm_attach_count = 0

    @staticmethod
    def bank_key(grid, sigma: float, lut: ErfLookupTable) -> tuple:
        """Cache identity: grid geometry + σ + LUT tabulation."""
        return (
            grid.x0, grid.y0, grid.pitch, grid.nx, grid.ny,
            sigma, lut.key,
        )

    def cache_for(self, key: tuple) -> dict[ProfileKey, np.ndarray]:
        """The shared cache dict for ``key`` (created on first use).

        When the bank is full the oldest cache is dropped whole — a
        layout-granular LRU keeps the memory bound without touching the
        per-profile hot path.
        """
        with self._lock:
            cache = self._caches.pop(key, None)
            if cache is not None:
                self._caches[key] = cache  # re-insert: most recently used
                self.attach_count += 1
                if cache:
                    self.warm_attach_count += 1
                return cache
            while len(self._caches) >= self.max_caches:
                oldest = next(iter(self._caches))
                del self._caches[oldest]
            cache = {}
            self._caches[key] = cache
            self.attach_count += 1
            return cache

    @property
    def layouts(self) -> int:
        return len(self._caches)

    @property
    def profiles(self) -> int:
        with self._lock:
            return sum(len(c) for c in self._caches.values())

    def clear(self) -> None:
        with self._lock:
            self._caches.clear()


_PROFILE_BANK: ProfileBank | None = None
_PROFILE_BANK_LOCK = threading.Lock()


def set_profile_bank(bank: ProfileBank | None) -> ProfileBank | None:
    """Install (or, with ``None``, remove) the process profile bank.

    Returns the previously installed bank.  Maps constructed while a
    bank is installed share its caches; existing maps are unaffected
    (copy-on-swap: they keep whatever cache dict they already hold).
    """
    global _PROFILE_BANK
    with _PROFILE_BANK_LOCK:
        previous = _PROFILE_BANK
        _PROFILE_BANK = bank
        return previous


def get_profile_bank() -> ProfileBank | None:
    return _PROFILE_BANK


class profile_caching:
    """Temporarily set the default for new maps: ``with profile_caching(False): ...``.

    Cache-off maps are the reference the cache-transparency tests compare
    cached runs against, bit for bit.
    """

    def __init__(self, enabled: bool):
        self._enabled = bool(enabled)

    def __enter__(self) -> "profile_caching":
        global _PROFILE_CACHE_DEFAULT
        self._previous = _PROFILE_CACHE_DEFAULT
        _PROFILE_CACHE_DEFAULT = self._enabled
        return self

    def __exit__(self, *exc: object) -> bool:
        global _PROFILE_CACHE_DEFAULT
        _PROFILE_CACHE_DEFAULT = self._previous
        return False


class IntensityMap:
    """Sum of shot intensities sampled at the pixel centres of ``grid``."""

    __slots__ = (
        "grid",
        "sigma",
        "reach",
        "_lut",
        "_total",
        "_x_centers",
        "_y_centers",
        "_profile_cache",
        "_cache_profiles",
        "_delta_cache",
    )

    def __init__(
        self,
        grid: PixelGrid,
        sigma: float,
        lut: ErfLookupTable | None = None,
    ):
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        self.grid = grid
        self.sigma = sigma
        self.reach = 4.0 * sigma  # see the module docstring
        self._lut = lut if lut is not None else default_lut()
        self._total = np.zeros(grid.shape, dtype=np.float64)
        self._x_centers = grid.x_centers()
        self._y_centers = grid.y_centers()
        self._cache_profiles = _PROFILE_CACHE_DEFAULT
        bank = _PROFILE_BANK
        if bank is not None and self._cache_profiles:
            # Adopt the process bank's shared cache for this geometry:
            # a rerun of the same layout starts fully warm.
            self._profile_cache = bank.cache_for(
                ProfileBank.bank_key(grid, sigma, self._lut)
            )
        else:
            self._profile_cache: dict[ProfileKey, np.ndarray] = {}
        self._delta_cache: dict[tuple[ProfileKey, ProfileKey], np.ndarray] = {}

    # -- queries -------------------------------------------------------------

    @property
    def total(self) -> np.ndarray:
        """The full I_tot array (read-only view by convention)."""
        return self._total

    @property
    def profile_cache_enabled(self) -> bool:
        return self._cache_profiles

    @property
    def profile_cache_size(self) -> int:
        return len(self._profile_cache)

    def window_of(self, rect: Rect) -> tuple[slice, slice]:
        """Index window of all pixels the shot ``rect`` can influence."""
        return self.grid.rect_to_slices(rect, margin=self.reach)

    def union_window(self, a: Rect, b: Rect) -> tuple[slice, slice]:
        """Window of pixels influenced by either of two shots (edge moves)."""
        return self.grid.rect_to_slices(a.union_bbox(b), margin=self.reach)

    def shot_patch(
        self, shot: Rect, window: tuple[slice, slice] | None = None
    ) -> tuple[tuple[slice, slice], np.ndarray]:
        """Intensity of a single shot restricted to its influence window."""
        if window is None:
            window = self.window_of(shot)
        get_recorder().incr("intensity.patch_evals")
        if not self._cache_profiles:
            return window, shot_intensity(
                shot, self.grid, self.sigma, window, self._lut
            )
        fy = self.axis_profile("y", shot.ybl, shot.ytr, window[0])
        fx = self.axis_profile("x", shot.xbl, shot.xtr, window[1])
        return window, fy[:, None] * fx[None, :]

    # -- 1-D profile cache ---------------------------------------------------

    def axis_profile(
        self, axis: str, lo: float, hi: float, index_slice: slice
    ) -> np.ndarray:
        """Cached ``0.5·(erf((t−lo)/σ) − erf((t−hi)/σ))`` on a coord window.

        ``axis`` is ``"x"`` or ``"y"``; ``index_slice`` selects the pixel
        centres.  Returned arrays are read-only and shared between all
        callers with the same key.
        """
        key: ProfileKey = (axis, lo, hi, index_slice.start, index_slice.stop)
        profile = self._profile_cache.get(key)
        obs = get_recorder()
        if profile is not None:
            obs.incr("cache.profile.hits")
            return profile
        obs.incr("cache.profile.misses")
        args = self._profile_args(key)
        obs.incr("cache.lut.hits", len(args))
        profile = self._finish_profile(self._lut(args))
        self._store_profile(key, profile)
        return profile

    def ensure_profiles(self, keys: Iterable[ProfileKey]) -> None:
        """Batch-fill the cache: one LUT evaluation for every missing key.

        This is the iteration-level entry point of the batched pricing
        engine — all erf arguments of an entire candidate sweep are
        concatenated and interpolated in a single call, making profile
        evaluation throughput-bound instead of dispatch-bound.
        """
        cache = self._profile_cache
        missing: list[ProfileKey] = []
        pending: set[ProfileKey] = set()
        hits = 0
        for key in keys:
            if key in cache or key in pending:
                hits += 1
            else:
                pending.add(key)
                missing.append(key)
        obs = get_recorder()
        if hits:
            obs.incr("cache.profile.hits", hits)
        if not missing:
            return
        obs.incr("cache.profile.misses", len(missing))
        segments = [self._profile_args(key) for key in missing]
        obs.incr("cache.lut.hits", sum(len(s) for s in segments))
        for key, values in zip(missing, self._lut.eval_concat(segments)):
            self._store_profile(key, self._finish_profile(values))

    def profile(self, key: ProfileKey) -> np.ndarray:
        """Fetch a cached profile, computing it on the fly if absent."""
        cached = self._profile_cache.get(key)
        if cached is not None:
            return cached
        return self.axis_profile(key[0], key[1], key[2], slice(key[3], key[4]))

    def cached_profile(self, key: ProfileKey) -> np.ndarray:
        """:meth:`profile` without the tuple packing of a cache miss.

        Identical values; used by the pricing hot loops, which have
        usually pre-warmed the cache via :meth:`ensure_profiles`.
        """
        cached = self._profile_cache.get(key)
        if cached is not None:
            return cached
        return self.profile(key)

    def delta_profile(self, k_old: ProfileKey, k_new: ProfileKey) -> np.ndarray:
        """Moved-axis difference profile ``profile(k_new) − profile(k_old)``.

        Memoized while the profile cache is on: the difference is a
        deterministic function of two immutable cached profiles, so the
        memo needs no invalidation — recomputing reproduces the exact
        same bits.  A ``profile_caching(False)`` map retains nothing.
        """
        if not self._cache_profiles:
            return self.profile(k_new) - self.profile(k_old)
        memo = self._delta_cache
        dkey = (k_old, k_new)
        delta = memo.get(dkey)
        if delta is None:
            if len(memo) >= _DELTA_CACHE_LIMIT:
                memo.clear()
            delta = self.cached_profile(k_new) - self.cached_profile(k_old)
            delta.flags.writeable = False
            memo[dkey] = delta
        return delta

    def clear_profile_cache(self) -> None:
        self._profile_cache.clear()
        self._delta_cache.clear()

    def _profile_args(self, key: ProfileKey) -> np.ndarray:
        """The ``2n`` erf arguments of one profile: (t−lo)/σ then (t−hi)/σ."""
        axis, lo, hi, start, stop = key
        coords = (self._x_centers if axis == "x" else self._y_centers)[start:stop]
        n = len(coords)
        args = np.empty(2 * n)
        args[:n] = coords - lo
        args[n:] = coords - hi
        args /= self.sigma
        return args

    @staticmethod
    def _finish_profile(e: np.ndarray) -> np.ndarray:
        n = len(e) // 2
        profile = 0.5 * (e[:n] - e[n:])
        profile.flags.writeable = False
        return profile

    def _store_profile(self, key: ProfileKey, profile: np.ndarray) -> None:
        if not self._cache_profiles:
            return
        cache = self._profile_cache
        if len(cache) >= _PROFILE_CACHE_LIMIT:
            cache.clear()
            get_recorder().incr("cache.profile.evictions")
        cache[key] = profile

    # -- mutation --------------------------------------------------------------

    def add(self, shot: Rect, window: tuple[slice, slice] | None = None) -> None:
        window, patch = self.shot_patch(shot, window)
        self._total[window] += patch

    def remove(self, shot: Rect, window: tuple[slice, slice] | None = None) -> None:
        window, patch = self.shot_patch(shot, window)
        self._total[window] -= patch

    def replace(
        self,
        old: Rect,
        new: Rect,
        window: tuple[slice, slice] | None = None,
    ) -> None:
        """Swap ``old`` for ``new`` touching only the union window once."""
        if window is None:
            window = self.union_window(old, new)
        _, old_patch = self.shot_patch(old, window)
        _, new_patch = self.shot_patch(new, window)
        self._total[window] += new_patch - old_patch

    def apply_edge_move(
        self, old: Rect, new: Rect, edge: str
    ) -> tuple[slice, slice]:
        """Commit a single-edge move by adding its narrow-window delta.

        The committed change is exactly the patch the pricing engines
        scored (same profiles, same window), so an accepted Δcost matches
        the realized cost change to fp precision — and the update touches
        a fraction of the pixels a union-window :meth:`replace` would.
        """
        window, patch = self.edge_move_delta(old, new, edge)
        self._total[window] += patch
        return window

    def rebuild(self, shots: Iterable[Rect]) -> None:
        """Recompute from scratch (used to bound incremental drift)."""
        self._total[:] = 0.0
        for shot in shots:
            self.add(shot)

    def candidate_total(
        self, old: Rect, new: Rect, window: tuple[slice, slice] | None = None
    ) -> tuple[tuple[slice, slice], np.ndarray]:
        """What I_tot would look like in the affected window if ``old``
        were replaced by ``new`` — without committing the change.

        This is the hot path of GreedyShotEdgeAdjustment: two calls per
        shot edge per iteration.  Callers that know the change is local
        (single-edge moves) pass a tighter ``window``; intensity outside
        it differs only by the erf tail beyond the blur reach (< 2e-8).
        """
        if window is None:
            window = self.union_window(old, new)
        _, old_patch = self.shot_patch(old, window)
        _, new_patch = self.shot_patch(new, window)
        return window, self._total[window] - old_patch + new_patch

    def edge_move_profile_keys(
        self, old: Rect, new: Rect, edge: str, window: tuple[slice, slice]
    ) -> tuple[ProfileKey, ProfileKey, ProfileKey]:
        """The (old, new, fixed) profile keys pricing an edge move needs."""
        ys, xs = window
        if edge in ("left", "right"):
            return (
                ("x", old.xbl, old.xtr, xs.start, xs.stop),
                ("x", new.xbl, new.xtr, xs.start, xs.stop),
                ("y", old.ybl, old.ytr, ys.start, ys.stop),
            )
        return (
            ("y", old.ybl, old.ytr, ys.start, ys.stop),
            ("y", new.ybl, new.ytr, ys.start, ys.stop),
            ("x", old.xbl, old.xtr, xs.start, xs.stop),
        )

    @staticmethod
    def outer_delta(
        edge: str,
        profile_old: np.ndarray,
        profile_new: np.ndarray,
        profile_fixed: np.ndarray,
    ) -> np.ndarray:
        """Outer-product intensity delta of an edge move from its profiles."""
        delta = profile_new - profile_old
        if edge in ("left", "right"):
            return profile_fixed[:, None] * delta[None, :]
        return delta[:, None] * profile_fixed[None, :]

    def edge_move_delta(
        self, old: Rect, new: Rect, edge: str
    ) -> tuple[tuple[slice, slice], np.ndarray]:
        """Intensity change of a single-edge move, on its narrow window.

        Only one axis profile differs between ``old`` and ``new``, so the
        delta is one outer product of (changed-axis profile difference) ×
        (unchanged-axis profile) — the cheapest possible pricing of a
        candidate edge move.  With the profile cache enabled the three
        profiles are dictionary lookups on the hot path; the uncached
        branch below evaluates them directly and is the cache-off
        reference.
        """
        window = self.edge_move_window(old, new, edge)
        get_recorder().incr("intensity.edge_deltas")
        if self._cache_profiles:
            k_old, k_new, k_fixed = self.edge_move_profile_keys(
                old, new, edge, window
            )
            return window, self.outer_delta(
                edge, self.profile(k_old), self.profile(k_new), self.profile(k_fixed)
            )
        ys = self.grid.y_centers()[window[0]]
        xs = self.grid.x_centers()[window[1]]
        # One batched LUT evaluation for all six erf arguments — the
        # arrays here are tiny, so per-call overhead dominates otherwise.
        if edge in ("left", "right"):
            changed, fixed = xs, ys
            c_lo_old, c_hi_old = old.xbl, old.xtr
            c_lo_new, c_hi_new = new.xbl, new.xtr
            f_lo, f_hi = old.ybl, old.ytr
        else:
            changed, fixed = ys, xs
            c_lo_old, c_hi_old = old.ybl, old.ytr
            c_lo_new, c_hi_new = new.ybl, new.ytr
            f_lo, f_hi = old.xbl, old.xtr
        n_c, n_f = len(changed), len(fixed)
        args = np.empty(4 * n_c + 2 * n_f)
        args[0:n_c] = changed - c_lo_old
        args[n_c : 2 * n_c] = changed - c_hi_old
        args[2 * n_c : 3 * n_c] = changed - c_lo_new
        args[3 * n_c : 4 * n_c] = changed - c_hi_new
        args[4 * n_c : 4 * n_c + n_f] = fixed - f_lo
        args[4 * n_c + n_f :] = fixed - f_hi
        args /= self.sigma
        obs = get_recorder()
        obs.incr("cache.lut.hits", len(args))
        e = self._lut(args)
        profile_old = 0.5 * (e[0:n_c] - e[n_c : 2 * n_c])
        profile_new = 0.5 * (e[2 * n_c : 3 * n_c] - e[3 * n_c : 4 * n_c])
        profile_fixed = 0.5 * (
            e[4 * n_c : 4 * n_c + n_f] - e[4 * n_c + n_f : 4 * n_c + 2 * n_f]
        )
        delta = profile_new - profile_old
        if edge in ("left", "right"):
            return window, np.outer(profile_fixed, delta)
        return window, np.outer(delta, profile_fixed)

    def edge_move_window(self, old: Rect, new: Rect, edge: str) -> tuple[slice, slice]:
        """Window where a single-edge move changes the intensity.

        For a vertical-edge move only the x profile changes, and only
        within the blur reach of the swept strip — the window is a narrow
        band spanning the shot's full (padded) height, and vice versa for
        horizontal edges.  Roughly an order of magnitude smaller than the
        full union window, which is what makes edge pricing cheap.
        """
        if edge in ("left", "right"):
            x_old = old.edge_coordinate(edge)
            x_new = new.edge_coordinate(edge)
            band = Rect(
                min(x_old, x_new), min(old.ybl, new.ybl),
                max(x_old, x_new), max(old.ytr, new.ytr),
            )
        else:
            y_old = old.edge_coordinate(edge)
            y_new = new.edge_coordinate(edge)
            band = Rect(
                min(old.xbl, new.xbl), min(y_old, y_new),
                max(old.xtr, new.xtr), max(y_old, y_new),
            )
        return self.grid.rect_to_slices(band, margin=self.reach)

    def copy(self) -> "IntensityMap":
        clone = IntensityMap.__new__(IntensityMap)
        clone.grid = self.grid
        clone.sigma = self.sigma
        clone.reach = self.reach
        clone._lut = self._lut
        clone._total = self._total.copy()
        clone._x_centers = self._x_centers
        clone._y_centers = self._y_centers
        # Profiles are immutable (read-only arrays keyed by geometry), so
        # the clone can share them; only the dict itself is copied.
        clone._profile_cache = dict(self._profile_cache)
        clone._cache_profiles = self._cache_profiles
        clone._delta_cache = dict(self._delta_cache)
        return clone
