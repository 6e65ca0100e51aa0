"""The kernel-backend seam: registry, selection, capability contract."""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as kernels
from repro.kernels import (
    KernelBackend,
    available_backends,
    get_backend,
    kernels_manifest,
    register_backend,
    set_backend,
    use_backend,
)


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """Backend selection is process-global; never leak it across tests."""
    saved = kernels._ACTIVE
    yield
    with kernels._LOCK:
        kernels._ACTIVE = saved


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert names == ["numpy", "scalar"]

    def test_set_backend_by_name(self):
        backend = set_backend("scalar")
        assert backend.name == "scalar"
        assert get_backend() is backend

    def test_set_backend_by_instance(self):
        instance = set_backend("numpy")
        assert set_backend(instance) is instance
        assert get_backend() is instance

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="scalar"):
            set_backend("no-such-backend")

    def test_use_backend_restores_previous(self):
        before = set_backend("numpy")
        with use_backend("scalar") as scoped:
            assert scoped.name == "scalar"
            assert get_backend() is scoped
        assert get_backend() is before

    def test_env_var_resolved_on_first_use(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "scalar")
        with kernels._LOCK:
            kernels._ACTIVE = None
        assert get_backend().name == "scalar"

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        with kernels._LOCK:
            kernels._ACTIVE = None
        assert get_backend().name == kernels.DEFAULT_BACKEND == "numpy"

    def test_custom_backend_registration(self):
        class Dummy(KernelBackend):
            name = "dummy-test"

        try:
            register_backend("dummy-test", Dummy)
            assert "dummy-test" in available_backends()
            assert set_backend("dummy-test").name == "dummy-test"
        finally:
            with kernels._LOCK:
                kernels._REGISTRY.pop("dummy-test", None)


class TestCapabilities:
    def test_numpy_capabilities(self):
        backend = set_backend("numpy")
        assert backend.fused_pricing and backend.crop_stitch_field
        assert isinstance(backend.fused_band_limit, int)
        assert backend.fused_band_limit > 0

    def test_scalar_is_pure_oracle(self):
        backend = set_backend("scalar")
        assert not backend.fused_pricing
        assert not backend.crop_stitch_field

    def test_manifest_records_backend_and_variants(self):
        set_backend("numpy")
        manifest = kernels_manifest()
        assert manifest["backend"] == "numpy"
        assert set(manifest["variants"]) == {"labeling", "pricing", "stitch_field"}
        assert manifest["variants"]["labeling"] == "run_length_row_merge"
        set_backend("scalar")
        assert kernels_manifest()["variants"]["labeling"] == "python_union_find"


class TestComponentStats:
    def test_stats_match_across_backends(self):
        rng = np.random.default_rng(7)
        mask = rng.random((40, 50)) < 0.4
        labels, count = set_backend("numpy").label_components(mask)
        stats_n = get_backend().component_stats(labels, count)
        stats_s = set_backend("scalar").component_stats(labels, count)
        for a, b in zip(stats_n, stats_s):
            assert np.array_equal(a, b)


class TestCliSelection:
    def test_unknown_kernels_flag_is_a_clean_error(self):
        import argparse

        from repro.cli import _apply_kernels

        with pytest.raises(SystemExit, match="available"):
            _apply_kernels(argparse.Namespace(kernels="bogus"))

    def test_kernels_flag_installs_backend(self):
        import argparse

        from repro.cli import _apply_kernels

        _apply_kernels(argparse.Namespace(kernels="scalar"))
        assert get_backend().name == "scalar"
