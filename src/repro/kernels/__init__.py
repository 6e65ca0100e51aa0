"""repro.kernels — array-backend seam for the vectorized hot spots.

The three kernels that dominate refine/stitch wall time (signed-clamp
batch pricing, connected-component labeling, the per-iteration stitch
cost field) dispatch through a process-global :class:`KernelBackend`
selected here.  ``numpy`` (the vectorized default) and ``scalar`` (the
original per-pixel/per-candidate oracle paths) ship with the repo; an
accelerator variant slots in by registering another factory.

Selection, in precedence order:

* ``set_backend("scalar")`` / the ``use_backend("scalar")`` context
  manager (tests, benchmarks);
* the ``--kernels`` CLI flag (which calls :func:`set_backend`);
* the ``REPRO_KERNELS`` environment variable;
* the built-in default, ``numpy``.

Backends register lazily: ``register_backend(name, factory)`` stores a
zero-argument factory, so importing :mod:`repro.kernels` never imports
a backend module until that backend is first used.
The active backend and its kernel variants are recorded in run
manifests via :func:`kernels_manifest` and surfaced as ``kernels.*``
telemetry by the kernels themselves.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable

from repro.kernels.backend import KernelBackend

__all__ = [
    "DEFAULT_BACKEND",
    "KernelBackend",
    "available_backends",
    "get_backend",
    "kernels_manifest",
    "register_backend",
    "set_backend",
    "use_backend",
]

DEFAULT_BACKEND = "numpy"
ENV_VAR = "REPRO_KERNELS"

_REGISTRY: dict[str, Callable[[], KernelBackend]] = {}
_LOCK = threading.Lock()
_ACTIVE: KernelBackend | None = None


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    with _LOCK:
        _REGISTRY[name] = factory


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    with _LOCK:
        return sorted(_REGISTRY)


def _resolve(name: str) -> KernelBackend:
    try:
        with _LOCK:
            factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    backend = factory()
    if not isinstance(backend, KernelBackend):
        raise TypeError(
            f"backend factory {name!r} returned {type(backend).__name__}, "
            "expected a KernelBackend"
        )
    return backend


def get_backend() -> KernelBackend:
    """The active backend, resolving ``$REPRO_KERNELS`` on first use."""
    global _ACTIVE
    backend = _ACTIVE
    if backend is None:
        backend = _resolve(os.environ.get(ENV_VAR, DEFAULT_BACKEND))
        with _LOCK:
            if _ACTIVE is None:
                _ACTIVE = backend
            backend = _ACTIVE
    return backend


def set_backend(backend: str | KernelBackend) -> KernelBackend:
    """Install ``backend`` (by name or instance) process-wide."""
    global _ACTIVE
    resolved = _resolve(backend) if isinstance(backend, str) else backend
    with _LOCK:
        _ACTIVE = resolved
    return resolved


class use_backend:
    """Context manager scoping a backend selection (restores on exit)."""

    def __init__(self, backend: str | KernelBackend) -> None:
        self._backend = backend
        self._saved: KernelBackend | None = None

    def __enter__(self) -> KernelBackend:
        global _ACTIVE
        with _LOCK:
            self._saved = _ACTIVE
        return set_backend(self._backend)

    def __exit__(self, *exc: Any) -> None:
        global _ACTIVE
        with _LOCK:
            _ACTIVE = self._saved


def kernels_manifest() -> dict[str, Any]:
    """Manifest/telemetry record of the active backend and variants."""
    backend = get_backend()
    return {"backend": backend.name, "variants": backend.describe()}


def _numpy_factory() -> KernelBackend:
    from repro.kernels.numpy_backend import NumpyBackend

    return NumpyBackend()


def _scalar_factory() -> KernelBackend:
    from repro.kernels.scalar_backend import ScalarBackend

    return ScalarBackend()


register_backend("numpy", _numpy_factory)
register_backend("scalar", _scalar_factory)
