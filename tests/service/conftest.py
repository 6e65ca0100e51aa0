"""Helpers shared by the service tests."""

from __future__ import annotations

import json
import time
from pathlib import Path


def stored_tiles(store_dir: Path) -> dict[Path, dict]:
    """The tile entries of a store directory, by file (shape entries and
    unreadable files skipped)."""
    tiles = {}
    for path in sorted(Path(store_dir).glob("*.json")):
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(entry, dict) and "tile" in entry:
            tiles[path] = entry
    return tiles


def wait_for_first_tile(store_dir: Path, timeout_s: float = 60.0) -> None:
    """Block until the store under ``store_dir`` holds a settled tile."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if stored_tiles(store_dir):
            return
        time.sleep(0.02)
    raise AssertionError(f"no tile stored under {store_dir}")
