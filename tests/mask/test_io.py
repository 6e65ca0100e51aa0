"""Unit tests for clip/solution serialization."""

import pytest

from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec
from repro.mask.io import (
    load_clips,
    load_solution,
    polygon_from_dict,
    polygon_to_dict,
    rect_from_list,
    rect_to_list,
    save_clips,
    save_solution,
    spec_from_dict,
    spec_to_dict,
)


class TestRoundtrips:
    def test_polygon_roundtrip(self):
        poly = Polygon([(0, 0), (10.5, 0), (10.5, 7.25), (0, 7)])
        assert polygon_from_dict(polygon_to_dict(poly)) == poly

    def test_rect_roundtrip(self):
        rect = Rect(1.5, -2.0, 7.0, 3.25)
        assert rect_from_list(rect_to_list(rect)) == rect

    def test_rect_wrong_length(self):
        with pytest.raises(ValueError):
            rect_from_list([1, 2, 3])

    def test_spec_roundtrip(self):
        spec = FractureSpec(sigma=5.0, gamma=1.5, pitch=0.5, rho=0.4, lmin=8.0)
        assert spec_from_dict(spec_to_dict(spec)) == spec


class TestClipFiles:
    def test_save_load(self, tmp_path):
        clips = {
            "a": Polygon([(0, 0), (10, 0), (10, 10), (0, 10)]),
            "b": Polygon([(0, 0), (20, 0), (20, 5), (0, 5)]),
        }
        path = tmp_path / "clips.json"
        save_clips(clips, path)
        loaded = load_clips(path)
        assert loaded == clips

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_clips(path)


class TestSolutionFiles:
    def test_save_load_with_metadata(self, tmp_path, spec):
        shots = [Rect(0, 0, 20, 15), Rect(10, 5, 40, 18)]
        path = tmp_path / "sol.json"
        save_solution(shots, spec, path, clip_name="clip-7", metadata={"shots": 2})
        loaded_shots, loaded_spec, metadata = load_solution(path)
        assert loaded_shots == shots
        assert loaded_spec == spec
        assert metadata == {"shots": 2}

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "repro-clips", "clips": {}}')
        with pytest.raises(ValueError):
            load_solution(path)


class TestAtomicWrites:
    def test_failed_write_keeps_the_previous_solution(self, tmp_path, spec):
        resource = pytest.importorskip("resource")
        path = tmp_path / "clip.solution.json"
        save_solution([Rect(0, 0, 10, 10)], spec, path, clip_name="clip")
        before = path.read_bytes()
        shots = [Rect(i, 0, i + 10, 10) for i in range(1000)]
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        # Writes past this file size fail with EFBIG (Python ignores
        # SIGXFSZ), as a write that fills the disk fails with ENOSPC.
        resource.setrlimit(resource.RLIMIT_FSIZE, (2 * len(before), hard))
        try:
            with pytest.raises(OSError):
                save_solution(shots, spec, path, clip_name="clip")
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
