"""Unit tests for the GDSII reader/writer."""

import struct

import pytest

from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.mask.gds import (
    GdsCell,
    GdsError,
    SHOT_LAYER,
    TARGET_LAYER,
    _gds_real8,
    read_layout,
    write_gds,
    write_solution_gds,
)


@pytest.fixture()
def square() -> Polygon:
    return Polygon([(0, 0), (100, 0), (100, 60), (0, 60)])


class TestReal8:
    def test_zero(self):
        assert _gds_real8(0.0) == b"\x00" * 8

    def test_known_value_1e_minus_9(self):
        """1e-9 (the metre db unit) must match the canonical encoding."""
        encoded = _gds_real8(1e-9)
        # Decode: sign/exponent byte + 7-byte mantissa.
        first = encoded[0]
        mantissa = int.from_bytes(encoded[1:], "big") / float(1 << 56)
        value = mantissa * 16.0 ** (first - 64)
        assert value == pytest.approx(1e-9, rel=1e-12)

    def test_sign(self):
        assert _gds_real8(-1.0)[0] & 0x80

    @pytest.mark.parametrize("value", [1.0, 0.001, 123456.789, 2.5e-10])
    def test_roundtrip_decode(self, value):
        encoded = _gds_real8(value)
        first = encoded[0]
        mantissa = int.from_bytes(encoded[1:], "big") / float(1 << 56)
        decoded = mantissa * 16.0 ** ((first & 0x7F) - 64)
        assert decoded == pytest.approx(value, rel=1e-12)


class TestRoundtrip:
    def test_single_polygon(self, square, tmp_path):
        cell = GdsCell(name="TOP", polygons=[(TARGET_LAYER, square)])
        path = tmp_path / "clip.gds"
        write_gds(cell, path)
        loaded = read_layout(path).top_cell
        assert loaded.name == "TOP"
        assert loaded.targets == [square]

    def test_solution_convention(self, square, tmp_path):
        shots = [Rect(0, 0, 50, 60), Rect(45, 0, 100, 60)]
        path = tmp_path / "sol.gds"
        write_solution_gds(square, shots, path, cell_name="CLIP1")
        loaded = read_layout(path).top_cell
        assert loaded.name == "CLIP1"
        assert loaded.targets == [square]
        assert loaded.shots == shots

    def test_traced_ilt_polygon_roundtrip(self, blob_shape, tmp_path):
        """A real many-vertex traced contour survives the roundtrip."""
        path = tmp_path / "ilt.gds"
        write_solution_gds(blob_shape.polygon, [], path)
        loaded = read_layout(path).top_cell
        assert loaded.targets[0] == blob_shape.polygon

    def test_multiple_layers_kept_apart(self, square, tmp_path):
        inner = Polygon([(10, 10), (20, 10), (20, 20), (10, 20)])
        cell = GdsCell(
            name="X",
            polygons=[(TARGET_LAYER, square), (SHOT_LAYER, inner), (7, inner)],
        )
        path = tmp_path / "multi.gds"
        write_gds(cell, path)
        loaded = read_layout(path).top_cell
        assert len(loaded.targets) == 1
        assert len(loaded.shots) == 1
        assert len(loaded.on_layer(7)) == 1


class TestErrors:
    def test_unsupported_record_rejected(self, tmp_path):
        path = tmp_path / "bad.gds"
        # A PATH element (0x0900) is outside the supported subset.
        path.write_bytes(struct.pack(">HH", 4, 0x0900))
        with pytest.raises(GdsError):
            read_layout(path)

    def test_truncated_file(self, tmp_path, square):
        path = tmp_path / "trunc.gds"
        write_gds(GdsCell("T", [(1, square)]), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(GdsError):
            read_layout(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.gds"
        path.write_bytes(b"")
        with pytest.raises(GdsError):
            read_layout(path)

    def test_boundary_without_layer(self, tmp_path):
        from repro.mask.gds import _BOUNDARY, _ENDEL, _XY, _record, _xy_payload

        payload = (
            _record(0x0502, struct.pack(">12h", *([0] * 12)))  # BGNSTR
            + _record(0x0606, b"AB")  # STRNAME
            + _record(_BOUNDARY)
            + _record(_XY, _xy_payload([(0, 0), (1, 0), (1, 1), (0, 0)]))
            + _record(_ENDEL)
        )
        path = tmp_path / "nolayer.gds"
        path.write_bytes(payload)
        with pytest.raises(GdsError):
            read_layout(path)
