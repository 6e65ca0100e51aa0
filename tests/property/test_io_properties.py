"""Hypothesis property tests for the serialization layers (JSON + GDSII)."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.mask.gds import GdsCell, _gds_real8, read_layout, write_gds
from repro.mask.io import (
    polygon_from_dict,
    polygon_to_dict,
    rect_from_list,
    rect_to_list,
)

finite_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def simple_polygons(draw) -> Polygon:
    """Star-shaped polygons around a centre — always simple."""
    import math

    n = draw(st.integers(min_value=3, max_value=12))
    cx = draw(st.floats(-1000, 1000, allow_nan=False))
    cy = draw(st.floats(-1000, 1000, allow_nan=False))
    pts = []
    for k in range(n):
        radius = draw(st.floats(min_value=1.0, max_value=500.0))
        angle = 2.0 * math.pi * k / n
        pts.append(Point(cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    return Polygon(pts)


@st.composite
def integer_polygons(draw) -> Polygon:
    """Integer-coordinate star polygons (GDSII stores int32 nm)."""
    import math

    n = draw(st.integers(min_value=3, max_value=10))
    pts = []
    for k in range(n):
        radius = draw(st.integers(min_value=5, max_value=5000))
        angle = 2.0 * math.pi * k / n
        pts.append(
            Point(round(radius * math.cos(angle)), round(radius * math.sin(angle)))
        )
    try:
        return Polygon(pts)
    except ValueError:
        return Polygon([(0, 0), (10, 0), (10, 10)])


class TestJsonRoundtrips:
    @given(simple_polygons())
    def test_polygon_roundtrip_exact(self, polygon):
        assert polygon_from_dict(polygon_to_dict(polygon)) == polygon

    @given(finite_coords, finite_coords, st.floats(0, 1e5, allow_nan=False),
           st.floats(0, 1e5, allow_nan=False))
    def test_rect_roundtrip_exact(self, x, y, w, h):
        rect = Rect(x, y, x + w, y + h)
        assert rect_from_list(rect_to_list(rect)) == rect


class TestGdsReal8:
    @given(st.floats(min_value=1e-12, max_value=1e12, allow_nan=False))
    def test_real8_decodes_to_input(self, value):
        encoded = _gds_real8(value)
        first = encoded[0]
        mantissa = int.from_bytes(encoded[1:], "big") / float(1 << 56)
        decoded = mantissa * 16.0 ** ((first & 0x7F) - 64)
        assert abs(decoded - value) <= 1e-12 * value

    @given(st.floats(min_value=1e-12, max_value=1e12, allow_nan=False))
    def test_real8_length_and_format(self, value):
        encoded = _gds_real8(value)
        assert len(encoded) == 8
        # Positive numbers have the sign bit clear.
        assert not (encoded[0] & 0x80)


class TestGdsRoundtrips:
    @given(polygons=st.lists(integer_polygons(), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_cell_roundtrip(self, tmp_path_factory, polygons):
        tmp = tmp_path_factory.mktemp("gds")
        cell = GdsCell(
            name="T", polygons=[(1 + i % 3, p) for i, p in enumerate(polygons)]
        )
        path = tmp / "cell.gds"
        write_gds(cell, path)
        loaded = read_layout(path).top_cell
        assert loaded.name == "T"
        assert len(loaded.polygons) == len(cell.polygons)
        for (layer_a, poly_a), (layer_b, poly_b) in zip(
            cell.polygons, loaded.polygons
        ):
            assert layer_a == layer_b
            assert poly_a == poly_b

    @given(polygon=integer_polygons())
    @settings(max_examples=25, deadline=None)
    def test_every_record_length_even(self, tmp_path_factory, polygon):
        tmp = tmp_path_factory.mktemp("gds")
        path = tmp / "c.gds"
        write_gds(GdsCell("C", [(1, polygon)]), path)
        data = path.read_bytes()
        offset = 0
        while offset < len(data):
            length, _ = struct.unpack(">HH", data[offset : offset + 4])
            assert length % 2 == 0
            offset += length
        assert offset == len(data)


class TestGdsRobustness:
    @given(blob=st.binary(min_size=0, max_size=400))
    @settings(max_examples=150, deadline=None)
    def test_fuzz_never_crashes(self, tmp_path_factory, blob):
        """Arbitrary bytes either parse or raise GdsError — never a bare
        struct.error / IndexError / UnicodeDecodeError."""
        from repro.mask.gds import GdsError

        tmp = tmp_path_factory.mktemp("fuzz")
        path = tmp / "fuzz.gds"
        path.write_bytes(blob)
        try:
            read_layout(path).flatten()
        except GdsError:
            pass

    @given(blob=st.binary(min_size=0, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_fuzz_after_valid_header(self, tmp_path_factory, blob):
        """Fuzz bytes appended to a valid prefix are also handled."""
        import struct as _struct

        from repro.mask.gds import GdsError

        prefix = _struct.pack(">HHh", 6, 0x0002, 600)  # HEADER record
        tmp = tmp_path_factory.mktemp("fuzz2")
        path = tmp / "fuzz.gds"
        path.write_bytes(prefix + blob)
        try:
            read_layout(path).flatten()
        except GdsError:
            pass
