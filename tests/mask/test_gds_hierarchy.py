"""Hierarchy-aware GDSII: SREF/AREF round-trips, multi-structure files,
and rejection of the records we deliberately do not support."""

import struct

import pytest

from repro.geometry.polygon import Polygon
from repro.geometry.transform import Transform
from repro.mask.gds import (
    GdsCell,
    GdsError,
    GdsRef,
    Layout,
    TARGET_LAYER,
    _gds_real8,
    _parse_real8,
    read_layout,
    write_gds,
    write_layout,
)


def unit_cell(name="UNIT"):
    return GdsCell(name=name, polygons=[
        (TARGET_LAYER, Polygon([(0, 0), (120, 0), (120, 40), (0, 40)])),
        (TARGET_LAYER, Polygon([(0, 60), (40, 60), (40, 120), (0, 120)])),
    ])


def demo_layout():
    top = GdsCell("TOP", refs=[
        GdsRef.array("UNIT", origin=(0.0, 0.0), cols=3, rows=2,
                     col_pitch=200.0, row_pitch=300.0),
        GdsRef("UNIT", origin=(900.0, 0.0), rotation=90),
        GdsRef("UNIT", origin=(900.0, 500.0), mirror_x=True),
    ])
    return Layout(cells={"UNIT": unit_cell(), "TOP": top}, top="TOP")


class TestParseReal8:
    @pytest.mark.parametrize(
        "value", [0.0, 1.0, -1.0, 90.0, 270.0, 1e-9, 123456.789, -2.5e-10]
    )
    def test_inverse_of_encoder(self, value):
        assert _parse_real8(_gds_real8(value)) == pytest.approx(
            value, rel=1e-12, abs=1e-300
        )

    def test_wrong_length_rejected(self):
        with pytest.raises(GdsError):
            _parse_real8(b"\x00" * 7)


class TestMultipleStructures:
    def test_multi_structure_no_refs_loads_first_as_top(self, tmp_path):
        """Regression: multi-structure files used to raise GdsError."""
        layout = Layout(
            cells={"A": unit_cell("A"), "B": unit_cell("B")}, top="A"
        )
        path = tmp_path / "multi.gds"
        write_layout(layout, path)
        loaded = read_layout(path)
        assert set(loaded.cells) == {"A", "B"}
        assert loaded.top == "A"
        # Flattening resolves the top structure alone.
        assert loaded.flatten().targets == unit_cell().targets

    def test_duplicate_structure_name_rejected(self, tmp_path):
        path = tmp_path / "dup.gds"
        write_layout(
            Layout(cells={"A": unit_cell("A")}, top="A"), path
        )
        data = path.read_bytes()
        # Replay the structure block (BGNSTR..ENDSTR) a second time.
        endlib = data[-4:]
        bgnstr = data.index(struct.pack(">HH", 28, 0x0502))
        path.write_bytes(data[:-4] + data[bgnstr:-4] + endlib)
        with pytest.raises(GdsError, match="duplicate structure"):
            read_layout(path)


class TestRefRoundtrip:
    def test_sref_aref_round_trip(self, tmp_path):
        layout = demo_layout()
        path = tmp_path / "hier.gds"
        write_layout(layout, path)
        loaded = read_layout(path)
        assert loaded.top == "TOP"
        assert loaded.cells["UNIT"].targets == unit_cell().targets
        refs = loaded.cells["TOP"].refs
        assert [r.cell for r in refs] == ["UNIT"] * 3
        aref, rot, mirror = refs
        assert (aref.cols, aref.rows) == (3, 2)
        assert aref.col_vec == (200.0, 0.0)
        assert aref.row_vec == (0.0, 300.0)
        assert rot.rotation == 90 and not rot.mirror_x
        assert mirror.mirror_x and mirror.rotation == 0
        assert loaded.instance_count() == layout.instance_count()

    def test_flatten_matches_in_memory_layout(self, tmp_path):
        layout = demo_layout()
        path = tmp_path / "hier.gds"
        write_layout(layout, path)
        assert read_layout(path).flatten().targets == layout.flatten().targets

    def test_flatten_places_every_target(self, tmp_path):
        layout = demo_layout()
        path = tmp_path / "hier.gds"
        write_layout(layout, path)
        flat = read_layout(path).flatten()
        # 8 placements x 2 target polygons each.
        assert len(flat.targets) == 16

    def test_aref_transforms_row_major(self):
        ref = GdsRef.array("U", origin=(10.0, 20.0), cols=2, rows=2,
                           col_pitch=100.0, row_pitch=50.0)
        labels = [label for label, _ in ref.transforms()]
        assert labels == ["[0,0]", "[0,1]", "[1,0]", "[1,1]"]
        offsets = [(t.dx, t.dy) for _, t in ref.transforms()]
        assert offsets == [
            (10.0, 20.0), (110.0, 20.0), (10.0, 70.0), (110.0, 70.0)
        ]

    def test_placement_paths_label_array_elements(self):
        layout = demo_layout()
        paths = [path for path, _, _ in layout.placements()]
        assert paths[0] == "TOP"
        assert "TOP/UNIT@0[0,0]" in paths
        assert "TOP/UNIT@0[1,2]" in paths
        assert "TOP/UNIT@1" in paths  # plain SREF: no element label

    def test_nested_references_compose(self, tmp_path):
        mid = GdsCell("MID", refs=[
            GdsRef("UNIT", origin=(50.0, 0.0), rotation=180),
        ])
        top = GdsCell("TOP2", refs=[
            GdsRef("MID", origin=(1000.0, 0.0), rotation=90),
        ])
        layout = Layout(
            cells={"UNIT": unit_cell(), "MID": mid, "TOP2": top}, top="TOP2"
        )
        path = tmp_path / "nested.gds"
        write_layout(layout, path)
        loaded = read_layout(path)
        expected = Transform(rotation=90, dx=1000.0).compose(
            Transform(rotation=180, dx=50.0)
        )
        transforms = {
            name: t for _, name, t in loaded.placements()
        }
        assert transforms["UNIT"] == expected
        assert loaded.flatten().targets == layout.flatten().targets


class TestRejection:
    def test_unknown_reference_rejected(self):
        layout = Layout(
            cells={"TOP": GdsCell("TOP", refs=[GdsRef("GHOST")])}, top="TOP"
        )
        with pytest.raises(GdsError, match="unknown structure"):
            layout.placements()

    def test_circular_reference_rejected(self):
        a = GdsCell("A", refs=[GdsRef("B")])
        b = GdsCell("B", refs=[GdsRef("A")])
        with pytest.raises(GdsError, match="circular"):
            Layout(cells={"A": a, "B": b, "TOP": GdsCell(
                "TOP", refs=[GdsRef("A")]
            )}, top="TOP").placements()

    def test_non_rectilinear_angle_rejected(self, tmp_path):
        path = tmp_path / "angle.gds"
        write_layout(demo_layout(), path)
        data = path.read_bytes()
        needle = _gds_real8(90.0)
        assert needle in data
        path.write_bytes(data.replace(needle, _gds_real8(45.0)))
        with pytest.raises(GdsError, match="45"):
            read_layout(path)

    def test_magnified_reference_rejected(self, tmp_path):
        path = tmp_path / "mag.gds"
        write_layout(demo_layout(), path)
        data = path.read_bytes()
        # Splice a MAG record after the SREF's SNAME record.
        sname = struct.pack(">HH", 8, 0x1206) + b"UNIT"
        mag = struct.pack(">HH", 12, 0x1B05) + _gds_real8(2.0)
        path.write_bytes(data.replace(sname, sname + mag, 1))
        with pytest.raises(GdsError, match="magnification"):
            read_layout(path)

    def test_absolute_strans_bits_rejected(self, tmp_path):
        path = tmp_path / "strans.gds"
        write_layout(demo_layout(), path)
        data = path.read_bytes()
        plain = struct.pack(">HH", 6, 0x1A01) + struct.pack(">H", 0x8000)
        weird = struct.pack(">HH", 6, 0x1A01) + struct.pack(">H", 0x8002)
        assert plain in data
        path.write_bytes(data.replace(plain, weird))
        with pytest.raises(GdsError, match="STRANS"):
            read_layout(path)

    def test_invalid_rotation_in_constructor(self):
        with pytest.raises(GdsError):
            GdsRef("U", rotation=45)

    def test_zero_array_dims_rejected(self):
        with pytest.raises(GdsError):
            GdsRef("U", cols=0, rows=2)
