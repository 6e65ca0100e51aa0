"""Minimal GDSII stream format reader/writer — hierarchy-aware.

GDSII is the de-facto interchange format for mask layout.  This module
implements the subset the MDP flow needs — a library of structures with
BOUNDARY elements for polygons and SREF/AREF structure references for
hierarchy — so clips, solutions and arrayed full-field layouts can
round-trip with real EDA tooling.

Supported records: HEADER, BGNLIB, LIBNAME, UNITS, BGNSTR, STRNAME,
BOUNDARY, LAYER, DATATYPE, XY, ENDEL, ENDSTR, ENDLIB, SREF, AREF,
SNAME, STRANS, MAG, ANGLE, COLROW.  Everything else is rejected loudly
rather than skipped silently.  Reference transforms are restricted to
the axis-parallel subgroup (rotations by multiples of 90° plus the
STRANS x-mirror, magnification 1) — the group under which shot
instantiation stays exact (:mod:`repro.geometry.transform`).

Reading returns a :class:`Layout` cell graph (:func:`read_layout`);
:meth:`Layout.flatten` resolves every placement into a single flat
:class:`GdsCell`.  Multi-structure files load fine: the top cell is the
structure no other structure references (first-declared wins when
several are unreferenced).

Layer convention used by this library:

* layer 1 — target mask polygons
* layer 2 — e-beam shots (axis-parallel rectangles)

Coordinates are stored in database units of 1 nm.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.transform import ROTATIONS, Transform

TARGET_LAYER = 1
SHOT_LAYER = 2

# GDSII record types (subset).
_HEADER = 0x0002
_BGNLIB = 0x0102
_LIBNAME = 0x0206
_UNITS = 0x0305
_BGNSTR = 0x0502
_STRNAME = 0x0606
_ENDSTR = 0x0700
_BOUNDARY = 0x0800
_SREF = 0x0A00
_AREF = 0x0B00
_LAYER = 0x0D02
_DATATYPE = 0x0E02
_XY = 0x1003
_ENDEL = 0x1100
_SNAME = 0x1206
_COLROW = 0x1302
_STRANS = 0x1A01
_MAG = 0x1B05
_ANGLE = 0x1C05
_ENDLIB = 0x0400

_KNOWN = {
    _HEADER, _BGNLIB, _LIBNAME, _UNITS, _BGNSTR, _STRNAME, _ENDSTR,
    _BOUNDARY, _SREF, _AREF, _LAYER, _DATATYPE, _XY, _ENDEL, _SNAME,
    _COLROW, _STRANS, _MAG, _ANGLE, _ENDLIB,
}

#: STRANS bit 0 (mask 0x8000): reflect about the x axis before rotating.
_STRANS_MIRROR = 0x8000

# A zeroed modification/access timestamp (12 int16 fields).
_NULL_TIME = (0,) * 12

#: Reference nesting deeper than this is treated as a cycle.
_MAX_DEPTH = 64


@dataclass(slots=True)
class GdsRef:
    """One structure reference: SREF (1×1) or AREF (cols×rows lattice).

    The referenced cell's content is mirrored/rotated per the STRANS
    conventions (:class:`~repro.geometry.transform.Transform`), then
    placed at ``origin`` — and, for arrays, repeated every ``col_vec``
    along columns and every ``row_vec`` along rows.
    """

    cell: str
    origin: tuple[float, float] = (0.0, 0.0)
    rotation: int = 0
    mirror_x: bool = False
    cols: int = 1
    rows: int = 1
    col_vec: tuple[float, float] = (0.0, 0.0)
    row_vec: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.rotation not in ROTATIONS:
            raise GdsError(
                f"reference rotation must be one of {ROTATIONS}, "
                f"got {self.rotation}"
            )
        if self.cols < 1 or self.rows < 1:
            raise GdsError("reference array needs cols >= 1 and rows >= 1")

    @classmethod
    def array(
        cls,
        cell: str,
        origin: tuple[float, float],
        cols: int,
        rows: int,
        col_pitch: float,
        row_pitch: float,
        rotation: int = 0,
        mirror_x: bool = False,
    ) -> "GdsRef":
        """Axis-aligned array: columns along +x, rows along +y."""
        return cls(
            cell=cell, origin=origin, rotation=rotation, mirror_x=mirror_x,
            cols=cols, rows=rows,
            col_vec=(col_pitch, 0.0), row_vec=(0.0, row_pitch),
        )

    @property
    def count(self) -> int:
        return self.cols * self.rows

    @property
    def is_array(self) -> bool:
        return self.cols > 1 or self.rows > 1

    def transforms(self) -> Iterator[tuple[str, Transform]]:
        """Per-element placement transforms, row-major, with a label.

        The label distinguishes array elements (``[row,col]``); a plain
        SREF yields one empty label.
        """
        ox, oy = self.origin
        for i in range(self.rows):
            for j in range(self.cols):
                label = f"[{i},{j}]" if self.is_array else ""
                yield label, Transform(
                    rotation=self.rotation,
                    mirror_x=self.mirror_x,
                    dx=ox + j * self.col_vec[0] + i * self.row_vec[0],
                    dy=oy + j * self.col_vec[1] + i * self.row_vec[1],
                )


@dataclass(slots=True)
class GdsCell:
    """One GDSII structure: named polygons per layer plus references."""

    name: str
    polygons: list[tuple[int, Polygon]] = field(default_factory=list)
    refs: list[GdsRef] = field(default_factory=list)

    def on_layer(self, layer: int) -> list[Polygon]:
        return [poly for lay, poly in self.polygons if lay == layer]

    @property
    def targets(self) -> list[Polygon]:
        return self.on_layer(TARGET_LAYER)

    @property
    def shots(self) -> list[Rect]:
        """Shot-layer polygons interpreted as their bounding rectangles."""
        return [poly.bounding_box() for poly in self.on_layer(SHOT_LAYER)]


class GdsError(ValueError):
    """Malformed or unsupported GDSII content."""


@dataclass(slots=True)
class Layout:
    """A GDSII library as a cell graph: structures plus their references.

    ``cells`` preserves declaration order; ``top`` names the root of the
    placement tree (the structure no other structure references).
    """

    cells: dict[str, GdsCell]
    top: str

    def __post_init__(self) -> None:
        if self.top not in self.cells:
            raise GdsError(f"top cell {self.top!r} is not in the layout")

    @property
    def top_cell(self) -> GdsCell:
        return self.cells[self.top]

    def placements(self) -> list[tuple[str, str, Transform]]:
        """Every cell visit of the placement tree, depth-first.

        Returns ``(path, cell_name, transform)`` triples: the cell's own
        polygons are placed under ``transform`` (composed down from the
        top).  The order is deterministic — a cell's own geometry first,
        then its references in declaration order, array elements
        row-major — and it is the order :meth:`flatten` and the
        hierarchy-aware fracture flow both use, so their outputs align
        element for element.
        """
        out: list[tuple[str, str, Transform]] = []
        self._walk(self.top, Transform.identity(), self.top, out, depth=0)
        return out

    def _walk(
        self,
        name: str,
        transform: Transform,
        path: str,
        out: list[tuple[str, str, Transform]],
        depth: int,
    ) -> None:
        if depth > _MAX_DEPTH:
            raise GdsError(
                f"structure references nest deeper than {_MAX_DEPTH} "
                f"at {path!r} — circular reference?"
            )
        cell = self.cells.get(name)
        if cell is None:
            raise GdsError(f"reference to unknown structure {name!r}")
        out.append((path, name, transform))
        for k, ref in enumerate(cell.refs):
            for label, element in ref.transforms():
                self._walk(
                    ref.cell,
                    transform.compose(element),
                    f"{path}/{ref.cell}@{k}{label}",
                    out,
                    depth + 1,
                )

    def flatten(self, name: str | None = None) -> GdsCell:
        """Resolve every placement into one flat cell.

        Each visited cell's polygons are transformed into the top frame;
        an unreferenced single-structure layout flattens to (a copy of)
        that structure unchanged.
        """
        flat = GdsCell(name=name if name is not None else self.top)
        for _path, cell_name, transform in self.placements():
            for layer, polygon in self.cells[cell_name].polygons:
                if transform.is_identity:
                    flat.polygons.append((layer, polygon))
                else:
                    flat.polygons.append(
                        (layer, transform.apply_polygon(polygon))
                    )
        return flat

    def instance_count(self) -> int:
        """Number of cell visits in the fully expanded placement tree."""
        return len(self.placements())


# -- writing ----------------------------------------------------------------


def _record(rtype: int, payload: bytes = b"") -> bytes:
    length = 4 + len(payload)
    if length % 2:
        raise GdsError("odd record length")
    return struct.pack(">HH", length, rtype) + payload


def _ascii(text: str) -> bytes:
    data = text.encode("ascii")
    if len(data) % 2:
        data += b"\x00"
    return data


def _gds_real8(value: float) -> bytes:
    """Excess-64 base-16 floating point, the GDSII 8-byte real."""
    if value == 0.0:
        return b"\x00" * 8
    sign = 0
    if value < 0.0:
        sign = 0x80
        value = -value
    exponent = 64
    mantissa = value
    while mantissa >= 1.0:
        mantissa /= 16.0
        exponent += 1
    while mantissa < 1.0 / 16.0:
        mantissa *= 16.0
        exponent -= 1
    if not 0 <= exponent <= 127:
        raise GdsError(f"real8 exponent out of range for {value}")
    mantissa_bits = int(mantissa * (1 << 56))
    return struct.pack(">B7s", sign | exponent, mantissa_bits.to_bytes(7, "big"))


def _parse_real8(payload: bytes) -> float:
    """Decode one GDSII 8-byte real (inverse of :func:`_gds_real8`)."""
    if len(payload) != 8:
        raise GdsError(f"real8 payload must be 8 bytes, got {len(payload)}")
    first = payload[0]
    mantissa = int.from_bytes(payload[1:], "big") / float(1 << 56)
    value = mantissa * 16.0 ** ((first & 0x7F) - 64)
    return -value if first & 0x80 else value


def _xy_payload(points: list[tuple[int, int]]) -> bytes:
    return b"".join(struct.pack(">ii", x, y) for x, y in points)


def _int_xy(x: float, y: float) -> tuple[int, int]:
    return (round(x), round(y))


def _strans_records(rotation: int, mirror_x: bool) -> list[bytes]:
    """STRANS (+ ANGLE) records for a reference, empty when untransformed."""
    if not mirror_x and rotation == 0:
        return []
    chunks = [
        _record(
            _STRANS,
            struct.pack(">H", _STRANS_MIRROR if mirror_x else 0),
        )
    ]
    if rotation:
        chunks.append(_record(_ANGLE, _gds_real8(float(rotation))))
    return chunks


def _cell_chunks(cell: GdsCell) -> list[bytes]:
    """All records of one structure, BGNSTR through ENDSTR."""
    chunks = [
        _record(_BGNSTR, struct.pack(">12h", *_NULL_TIME)),
        _record(_STRNAME, _ascii(cell.name)),
    ]
    for layer, polygon in cell.polygons:
        points = [_int_xy(p.x, p.y) for p in polygon.vertices]
        points.append(points[0])  # GDSII closes boundaries explicitly
        chunks += [
            _record(_BOUNDARY),
            _record(_LAYER, struct.pack(">h", layer)),
            _record(_DATATYPE, struct.pack(">h", 0)),
            _record(_XY, _xy_payload(points)),
            _record(_ENDEL),
        ]
    for ref in cell.refs:
        if not 1 <= ref.cols <= 32767 or not 1 <= ref.rows <= 32767:
            raise GdsError(
                f"array dimensions {ref.cols}x{ref.rows} out of range"
            )
        chunks.append(_record(_AREF if ref.is_array else _SREF))
        chunks.append(_record(_SNAME, _ascii(ref.cell)))
        chunks += _strans_records(ref.rotation, ref.mirror_x)
        ox, oy = ref.origin
        if ref.is_array:
            chunks.append(
                _record(_COLROW, struct.pack(">hh", ref.cols, ref.rows))
            )
            points = [
                _int_xy(ox, oy),
                _int_xy(
                    ox + ref.cols * ref.col_vec[0],
                    oy + ref.cols * ref.col_vec[1],
                ),
                _int_xy(
                    ox + ref.rows * ref.row_vec[0],
                    oy + ref.rows * ref.row_vec[1],
                ),
            ]
        else:
            points = [_int_xy(ox, oy)]
        chunks.append(_record(_XY, _xy_payload(points)))
        chunks.append(_record(_ENDEL))
    chunks.append(_record(_ENDSTR))
    return chunks


def _library_chunks(library_name: str, db_unit_m: float) -> list[bytes]:
    return [
        _record(_HEADER, struct.pack(">h", 600)),
        _record(_BGNLIB, struct.pack(">12h", *_NULL_TIME)),
        _record(_LIBNAME, _ascii(library_name)),
        # UNITS: db unit in user units (1e-3 um per nm), db unit in metres.
        _record(_UNITS, _gds_real8(1e-3) + _gds_real8(db_unit_m)),
    ]


def write_gds(
    cell: GdsCell,
    path: str | Path,
    library_name: str = "REPRO",
    db_unit_m: float = 1e-9,
) -> None:
    """Write one cell to a GDSII stream file (1 nm database units)."""
    chunks = _library_chunks(library_name, db_unit_m)
    chunks += _cell_chunks(cell)
    chunks.append(_record(_ENDLIB))
    Path(path).write_bytes(b"".join(chunks))


def write_layout(
    layout: Layout,
    path: str | Path,
    library_name: str = "REPRO",
    db_unit_m: float = 1e-9,
) -> None:
    """Write a full cell graph — structures plus SREF/AREF references."""
    chunks = _library_chunks(library_name, db_unit_m)
    for cell in layout.cells.values():
        chunks += _cell_chunks(cell)
    chunks.append(_record(_ENDLIB))
    Path(path).write_bytes(b"".join(chunks))


def write_solution_gds(
    target: Polygon,
    shots: list[Rect],
    path: str | Path,
    cell_name: str = "CLIP",
) -> None:
    """Target on layer 1, shots on layer 2 — the library's convention."""
    cell = GdsCell(name=cell_name)
    cell.polygons.append((TARGET_LAYER, target))
    for shot in shots:
        cell.polygons.append((SHOT_LAYER, Polygon.from_rect(shot)))
    write_gds(cell, path)


# -- reading -----------------------------------------------------------------


def read_layout(path: str | Path) -> Layout:
    """Read a GDSII stream file into a :class:`Layout` cell graph.

    Malformed input of any kind raises :class:`GdsError` — never a bare
    ``struct.error`` or an index error.
    """
    data = Path(path).read_bytes()
    try:
        return _parse_layout(data)
    except GdsError:
        raise
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise GdsError(f"malformed GDSII stream: {exc}") from exc


class _ElementState:
    """Accumulates the records of one element until its ENDEL."""

    __slots__ = (
        "kind", "layer", "points", "sname", "mirror_x", "rotation",
        "mag", "colrow",
    )

    def __init__(self, kind: str):
        self.kind = kind  # "boundary" | "sref" | "aref"
        self.layer: int | None = None
        self.points: list[tuple[float, float]] | None = None
        self.sname: str | None = None
        self.mirror_x = False
        self.rotation = 0
        self.mag = 1.0
        self.colrow: tuple[int, int] | None = None


def _close_boundary(element: _ElementState, cell: GdsCell) -> None:
    if element.layer is None or element.points is None:
        raise GdsError("BOUNDARY element missing LAYER or XY")
    cell.polygons.append(
        (element.layer, Polygon(Point(x, y) for x, y in element.points))
    )


def _close_ref(element: _ElementState, cell: GdsCell) -> None:
    if element.sname is None or element.points is None:
        raise GdsError(f"{element.kind.upper()} element missing SNAME or XY")
    if element.mag != 1.0:
        raise GdsError(
            f"magnification {element.mag} is not supported (must be 1)"
        )
    if element.kind == "sref":
        if len(element.points) != 1:
            raise GdsError("SREF XY must hold exactly one point")
        cell.refs.append(
            GdsRef(
                cell=element.sname,
                origin=element.points[0],
                rotation=element.rotation,
                mirror_x=element.mirror_x,
            )
        )
        return
    if element.colrow is None:
        raise GdsError("AREF element missing COLROW")
    if len(element.points) != 3:
        raise GdsError("AREF XY must hold exactly three points")
    cols, rows = element.colrow
    if cols < 1 or rows < 1:
        raise GdsError(f"AREF COLROW out of range: {cols}x{rows}")
    (ox, oy), (cx, cy), (rx, ry) = element.points
    cell.refs.append(
        GdsRef(
            cell=element.sname,
            origin=(ox, oy),
            rotation=element.rotation,
            mirror_x=element.mirror_x,
            cols=cols,
            rows=rows,
            col_vec=((cx - ox) / cols, (cy - oy) / cols),
            row_vec=((rx - ox) / rows, (ry - oy) / rows),
        )
    )


def _parse_layout(data: bytes) -> Layout:
    offset = 0
    cells: dict[str, GdsCell] = {}
    cell: GdsCell | None = None
    element: _ElementState | None = None

    while offset < len(data):
        if offset + 4 > len(data):
            raise GdsError("truncated record header")
        length, rtype = struct.unpack(">HH", data[offset : offset + 4])
        if length < 4 or offset + length > len(data):
            raise GdsError(f"bad record length {length} at offset {offset}")
        payload = data[offset + 4 : offset + length]
        offset += length

        if rtype not in _KNOWN:
            raise GdsError(f"unsupported GDSII record 0x{rtype:04X}")
        if rtype == _BGNSTR:
            if cell is not None:
                raise GdsError("BGNSTR inside an open structure")
            cell = GdsCell(name="")
        elif rtype == _STRNAME and cell is not None:
            name = payload.rstrip(b"\x00").decode("ascii")
            if name in cells:
                raise GdsError(f"duplicate structure name {name!r}")
            cell.name = name
        elif rtype == _ENDSTR:
            if cell is None:
                raise GdsError("ENDSTR without BGNSTR")
            if not cell.name:
                raise GdsError("structure missing STRNAME")
            cells[cell.name] = cell
            cell = None
        elif rtype == _BOUNDARY:
            element = _ElementState("boundary")
        elif rtype == _SREF:
            element = _ElementState("sref")
        elif rtype == _AREF:
            element = _ElementState("aref")
        elif rtype == _LAYER and element is not None:
            (element.layer,) = struct.unpack(">h", payload)
        elif rtype == _SNAME and element is not None:
            element.sname = payload.rstrip(b"\x00").decode("ascii")
        elif rtype == _STRANS and element is not None:
            (bits,) = struct.unpack(">H", payload)
            if bits & ~_STRANS_MIRROR:
                raise GdsError(
                    f"unsupported STRANS bits 0x{bits:04X} "
                    "(absolute magnification/angle are not supported)"
                )
            element.mirror_x = bool(bits & _STRANS_MIRROR)
        elif rtype == _MAG and element is not None:
            element.mag = _parse_real8(payload)
        elif rtype == _ANGLE and element is not None:
            angle = _parse_real8(payload)
            rotation = int(round(angle)) % 360
            if rotation not in ROTATIONS or rotation != angle % 360.0:
                raise GdsError(
                    f"rotation {angle}° is outside the supported "
                    f"{ROTATIONS} subgroup"
                )
            element.rotation = rotation
        elif rtype == _COLROW and element is not None:
            element.colrow = struct.unpack(">hh", payload)
        elif rtype == _XY and element is not None:
            count = len(payload) // 8
            coords = struct.unpack(f">{2 * count}i", payload)
            element.points = [
                (float(coords[2 * i]), float(coords[2 * i + 1]))
                for i in range(count)
            ]
        elif rtype == _ENDEL:
            if element is None or cell is None:
                raise GdsError("ENDEL outside an element")
            if element.kind == "boundary":
                _close_boundary(element, cell)
            else:
                _close_ref(element, cell)
            element = None
        elif rtype == _ENDLIB:
            break
    if cell is not None:
        raise GdsError("structure not closed before ENDLIB")
    if not cells:
        raise GdsError("no structure found")
    return Layout(cells=cells, top=_pick_top(cells))


def _pick_top(cells: dict[str, GdsCell]) -> str:
    """The top cell: a structure never referenced by another structure.

    Multi-structure files without references are legal — every structure
    is then a candidate and the first declared wins (deterministic, and
    matches how single-structure files have always loaded).
    """
    referenced = {
        ref.cell for cell in cells.values() for ref in cell.refs
    }
    for name in cells:
        if name not in referenced:
            return name
    raise GdsError(
        "no top structure: every structure is referenced (circular "
        "references?)"
    )
