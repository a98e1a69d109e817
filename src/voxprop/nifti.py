"""Bit-exact single-file NIfTI-1 reader/writer for a deliberately small subset.

Supported files are uncompressed little-endian ``.nii`` (magic ``n+1\\0``),
3D only, with datatype uint8, int16, float32, or uint16. Nothing else:
no ``.hdr``/``.img`` pairs, no gzip, no NIfTI-2, no time series.

The 348-byte header is one numpy record whose fields carry the NIfTI-1
names in on-disk order. The writer is canonical: a given volume always
produces the same bytes (fixed header defaults, qform code 0, sform code 1
with a diagonal affine built from spacing and origin, vox_offset 352, zero
extension pad). This makes golden-file tests and write-read-write byte
identity possible. The writer raises ValueError for geometry that float32
cannot hold: a spacing that rounds to 0 or inf, an origin that rounds to inf.

Element kinds map to file datatypes as

=============  ==========  =======
kind           datatype    bitpix
=============  ==========  =======
intensity      16 float32  32
probability    16 float32  32
label          512 uint16  16
mask           2 uint8     8
=============  ==========  =======
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BadMagic,
    DimMismatch,
    IoFailure,
    PathCountMismatch,
    TruncatedFile,
    UnsupportedDatatype,
)
from .volume import ElementKind, LabelSet, MultiLabelAnnotation, Volume3D

log = logging.getLogger(__name__)

HEADER_SIZE = 348
DATA_OFFSET = 352  # header + 4-byte extension indicator

MAGIC_SINGLE = b"n+1\x00"

# little-endian NIfTI-1 header, fields in on-disk order; the arrays hold the
# numbered fields (intent_p1..p3, quatern_b..d, qoffset_x..z, srow_x..z), and
# magic is raw bytes because an "S4" field would drop its trailing NUL
_HDR = np.dtype([
    ("sizeof_hdr", "<i4"), ("data_type", "S10"), ("db_name", "S18"),
    ("extents", "<i4"), ("session_error", "<i2"), ("regular", "u1"), ("dim_info", "u1"),
    ("dim", "<i2", 8), ("intent_p", "<f4", 3), ("intent_code", "<i2"),
    ("datatype", "<i2"), ("bitpix", "<i2"), ("slice_start", "<i2"),
    ("pixdim", "<f4", 8), ("vox_offset", "<f4"), ("scl_slope", "<f4"), ("scl_inter", "<f4"),
    ("slice_end", "<i2"), ("slice_code", "u1"), ("xyzt_units", "u1"),
    ("cal_max", "<f4"), ("cal_min", "<f4"), ("slice_duration", "<f4"), ("toffset", "<f4"),
    ("glmax", "<i4"), ("glmin", "<i4"), ("descrip", "S80"), ("aux_file", "S24"),
    ("qform_code", "<i2"), ("sform_code", "<i2"),
    ("quatern", "<f4", 3), ("qoffset", "<f4", 3), ("srow", "<f4", (3, 4)),
    ("intent_name", "S16"), ("magic", "V4"),
])
assert _HDR.itemsize == HEADER_SIZE

DT_UINT8 = 2
DT_INT16 = 4
DT_FLOAT32 = 16
DT_UINT16 = 512

_SUPPORTED_DTYPES = {
    DT_UINT8: np.dtype("u1"),
    DT_INT16: np.dtype("<i2"),
    DT_FLOAT32: np.dtype("<f4"),
    DT_UINT16: np.dtype("<u2"),
}

_KIND_DATATYPE = {
    "intensity": DT_FLOAT32,
    "probability": DT_FLOAT32,
    "label": DT_UINT16,
    "mask": DT_UINT8,
}

_XYZT_UNITS_MM = 2


@dataclass(frozen=True)
class NiftiHeader:
    """Decoded subset of a NIfTI-1 header."""

    dim: tuple[int, ...]          # dim[0..7]
    datatype: int
    bitpix: int
    pixdim: tuple[float, ...]     # pixdim[0..7]
    vox_offset: float
    scl_slope: float
    scl_inter: float
    srow_x: tuple[float, float, float, float]
    srow_y: tuple[float, float, float, float]
    srow_z: tuple[float, float, float, float]
    qform_code: int
    sform_code: int
    magic: bytes

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.dim[1], self.dim[2], self.dim[3])

    @property
    def spacing(self) -> tuple[float, float, float]:
        return (self.pixdim[1], self.pixdim[2], self.pixdim[3])

    @property
    def origin(self) -> tuple[float, float, float]:
        return (self.srow_x[3], self.srow_y[3], self.srow_z[3])


def _unpack_header(buf: bytes) -> NiftiHeader:
    if len(buf) < HEADER_SIZE:
        raise TruncatedFile(f"file has {len(buf)} bytes, header needs {HEADER_SIZE}")
    h = np.frombuffer(buf, _HDR, count=1)[0]
    if h["sizeof_hdr"] != HEADER_SIZE:
        raise BadMagic(
            f"sizeof_hdr is {h['sizeof_hdr']}, not {HEADER_SIZE}; "
            "not a little-endian NIfTI-1 file"
        )
    srow = h["srow"].tolist()
    return NiftiHeader(
        dim=tuple(h["dim"].tolist()),
        datatype=int(h["datatype"]),
        bitpix=int(h["bitpix"]),
        pixdim=tuple(h["pixdim"].tolist()),
        vox_offset=float(h["vox_offset"]),
        scl_slope=float(h["scl_slope"]),
        scl_inter=float(h["scl_inter"]),
        srow_x=tuple(srow[0]),
        srow_y=tuple(srow[1]),
        srow_z=tuple(srow[2]),
        qform_code=int(h["qform_code"]),
        sform_code=int(h["sform_code"]),
        magic=h["magic"].tobytes(),
    )


def _validate_header(hdr: NiftiHeader) -> None:
    if hdr.magic != MAGIC_SINGLE:
        raise BadMagic(f"magic {hdr.magic!r}; only single-file 'n+1' is supported")
    if hdr.datatype not in _SUPPORTED_DTYPES:
        raise UnsupportedDatatype(
            f"datatype code {hdr.datatype}; supported: {sorted(_SUPPORTED_DTYPES)}"
        )
    if hdr.bitpix != 8 * _SUPPORTED_DTYPES[hdr.datatype].itemsize:
        raise UnsupportedDatatype(
            f"bitpix {hdr.bitpix} inconsistent with datatype {hdr.datatype}"
        )
    if hdr.dim[0] != 3:
        raise DimMismatch(f"dim[0] is {hdr.dim[0]}; only 3D volumes are supported")
    if min(hdr.dims) < 1:
        raise DimMismatch(f"non-positive dims {hdr.dims}")
    if any(p <= 0 for p in hdr.spacing):  # NaN passes; Volume3D rejects it
        raise BadMagic(f"non-positive voxel spacing pixdim[1:4] = {hdr.spacing}")
    if not hdr.vox_offset.is_integer():  # also rejects NaN and inf
        raise BadMagic(f"vox_offset {hdr.vox_offset} is not a whole byte offset")
    if hdr.vox_offset < DATA_OFFSET:
        raise BadMagic(f"vox_offset {hdr.vox_offset} < {DATA_OFFSET}")
    if not np.isfinite((hdr.scl_slope, hdr.scl_inter)).all():
        raise UnsupportedDatatype(
            f"non-finite scaling: scl_slope {hdr.scl_slope}, scl_inter {hdr.scl_inter}"
        )


def read_header(path) -> NiftiHeader:
    """Read and validate just the header of a NIfTI-1 file."""
    with open(path, "rb") as fp:
        buf = fp.read(HEADER_SIZE)
    hdr = _unpack_header(buf)
    _validate_header(hdr)
    return hdr


def read_volume(path, expected_kind: ElementKind) -> Volume3D:
    """Read a single-file NIfTI-1 volume as the given element kind.

    Intensity and probability volumes are rescaled by scl_slope/scl_inter
    when slope is nonzero; label and mask volumes are read raw (float32
    files cannot be labels or masks). Spacing comes from pixdim, the origin
    from the sform translation column; a non-diagonal sform rotation is
    ignored with a logged warning.

    Raises
    ------
    BadMagic, UnsupportedDatatype, TruncatedFile, DimMismatch
    """
    buf = Path(path).read_bytes()
    hdr = _unpack_header(buf)
    _validate_header(hdr)

    dims = hdr.dims
    n = dims[0] * dims[1] * dims[2]
    dtype = _SUPPORTED_DTYPES[hdr.datatype]
    offset = int(hdr.vox_offset)
    need = offset + n * dtype.itemsize
    if len(buf) < need:
        raise TruncatedFile(f"file has {len(buf)} bytes, needs {need} for {dims}")

    raw = np.frombuffer(buf, dtype=dtype, count=n, offset=offset)
    raw = raw.reshape(dims, order="F")

    off_diag = (
        hdr.srow_x[1], hdr.srow_x[2],
        hdr.srow_y[0], hdr.srow_y[2],
        hdr.srow_z[0], hdr.srow_z[1],
    )
    if any(v != 0.0 for v in off_diag):
        log.warning("%s: non-diagonal sform; rotation ignored", path)

    spacing = hdr.spacing
    origin = hdr.origin

    if expected_kind in ("intensity", "probability"):
        data = raw.astype(np.float64)
        if hdr.scl_slope != 0.0 and (hdr.scl_slope, hdr.scl_inter) != (1.0, 0.0):
            data = data * hdr.scl_slope + hdr.scl_inter
        return Volume3D(data, expected_kind, spacing, origin)

    if hdr.datatype == DT_FLOAT32:
        raise UnsupportedDatatype(
            f"float32 data cannot be read as {expected_kind!r}"
        )
    if expected_kind == "label":
        if raw.dtype == np.int16 and raw.size and raw.min() < 0:
            raise ValueError(f"{path}: negative values cannot be label ids")
        return Volume3D(raw.astype(np.uint16), "label", spacing, origin)
    # mask
    if not np.isin(raw, (0, 1)).all():
        raise ValueError(f"{path}: mask file contains values other than 0/1")
    return Volume3D(raw != 0, "mask", spacing, origin)


def write_volume(v: Volume3D, path) -> None:
    """Write a volume as a canonical single-file NIfTI-1.

    Layout: 348-byte header, 4 zero pad bytes, raw x-fastest voxel data at
    offset 352. Intensity/probability volumes are stored as float32 with
    scl_slope 1 and scl_inter 0.

    Raises
    ------
    ValueError
        Before the file is opened, if a dim does not fit in int16, or if a
        spacing rounds to 0 or inf in float32 or an origin to inf.
    IoFailure
        If the file cannot be created or written.
    """
    dims = v.dims
    if max(dims) > np.iinfo(np.int16).max:
        raise ValueError(f"dims {dims} do not fit in the int16 header fields")
    datatype = _KIND_DATATYPE[v.kind]
    h = np.zeros((), _HDR)  # every field not set below is zero
    with np.errstate(over="ignore"):  # an overflow to inf is rejected below
        h["pixdim"][:4] = (1.0, *v.spacing)
        h["srow"][:, :3] = np.diag(v.spacing)
        h["srow"][:, 3] = v.origin
    if not (np.isfinite(h["srow"]).all() and h["pixdim"][1:4].all()):
        raise ValueError(f"spacing {v.spacing} or origin {v.origin} does not fit in float32")
    h["sizeof_hdr"] = HEADER_SIZE
    h["dim"] = (3, *dims, 1, 1, 1, 1)
    h["datatype"] = datatype
    h["bitpix"] = 8 * _SUPPORTED_DTYPES[datatype].itemsize
    h["vox_offset"] = DATA_OFFSET
    h["scl_slope"] = 1.0
    h["xyzt_units"] = _XYZT_UNITS_MM
    h["sform_code"] = 1
    h["magic"] = MAGIC_SINGLE
    payload = v.data.astype(_SUPPORTED_DTYPES[datatype]).tobytes(order="F")
    try:
        with open(path, "wb") as fp:
            fp.write(h.tobytes())
            fp.write(b"\x00" * (DATA_OFFSET - HEADER_SIZE))
            fp.write(payload)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_annotation(paths: Sequence, labels: LabelSet) -> MultiLabelAnnotation:
    """Assemble a multi-label annotation from per-label binary mask files.

    `paths` must be ordered to match the label set entries. Overlapping
    masks are preserved as multi-label voxels. All files must share dims;
    differing affines only produce a logged warning.

    Raises
    ------
    PathCountMismatch, DimMismatch
    """
    paths = list(paths)
    if len(paths) != len(labels):
        raise PathCountMismatch(
            f"{len(paths)} mask files for {len(labels)} labels"
        )
    volumes = [read_volume(p, "mask") for p in paths]
    dims = volumes[0].dims
    for p, v in zip(paths[1:], volumes[1:]):
        if v.dims != dims:
            raise DimMismatch(f"{p}: dims {v.dims} differ from {dims}")
    first_geom = (volumes[0].spacing, volumes[0].origin)
    for p, v in zip(paths[1:], volumes[1:]):
        if (v.spacing, v.origin) != first_geom:
            log.warning("%s: affine differs from %s; using the first", p, paths[0])
    masks = np.stack([v.data for v in volumes])
    return MultiLabelAnnotation(labels, masks, volumes[0].spacing, volumes[0].origin)
