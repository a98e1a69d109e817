"""Bit-exact single-file NIfTI-1 reader/writer for a deliberately small subset.

Supported files are uncompressed little-endian ``.nii`` (magic ``n+1\\0``),
3D only, with datatype uint8, int16, float32, or uint16. Nothing else:
no ``.hdr``/``.img`` pairs, no gzip, no NIfTI-2, no time series.

The writer is canonical: a given volume always produces the same bytes
(fixed header defaults, qform code 0, sform code 1 with a diagonal affine
built from spacing and origin, vox_offset 352, zero extension pad). This
makes golden-file tests and write-read-write byte identity possible.

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
import struct
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

# little-endian NIfTI-1 header, fields in on-disk order
_HDR = struct.Struct(
    "<i10s18sihcc8h3fhhhh8ffffhBBffffii80s24shh3f3f4f4f4f16s4s"
)
assert _HDR.size == HEADER_SIZE

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
    f = _HDR.unpack_from(buf)
    sizeof_hdr = f[0]
    if sizeof_hdr != HEADER_SIZE:
        raise BadMagic(
            f"sizeof_hdr is {sizeof_hdr}, not {HEADER_SIZE}; "
            "not a little-endian NIfTI-1 file"
        )
    # unpacked field indices: 0 sizeof_hdr .. 6 dim_info, 7-14 dim[8],
    # 15-17 intent_p, 18 intent_code, 19 datatype, 20 bitpix, 21 slice_start,
    # 22-29 pixdim[8], 30 vox_offset, 31 scl_slope, 32 scl_inter,
    # 44 qform_code, 45 sform_code, 52-63 srow, 65 magic
    return NiftiHeader(
        dim=tuple(int(d) for d in f[7:15]),
        datatype=int(f[19]),
        bitpix=int(f[20]),
        pixdim=tuple(float(p) for p in f[22:30]),
        vox_offset=float(f[30]),
        scl_slope=float(f[31]),
        scl_inter=float(f[32]),
        srow_x=tuple(float(v) for v in f[52:56]),
        srow_y=tuple(float(v) for v in f[56:60]),
        srow_z=tuple(float(v) for v in f[60:64]),
        qform_code=int(f[44]),
        sform_code=int(f[45]),
        magic=f[65],
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
    IoFailure
        If the file cannot be created or written.
    """
    dims = v.dims
    if max(dims) > np.iinfo(np.int16).max:
        raise ValueError(f"dims {dims} do not fit in the int16 header fields")
    datatype = _KIND_DATATYPE[v.kind]
    sx, sy, sz = v.spacing
    ox, oy, oz = v.origin
    header = _HDR.pack(
        HEADER_SIZE,                      # sizeof_hdr
        b"", b"",                         # data_type, db_name (unused)
        0, 0, b"\x00", b"\x00",           # extents, session_error, regular, dim_info
        3, dims[0], dims[1], dims[2], 1, 1, 1, 1,   # dim[8]
        0.0, 0.0, 0.0,                    # intent_p1..p3
        0,                                # intent_code
        datatype,
        8 * _SUPPORTED_DTYPES[datatype].itemsize,  # bitpix
        0,                                # slice_start
        1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0,        # pixdim[8]
        float(DATA_OFFSET),               # vox_offset
        1.0, 0.0,                         # scl_slope, scl_inter
        0,                                # slice_end
        0,                                # slice_code
        _XYZT_UNITS_MM,                   # xyzt_units
        0.0, 0.0,                         # cal_max, cal_min
        0.0, 0.0,                         # slice_duration, toffset
        0, 0,                             # glmax, glmin
        b"", b"",                         # descrip, aux_file
        0, 1,                             # qform_code, sform_code
        0.0, 0.0, 0.0,                    # quatern_b, c, d
        0.0, 0.0, 0.0,                    # qoffset_x, y, z
        sx, 0.0, 0.0, ox,                 # srow_x
        0.0, sy, 0.0, oy,                 # srow_y
        0.0, 0.0, sz, oz,                 # srow_z
        b"",                              # intent_name
        MAGIC_SINGLE,
    )
    payload = v.data.astype(_SUPPORTED_DTYPES[datatype]).tobytes(order="F")
    try:
        with open(path, "wb") as fp:
            fp.write(header)
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
