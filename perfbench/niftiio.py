"""Minimal NIfTI-1 reader for checking the command-line outputs.

Independent of voxprop's reader: it parses only dim, datatype, vox_offset
and scl_slope/scl_inter from the 348-byte little-endian header.
"""

from __future__ import annotations

import struct

import numpy as np

_DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32, 512: np.uint16}


def read(path) -> np.ndarray:
    with open(path, "rb") as fp:
        buf = fp.read()
    if buf[344:348] != b"n+1\x00":
        raise ValueError(f"{path}: not a single-file NIfTI-1")
    dim = struct.unpack_from("<8h", buf, 40)
    datatype = struct.unpack_from("<h", buf, 70)[0]
    vox_offset, slope, inter = struct.unpack_from("<3f", buf, 108)
    dims = tuple(int(d) for d in dim[1:4])
    data = np.frombuffer(
        buf, dtype=np.dtype(_DTYPES[datatype]).newbyteorder("<"),
        count=dims[0] * dims[1] * dims[2], offset=int(vox_offset),
    ).reshape(dims, order="F")
    if datatype == 16:
        data = data.astype(np.float64)
        if slope != 0.0 and (slope, inter) != (1.0, 0.0):
            data = data * slope + inter
    return data
