"""Binary tensor snapshot files for bit-level regression.

Layout: magic b"SPAT", uint32 format version, uint32 element width in
bytes (4 or 8), uint32 rank, one uint32 extent per axis, then the values
row-major as little-endian IEEE floats.  All integers little-endian.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SPAT"
VERSION = 1

_WIDTH_TO_DTYPE = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def write_tensor(path, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    if array.dtype == np.float32:
        width = 4
    elif array.dtype == np.float64:
        width = 8
    else:
        raise ValueError(f"unsupported dtype {array.dtype}; use float32 or float64")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", VERSION, width, array.ndim))
        fh.write(struct.pack(f"<{array.ndim}I", *array.shape))
        fh.write(array.astype(_WIDTH_TO_DTYPE[width], copy=False).tobytes())


def read_tensor(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 16:
        raise ValueError(f"{path}: truncated header: {len(data)} bytes, need 16")
    version, width, rank = struct.unpack_from("<III", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if width not in _WIDTH_TO_DTYPE:
        raise ValueError(f"{path}: invalid element width {width}")
    offset = 16 + 4 * rank
    if len(data) < offset:
        raise ValueError(f"{path}: truncated header: {len(data)} bytes, rank {rank} needs {offset}")
    shape = struct.unpack_from(f"<{rank}I", data, 16)
    expected = math.prod(shape)
    payload = len(data) - offset
    if payload != expected * width:
        raise ValueError(
            f"{path}: payload has {payload} bytes, header implies {expected} values of {width} bytes"
        )
    values = np.frombuffer(data, dtype=_WIDTH_TO_DTYPE[width], offset=offset)
    return values.reshape(shape).copy()


def first_divergence(a: np.ndarray, b: np.ndarray, tolerance: float):
    """Index and values of the first element pair of two same-shape arrays
    differing beyond ``tolerance``, or None if the arrays match."""
    diff = np.abs(a - b)
    bad = np.argwhere(diff > tolerance)
    if bad.size == 0:
        return None
    idx = tuple(int(i) for i in bad[0])
    return (idx, float(a[idx]), float(b[idx]))
