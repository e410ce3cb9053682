"""Versioned binary container for named float arrays.

Layout (all integers little-endian unsigned 64-bit):

    magic   5 bytes  b"TADA1"
    version u64      currently 1
    count   u64      number of named arrays
    then per array:
      name_len u64, name bytes (utf-8), rank u64, extents u64 * rank,
      row-major float32 little-endian payload
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import ValidationError

MAGIC = b"TADA1"
VERSION = 1


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<QQ", VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            raw = name.encode("utf-8")
            f.write(struct.pack("<Q", len(raw)))
            f.write(raw)
            f.write(struct.pack("<Q", arr.ndim))
            for extent in arr.shape:
                f.write(struct.pack("<Q", extent))
            f.write(arr.astype("<f4").tobytes(order="C"))


def read_exact(f, n: int, path) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ValidationError` naming
    ``path``; a length past the end of the file is refused before reading."""
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise ValidationError(f"{path}: truncated file: wanted {n} bytes at byte {f.tell()}")
    return f.read(n)


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(5)
        if magic != MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, count = struct.unpack("<QQ", read_exact(f, 16, path))
        if version != VERSION:
            raise ValidationError(f"{path}: unsupported format version {version}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<Q", read_exact(f, 8, path))
            try:
                name = read_exact(f, name_len, path).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}: array name is not utf-8: {exc}") from None
            (rank,) = struct.unpack("<Q", read_exact(f, 8, path))
            shape = struct.unpack(f"<{rank}Q", read_exact(f, 8 * rank, path)) if rank else ()
            payload = read_exact(f, 4 * math.prod(shape), path)
            try:  # an empty array's other extents can still be too large to hold
                out[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()  # own the memory
            except ValueError:
                raise ValidationError(f"{path}: array {name!r} cannot have shape {shape}") from None
        return out
