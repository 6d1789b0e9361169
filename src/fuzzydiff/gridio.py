"""Grid file I/O: the FDG1 binary format plus PGM/PPM previews."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import Grid, ValidationError

__all__ = ["read_grid", "write_grid", "write_preview"]

_MAGIC = b"FDG1"
_HEADER = struct.Struct("<III")


def write_grid(path, grid: Grid) -> None:
    """Write ``grid`` bit-exactly: magic ``FDG1``, u32-LE (h, w, c), f64-LE payload."""
    h, w, c = grid.shape
    payload = np.ascontiguousarray(grid.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(h, w, c))
        fh.write(payload)


def read_grid(path) -> Grid:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(_MAGIC) + _HEADER.size:
        raise ValidationError(f"{path}: truncated grid file")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValidationError(f"{path}: bad magic, not a grid file")
    h, w, c = _HEADER.unpack_from(blob, len(_MAGIC))
    if min(h, w, c) < 1:
        raise ValidationError(f"{path}: invalid dimensions {(h, w, c)}")
    expect = len(_MAGIC) + _HEADER.size + h * w * c * 8
    if len(blob) != expect:
        raise ValidationError(f"{path}: payload size {len(blob)} != expected {expect}")
    flat = np.frombuffer(blob, dtype="<f8", offset=len(_MAGIC) + _HEADER.size)
    # Grid() validates finiteness, so a corrupt payload fails loudly here.
    return Grid(flat.reshape(h, w, c).copy())


def write_preview(path, grid: Grid) -> Path:
    """Write an 8-bit preview of ``grid``: binary PPM (P6) when c=3, else PGM (P5) of channel 0.

    Values map linearly from [0, 1] to [0, 255], clamped and rounded to
    nearest. Returns the path actually written (extension chosen by format).
    """
    h, w, c = grid.shape
    if c == 3:
        magic, out, values = "P6", Path(path).with_suffix(".ppm"), grid.values
    else:
        magic, out, values = "P5", Path(path).with_suffix(".pgm"), grid.values[:, :, 0]
    pixels = np.rint(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(out, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    return out
