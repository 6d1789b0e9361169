"""Grid file I/O (the FDG1 format, PGM/PPM previews) and the strict JSON reader and writer."""

from __future__ import annotations

import json
import math
import stat
import struct
from pathlib import Path

import numpy as np

from .core import Grid, ValidationError

__all__ = ["parse_json", "read_json", "write_json", "read_grid", "write_grid", "write_preview"]

_MAGIC = b"FDG1"
_HEADER = struct.Struct("<III")
_HEAD_SIZE = len(_MAGIC) + _HEADER.size

# The most values a grid file may hold (128 MiB of float64): the covariance
# of the largest gaussian_field, 2**12 pixels squared, fits exactly.
MAX_GRID_VALUES = 2**24


def _unique_keys(pairs: list) -> dict:
    """json's object hook: a repeated key is an error, not a silent last-one-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"duplicate key {repeated!r}")
    return obj


def parse_json(text):
    """``json.loads`` that raises ``ValueError`` on a key repeated within one object."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def _regular_size(path: Path) -> int:
    """The stat size of ``path``; ``OSError``, before any open (a FIFO's would
    block), unless it is a regular file. A reader reads no more than this."""
    info = path.stat()
    if not stat.S_ISREG(info.st_mode):
        raise OSError(f"{path}: not a regular file")
    return info.st_size


def read_json(path, max_bytes: int):
    """:func:`parse_json` of the regular file ``path``, read up to its stat size;
    one over ``max_bytes`` is refused unread with ``ValidationError``."""
    path = Path(path)
    size = _regular_size(path)
    if size > max_bytes:
        raise ValidationError(f"{path} has {size} bytes, over {max_bytes}")
    with open(path, "rb") as fh:
        return parse_json(fh.read(size))


def write_json(path, obj) -> None:
    """Write ``obj`` as every JSON artifact is written: sorted keys, indent 2, final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _is_number(v) -> bool:
    """A finite int or float; Python's json also parses NaN, Infinity and 1e400."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int literal too large for a float
        return False


def _is_int(v) -> bool:
    """An int that numpy can hold as int64; larger ones would fail late, in numpy."""
    return isinstance(v, int) and not isinstance(v, bool) and -(2**63) <= v < 2**63


def write_grid(path, grid: Grid) -> None:
    """Write ``grid`` bit-exactly: magic ``FDG1``, u32-LE (h, w, c), f64-LE payload."""
    h, w, c = grid.shape
    payload = np.ascontiguousarray(grid.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(h, w, c))
        fh.write(payload)


def read_grid(path, shapes=None) -> Grid:
    """Read a grid written by :func:`write_grid`, checking it before reading it.

    A path that is not a regular file raises ``OSError``. Then the 16-byte
    header is read and checked (magic, dimensions >= 1, at most
    ``MAX_GRID_VALUES`` values, one of ``shapes`` when that collection of
    accepted (h, w, c) shapes is given, a file size that matches), and only
    then exactly the payload. A malformed file raises ``ValidationError``.
    """
    path = Path(path)
    size = _regular_size(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEAD_SIZE)
        if len(head) < _HEAD_SIZE:
            raise ValidationError(f"{path}: truncated grid file")
        if head[: len(_MAGIC)] != _MAGIC:
            raise ValidationError(f"{path}: bad magic, not a grid file")
        h, w, c = _HEADER.unpack_from(head, len(_MAGIC))
        if min(h, w, c) < 1:
            raise ValidationError(f"{path}: invalid dimensions {(h, w, c)}")
        if h * w * c > MAX_GRID_VALUES:
            raise ValidationError(
                f"{path}: {h}x{w}x{c} grid exceeds {MAX_GRID_VALUES} values"
            )
        if shapes is not None and (h, w, c) not in shapes:
            accepted = " or ".join(str(tuple(shape)) for shape in sorted(shapes))
            raise ValidationError(f"{path}: grid shape {(h, w, c)} is not {accepted}")
        expect = _HEAD_SIZE + h * w * c * 8
        if size != expect:
            raise ValidationError(f"{path}: file size {size} != expected {expect}")
        payload = fh.read(expect - _HEAD_SIZE)
    if len(payload) != expect - _HEAD_SIZE:  # the file shrank after the stat
        raise ValidationError(f"{path}: truncated grid file")
    flat = np.frombuffer(payload, dtype="<f8")
    # Grid() validates finiteness, so a corrupt payload fails loudly here.
    return Grid(flat.reshape(h, w, c))


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
