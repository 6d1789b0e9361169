"""Pixel-grid container, deterministic RNG streams, and shared numeric helpers."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ValidationError",
    "Grid",
    "RngStream",
    "RowStreams",
]

_MASK64 = (1 << 64) - 1


class ValidationError(ValueError):
    """Raised when data violates a structural invariant (shape, range, finiteness)."""


class Grid:
    """Immutable (height, width, channels) array of float64 intensities.

    Values are row-major and channel-interleaved. Image data is nominally in
    [0, 1]; noise and statistics grids are unbounded. Every constructor path
    rejects non-finite entries, so downstream code may assume finiteness.
    """

    __slots__ = ("_values",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 3:
            raise ValidationError(f"grid must be 3-d (h, w, c), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError(f"grid dimensions must be >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("grid contains non-finite values")
        arr.flags.writeable = False
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Read-only float64 array of shape (h, w, c)."""
        return self._values

    @property
    def shape(self) -> tuple[int, int, int]:
        return self._values.shape  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._values, other._values)

    def __repr__(self) -> str:
        h, w, c = self.shape
        return f"Grid({h}x{w}x{c})"


def _uniforms(bits: np.ndarray) -> np.ndarray:
    """The pinned map of raw 64-bit words onto uniforms in (0, 1]."""
    return ((bits >> np.uint64(11)) + np.uint64(1)) * (2.0 ** -53)


def _box_muller(bits: np.ndarray, k: int) -> np.ndarray:
    """The pinned transform: (rows, 2*pairs) raw Philox words -> (rows, k) normals.

    Per row, the first ``pairs`` words give the radii and the last ``pairs``
    the angles; the cosine and sine halves interleave, and k <= 2*pairs keeps
    the first k. Every step is elementwise, so a row's normals do not depend
    on how many rows share the pass.
    """
    pairs = bits.shape[1] // 2
    u = _uniforms(bits)
    r = np.sqrt(-2.0 * np.log(u[:, :pairs]))
    theta = (2.0 * math.pi) * u[:, pairs:]
    out = np.empty((bits.shape[0], 2 * pairs))
    out[:, 0::2] = r * np.cos(theta)
    out[:, 1::2] = r * np.sin(theta)
    return out[:, :k]


def _mix64(z: int) -> int:
    """SplitMix64 finalizer; used to derive well-separated child stream ids."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """Deterministic counter-based random stream.

    Built on the Philox-4x64-10 counter-based generator keyed by
    ``(stream_id << 64) | seed``, so a stream is fully determined by the pair
    and never by thread scheduling. Uniform doubles are derived from raw
    64-bit words as ``((raw >> 11) + 1) * 2**-53``, which lies in (0, 1] and
    is safe to pass to ``log``. Normal variates use the trigonometric
    Box-Muller transform, consuming uniforms strictly in pairs; an odd request
    discards the second half of the final pair. These transforms are part of
    the output contract: changing them changes every downstream artifact.

    A stream is single-owner. Parallel work derives one child per task via
    :meth:`child`, which mixes the task index into the stream id with
    SplitMix64 so children are statistically independent of the parent and of
    each other.
    """

    __slots__ = ("seed", "stream_id", "_bits")

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed <= _MASK64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= stream_id <= _MASK64:
            raise ValidationError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        self._bits = np.random.Philox(key=(stream_id << 64) | seed)

    def child(self, index: int) -> "RngStream":
        """Derive the stream for subtask ``index`` (same seed, mixed stream id)."""
        if index < 0:
            raise ValidationError(f"child index must be non-negative, got {index}")
        mixed = _mix64(self.stream_id ^ _mix64(int(index)))
        return RngStream(self.seed, mixed)

    def raw(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValidationError(f"draw count must be non-negative, got {n}")
        return self._bits.random_raw(n) if n else np.empty(0, dtype=np.uint64)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` i.i.d. uniforms on (0, 1]."""
        return _uniforms(self.raw(n))

    def normals(self, n: int) -> np.ndarray:
        """``n`` i.i.d. standard normals via pair-consuming Box-Muller."""
        if n < 0:
            raise ValidationError(f"draw count must be non-negative, got {n}")
        return _box_muller(self.raw(2 * ((n + 1) // 2))[None], n)[0]

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id:#x})"


class RowStreams:
    """Per-row draws for an (n, D) chain: row i draws only from ``streams[i]``.

    ``normals(k)`` gives row i the next ``k // n`` normals of ``streams[i]``,
    in row order, so row i of a chain that draws whole (n, D) blocks gets
    exactly the draws of a one-row chain on ``streams[i]``, whatever n is.
    The rows' raw words go through one shared Box-Muller pass.
    """

    __slots__ = ("streams",)

    def __init__(self, streams) -> None:
        self.streams = tuple(streams)
        if not self.streams:
            raise ValidationError("row streams need at least one stream")

    def child(self, index: int) -> "RowStreams":
        """Row i's stream becomes ``streams[i].child(index)``."""
        return RowStreams(s.child(index) for s in self.streams)

    def normals(self, n: int) -> np.ndarray:
        rows = len(self.streams)
        if n < 0 or n % rows:
            raise ValidationError(f"{n} draws do not split evenly over {rows} row streams")
        per = n // rows
        words = 2 * ((per + 1) // 2)
        bits = np.stack([s.raw(words) for s in self.streams])
        return _box_muller(bits, per).reshape(-1)
