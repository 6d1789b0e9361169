"""Pixel-grid container, deterministic RNG streams, and shared numeric helpers."""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = [
    "ValidationError",
    "Grid",
    "RngStream",
    "RowStreams",
]

_MASK64 = (1 << 64) - 1

# Elementwise kernels work on blocks of about this many values (128 KiB of
# float64), so that their work arrays are reused and stay in cache. Unblocked,
# the 512 KiB temporaries of a (1000, 64) GMM predict call went back to the OS
# when freed and were page-faulted in again on every call: 5.2 ms a call
# against 1.4 ms blocked (2-vCPU Xeon, glibc malloc). 16384 against 8192
# values: ~7 % less time per bulk normal (18.0 against 19.3 ns). Its users:
# GmmPixelModel.predict_array (row blocks, in the model's _Scratch),
# _box_muller (blocks of whole draws or of one draw's columns),
# RngStream.normals (how many words a draw reads at a time), RowStreams (it
# reads four blocks ahead) and the scratch those passes hold (_Scratch).
# Values are independent, so the blocking never changes a byte.
_BLOCK_VALUES = 16384


class ValidationError(ValueError):
    """Raised when data violates a structural invariant (shape, range, finiteness)."""


def _hash_parts(*parts: bytes | np.ndarray) -> str:
    digest = hashlib.sha256()
    for p in parts:
        digest.update(p)
    return digest.hexdigest()


def _f8(arr) -> np.ndarray:
    """``arr`` as a C-contiguous little-endian float64 array, which hashlib reads
    through the buffer protocol; no copy when it already is one."""
    return np.ascontiguousarray(arr, dtype="<f8")


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
    """The pinned map of raw 64-bit words onto uniforms in (0, 1].

    It spends ``bits``: the words are shifted, incremented and scaled in
    place, and the uniforms come back in their buffer, so it makes no
    temporaries.
    """
    bits >>= np.uint64(11)
    bits += np.uint64(1)
    return np.multiply(bits, 2.0**-53, out=bits.view(np.float64))


def _radii(bits: np.ndarray, out: np.ndarray, scratch: "_Scratch") -> None:
    """The radius half of the pinned transform: out = sqrt(-2 log u(bits)).

    It runs in two of ``scratch``'s rows, which :func:`_rotate` reuses after
    it, so a block makes no temporaries. Scaling by -2 is exact, so scaling
    the log in place gives the bytes of ``-2.0 * log(u)``.
    """
    q, u = scratch.rows(bits.shape, 0, 2)
    q = q.view(np.uint64)
    np.right_shift(bits, 11, out=q)
    q += 1
    np.multiply(q, 2.0**-53, out=u)  # _uniforms, in place
    np.log(u, out=u)
    u *= -2.0
    np.sqrt(u, out=out)


# _rotate's table: cos and sin of 2 pi j / 1024. It is computed once, here,
# and a test pins its bytes, so the angle follows no libm after that.
_TABLE_BITS = 10
_REM_BITS = 53 - _TABLE_BITS
_ANGLE_TABLE = np.stack(
    [f(np.arange(1 << _TABLE_BITS) * (2.0 * math.pi / (1 << _TABLE_BITS)))
     for f in (np.cos, np.sin)]
)
_ANGLE_TABLE.flags.writeable = False
_REM_SCALE = 2.0 * math.pi * 2.0**-53  # radians per unit of the remainder


class _Scratch:
    """Float64 scratch rows that outlive one pass.

    A pass that allocated its scratch afresh would hand it back to the OS at
    the end and page-fault it in again on the next pass: ~58 700 minor faults
    per ``stats-gmm-batch`` benchmark op against ~1 900 with held scratch, and
    slower (2-vCPU Xeon, glibc malloc). The rows grow to the widest request
    seen and never shrink; each owner holds its own. The owners:

    - :class:`RngStream`, five rows: :func:`_rotate` works in rows 0-4 and
      :func:`_radii` in rows 0-1, before it. A stream makes them on its first
      ``normals`` call: the streams a :class:`RowStreams` owns only give it
      raw words and never draw normals themselves, so they hold none;
    - :class:`RowStreams`, seven rows: those five, and :func:`_box_muller`
      keeps a block's normals in rows 5-6. (Seven rows on every bulk stream
      measured ~7 % slower per ``stats-gmm-batch`` op in fresh processes,
      though the two extra rows are never touched.)
    - ``GaussianFieldModel``, one row: the ``(n, D)`` eigenbasis product of
      ``predict_array``, whose other work array is the caller's ``out``;
    - ``GmmPixelModel``, two rows, or three for K > 2: the row-block work
      arrays of ``predict_array``.

    ``rows`` keeps its last request and the views it gave, so an oracle that
    asks for the same rows on every step builds no views.
    """

    __slots__ = ("_rows", "_last", "_views")

    def __init__(self, count: int) -> None:
        self._rows = np.empty((count, 0))
        self._last = None
        self._views: list[np.ndarray] = []

    def rows(self, shape: tuple[int, ...], first: int, stop: int) -> list[np.ndarray]:
        """Scratch rows ``first`` to ``stop - 1``, as contiguous arrays of ``shape``."""
        if self._last != (shape, first, stop):
            n = math.prod(shape)
            if self._rows.shape[1] < n:
                self._rows = np.empty((len(self._rows), n))
            self._views = [row[:n].reshape(shape) for row in self._rows[first:stop]]
            self._last = (shape, first, stop)
        return self._views


def _rotate(
    cos_slots: np.ndarray, sin_slots: np.ndarray, bits: np.ndarray, scratch: _Scratch
) -> None:
    """The angle half: with the radii in ``cos_slots``, write r*sin(theta) into
    ``sin_slots`` and r*cos(theta) over the radii, theta = 2 pi u(bits).

    With q = (bits >> 11) + 1, theta = 2 pi j / 1024 + phi for the table index
    j = (q >> 43) & 1023 and phi = (q & (2**43 - 1)) * 2 pi * 2**-53, which is
    below 2 pi / 1024. At q = 2**53 (theta = 2 pi) j wraps to 0 and phi is 0.
    Horner polynomials give sin phi (to phi**7) and cos phi - 1 (to phi**8),
    and angle addition with the table's C = cos, S = sin of 2 pi j / 1024 gives
        cos theta = (C (cos phi - 1) - S sin phi) + C,
        sin theta = (S (cos phi - 1) + C sin phi) + S,
    each then multiplied by r. The table term is added last, so the result is
    within about an ulp of the exact rotation.
    """
    s, t, cm, sp, sin_t = scratch.rows(bits.shape, 0, 5)
    q, j = s.view(np.uint64), t.view(np.uint64)
    np.right_shift(bits, 11, out=q)
    q += 1
    np.right_shift(q, _REM_BITS, out=j)
    j &= (1 << _TABLE_BITS) - 1
    j = j.view(np.int64)  # np.take's index type; j < 1024
    q &= (1 << _REM_BITS) - 1
    np.multiply(q, _REM_SCALE, out=cm)  # phi
    np.multiply(cm, cm, out=s)  # phi**2, over the spent q
    np.multiply(s, -1.0 / 5040, out=sp)
    sp += 1.0 / 120
    sp *= s
    sp += -1.0 / 6
    sp *= s
    sp += 1.0
    sp *= cm  # sin phi
    np.multiply(s, 1.0 / 40320, out=cm)
    cm += -1.0 / 720
    cm *= s
    cm += 1.0 / 24
    cm *= s
    cm += -0.5
    cm *= s  # cos phi - 1
    cos_t = s
    np.take(_ANGLE_TABLE[0], j, out=cos_t, mode="clip")
    np.take(_ANGLE_TABLE[1], j, out=sin_t, mode="clip")
    np.multiply(sin_t, sp, out=t)  # S sin phi, over the spent j
    np.multiply(sin_t, cm, out=sin_slots)
    cm *= cos_t
    cm -= t
    cm += cos_t  # cos theta
    sp *= cos_t
    sin_slots += sp
    sin_slots += sin_t
    sin_slots *= cos_slots
    cos_slots *= cm


def _box_muller(bits: np.ndarray, k: int, scratch: _Scratch) -> np.ndarray:
    """The pinned transform: (draws, 2*pairs) raw Philox words -> (draws, k) normals.

    Per draw, the first ``pairs`` words give the radii and the last ``pairs``
    the angles; the cosine and sine halves interleave, and k <= 2*pairs keeps
    the first k. Every step is elementwise, so a draw's normals do not depend
    on how many draws share the pass. The pass runs on blocks of about
    ``_BLOCK_VALUES`` pairs, whole draws or one draw's columns. The first
    operation of :func:`_radii` and of :func:`_rotate` reads a block's words
    into contiguous scratch, the block's normals stay in contiguous scratch,
    and one copy per half interleaves them into a fresh array, so no
    operation runs on narrow strided columns and no later pass writes the
    normals handed out.
    """
    draws, pairs = bits.shape[0], bits.shape[1] // 2
    out = np.empty((draws, pairs, 2))
    step = max(1, _BLOCK_VALUES // pairs)  # draws per block
    width = min(pairs, _BLOCK_VALUES)  # pair columns per block
    for i in range(0, draws, step):
        for j in range(0, pairs, width):
            end = min(j + width, pairs)
            cos, sin = scratch.rows((min(step, draws - i), end - j), 5, 7)
            _radii(bits[i : i + step, j:end], cos, scratch)
            _rotate(cos, sin, bits[i : i + step, pairs + j : pairs + end], scratch)
            block = out[i : i + step, j:end]
            block[..., 0] = cos
            block[..., 1] = sin
    return out.reshape(draws, 2 * pairs)[:, :k]


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
    discards the second half of the final pair. The radius takes numpy's
    ``log`` and ``sqrt``; the angle comes from a pinned 1024-entry cos/sin
    table and short polynomials (see ``_rotate``), not from libm's ``sin`` and
    ``cos``. These transforms are part of the output contract: changing them
    changes every downstream artifact, and ``tests/golden.json`` holds the
    bytes they give.

    A stream is single-owner. Parallel work derives one child per task via
    :meth:`child`, which mixes the task index into the stream id with
    SplitMix64 so children are statistically independent of the parent and of
    each other.
    """

    __slots__ = ("seed", "stream_id", "_bits", "_scratch")

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
        self._scratch: _Scratch | None = None  # made by the first normals call

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
        # The words are read in blocks, so a large draw makes no (n,)-sized
        # word or temporary array: all radius words first, then the angles.
        pairs = (n + 1) // 2
        out = np.empty((pairs, 2))
        if self._scratch is None:
            self._scratch = _Scratch(5)
        for i in range(0, pairs, _BLOCK_VALUES):
            bits = self.raw(min(_BLOCK_VALUES, pairs - i))
            _radii(bits, out[i : i + _BLOCK_VALUES, 0], self._scratch)
        for i in range(0, pairs, _BLOCK_VALUES):
            block = out[i : i + _BLOCK_VALUES]
            bits = self.raw(min(_BLOCK_VALUES, pairs - i))
            _rotate(block[:, 0], block[:, 1], bits, self._scratch)
        return out.reshape(-1)[:n]

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id:#x})"


class RowStreams:
    """Per-row draws for an (n, D) chain: row i draws only from ``streams[i]``.

    ``normals(k)`` gives row i the next ``k // n`` normals of ``streams[i]``,
    in row order, so row i of a chain that draws whole (n, D) blocks gets
    exactly the draws of a one-row chain on ``streams[i]``, whatever n is.
    A ``RowStreams`` draws one size: every call after the first must ask for
    as many normals as the first, or it raises ``ValidationError``. A chain
    that needs another size draws from a :meth:`child`.

    A ``RowStreams`` owns its streams and reads ahead: one ``raw`` call per
    row gives the words of k draws, about ``4 * _BLOCK_VALUES`` normals in all
    (at least one draw), and one shared Box-Muller pass turns them into
    normals. The bytes are the ones per-stream draws give, since a Philox
    stream's words do not depend on how many are taken per call; but a stream
    handed to it must not be drawn from directly afterwards, and no stream may
    serve two rows.

    A draw belongs to its caller: each pass writes a fresh array, so no later
    draw reuses or rewrites a draw's memory, and a chain may keep a draw as
    its state and write into it. A draw is a copy, never a view into the
    pass, so a kept draw does not keep a spent pass alive.
    """

    __slots__ = ("streams", "_ready", "_next", "_scratch")

    def __init__(self, streams) -> None:
        self.streams = tuple(streams)
        if not self.streams:
            raise ValidationError("row streams need at least one stream")
        if len({id(s) for s in self.streams}) != len(self.streams):
            raise ValidationError("a stream object serves two rows; give each row its own")
        self._ready = np.empty((len(self.streams), 0, 0))  # (rows, draws, per) normals
        self._next = 0  # the first ready draw not yet handed out
        self._scratch = _Scratch(7)

    def child(self, index: int) -> "RowStreams":
        """Row i's stream becomes ``streams[i].child(index)``."""
        return RowStreams(s.child(index) for s in self.streams)

    def normals(self, n: int) -> np.ndarray:
        rows = len(self.streams)
        if n < 0 or n % rows:
            raise ValidationError(f"{n} draws do not split evenly over {rows} row streams")
        per = n // rows
        if per == 0:
            return np.empty(0)
        _, ready, size = self._ready.shape
        if size and size != per:
            raise ValidationError(f"these row streams draw {size} normals a row, not {per}")
        if self._next == ready:  # read the next k draws ahead
            # Drop the spent block first; with the draws copied out, a
            # refill never holds two.
            self._ready, self._next = np.empty((rows, 0, per)), 0
            words = 2 * ((per + 1) // 2)
            k = max(1, 4 * _BLOCK_VALUES // (rows * words))
            bits = np.empty((rows, k * words), dtype=np.uint64)
            for row, stream in zip(bits, self.streams):
                row[:] = stream.raw(k * words)
            z = _box_muller(bits.reshape(rows * k, words), per, self._scratch)
            self._ready = z.reshape(rows, k, per)
        draw = self._ready[:, self._next].reshape(-1)  # a copy for rows > 1
        self._next += 1
        return draw if rows > 1 else draw.copy()  # one row's reshape is a view
