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
# GmmPixelModel.predict_array (row blocks), _box_muller (blocks of whole
# draws), _stream_normals (uniforms filled at a time, in scratch rows; a
# RowStreams draw wider than a pass streams each row into the caller's buffer
# the same way), RowStreams (it reads one pass of that many pairs ahead) and
# their _Scratch. Values are independent, so the blocking never changes a byte.
_BLOCK_VALUES = 16384

# Normals a RowStreams refill reads ahead, always at least one draw: one
# Box-Muller pass of _BLOCK_VALUES pairs, so a refill holds at most 256 KiB of
# uniforms beside the pass's scratch; a wider draw reads none ahead.
_READ_AHEAD = 2 * _BLOCK_VALUES

# The pinned map of a Philox word w onto a uniform in (0, 1], safe to pass to
# log, is u = ((w >> 11) + 1) * 2**-53. numpy's Generator.random fills
# (w >> 11) * 2**-53 from the same words, exactly: an integer below 2**53 times
# a power of two. Adding _TICK once to each filled buffer gives u, also
# exactly, as the sum is an integer of at most 2**53 times 2**-53.
_TICK = 2.0**-53


class ValidationError(ValueError):
    """Raised when data violates a structural invariant (shape, range, finiteness)."""


def _hash_parts(*parts: bytes | np.ndarray) -> str:
    digest = hashlib.sha256()
    for p in parts:
        digest.update(p)
    return digest.hexdigest()


def _frozen(values) -> np.ndarray:
    """A read-only C-contiguous float64 copy of ``values``. An owner that hashes
    or validates its arrays once, at construction, keeps this copy, so no
    write through the caller's memory can change them afterwards."""
    arr = np.array(values, dtype=np.float64, order="C")
    arr.flags.writeable = False
    return arr


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
        arr = _frozen(values)
        if arr.ndim != 3:
            raise ValidationError(f"grid must be 3-d (h, w, c), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError(f"grid dimensions must be >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("grid contains non-finite values")
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


def _radii(u: np.ndarray, out: np.ndarray) -> None:
    """The radius half of the pinned transform: out = sqrt(-2 log u), spending the
    contiguous uniforms ``u`` as its work array, so it makes no temporaries.
    Scaling by -2 is exact, so scaling the log in place gives the bytes of
    ``-2.0 * log(u)``."""
    np.log(u, out=u)
    u *= -2.0
    np.sqrt(u, out=out)


# _rotate's table: cos and sin of 2 pi j / 1024. It is computed once, here,
# and a test pins its bytes, so the angle follows no libm after that.
_TABLE_SIZE = 1024
_REM_SCALE = 2.0 * math.pi / _TABLE_SIZE  # radians per unit of the remainder
_ANGLE_TABLE = np.stack([f(np.arange(_TABLE_SIZE) * _REM_SCALE) for f in (np.cos, np.sin)])
_ANGLE_TABLE.flags.writeable = False


class _Scratch:
    """Float64 scratch rows that outlive one pass.

    A pass that allocated its scratch afresh would hand it back to the OS at
    the end and page-fault it in again on the next pass: ~58 700 minor faults
    per ``stats-gmm-batch`` benchmark op against ~1 900 with held scratch, and
    slower (2-vCPU Xeon, glibc malloc). The rows grow to the widest request
    seen and never shrink; each owner holds its own and uses all of them. The
    owners:

    - :class:`RngStream` and :class:`RowStreams`, five rows: a block's radius
      uniforms are filled or copied into the first, where :func:`_radii`
      spends them, and its angle uniforms into the third, which
      :func:`_rotate` reads before it writes any row and then works in all
      five; a ``RowStreams`` draw wider than a pass streams each row into the
      caller's buffer in them. A stream makes them on its first ``normals``
      call; those a :class:`RowStreams` owns only fill its buffer and hold
      none;
    - ``GaussianFieldModel``, one row: the ``(n, D)`` eigenbasis product of
      ``predict_array``, whose other work array is the caller's ``out``;
    - ``GmmPixelModel``, two rows, or three for K > 2: the row-block work
      arrays of ``predict_array``.

    ``rows`` keeps its last shape and the views it gave, so an owner that
    asks for the same shape on every step builds no views.
    """

    __slots__ = ("_rows", "_last", "_views")

    def __init__(self, count: int) -> None:
        self._rows = np.empty((count, 0))
        self._last = None
        self._views: list[np.ndarray] = []

    def rows(self, shape: tuple[int, ...]) -> list[np.ndarray]:
        """Every scratch row, as a contiguous array of ``shape``."""
        if self._last != shape:
            n = math.prod(shape)
            if self._rows.shape[1] < n:
                self._rows = np.empty((len(self._rows), n))
            self._views = [row[:n].reshape(shape) for row in self._rows]
            self._last = shape
        return self._views


def _rotate(
    cos_slots: np.ndarray, sin_slots: np.ndarray, u: np.ndarray, scratch: _Scratch
) -> None:
    """The angle half: with the radii in ``cos_slots``, write r*sin(theta) into
    ``sin_slots`` and r*cos(theta) over the radii, theta = 2 pi u. ``u`` is read
    once, into the first scratch row, before any other row or slot is written,
    so the uniforms may sit in another scratch row or under the slots.

    t = 1024 u splits into the table index j = floor(t) mod 1024 (``np.take``
    wraps it) and the remainder t - floor(t), and theta = 2 pi j / 1024 + phi for
    phi = (t - floor(t)) * 2 pi / 1024, which is below 2 pi / 1024. Each step is
    exact: u = q 2**-53 for an integer q <= 2**53, so t = q 2**-43, floor(t) is
    q >> 43, and t - floor(t) is (q mod 2**43) 2**-43. At u = 1 (theta = 2 pi)
    j wraps to 0 and phi is 0. Horner polynomials give sin phi (to phi**7) and
    cos phi - 1 (to phi**8), and angle addition with the table's C = cos,
    S = sin of 2 pi j / 1024 gives
        cos theta = (C (cos phi - 1) - S sin phi) + C,
        sin theta = (S (cos phi - 1) + C sin phi) + S,
    each then multiplied by r. The table term is added last, so the result is
    within about an ulp of the exact rotation.
    """
    s, t, cm, sp, sin_t = scratch.rows(u.shape)
    np.multiply(u, float(_TABLE_SIZE), out=s)
    np.floor(s, out=cm)
    s -= cm  # the remainder
    j = t.view(np.int64)  # np.take's index type
    j[...] = cm  # exact, and no cast buffer; j = 1024 (u = 1) wraps to 0 below
    np.multiply(s, _REM_SCALE, out=cm)  # phi
    np.multiply(cm, cm, out=s)  # phi**2, over the spent remainder
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
    np.take(_ANGLE_TABLE[0], j, out=cos_t, mode="wrap")
    np.take(_ANGLE_TABLE[1], j, out=sin_t, mode="wrap")
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


def _box_muller(u: np.ndarray, scratch: _Scratch) -> None:
    """The pinned transform in place: C-contiguous (draws, words) uniforms,
    words <= ``_READ_AHEAD``, become the normals written over them.

    Per draw, the first ``pairs = words // 2`` uniforms give the radii and the
    last ``pairs`` the angles, and pair p lands on slots 2p (cosine) and 2p + 1
    (sine). Every step is elementwise, so a draw's normals do not depend on how
    many draws share the pass. Each block of whole draws, about
    ``_BLOCK_VALUES`` pairs, writes only its own slots: its radius uniforms go
    to the first scratch row and its angle uniforms to the third before any
    slot is written, so :func:`_radii` reads a contiguous row, and
    :func:`_rotate` then writes the sines and the cosines.
    """
    draws, words = u.shape
    pairs = words // 2
    z = u.reshape(draws, pairs, 2)
    step = _BLOCK_VALUES // pairs  # whole draws per block
    for i in range(0, draws, step):
        block = u[i : i + step]
        radii, _, angles = scratch.rows((len(block), pairs))[:3]
        np.copyto(radii, block[:, :pairs])
        np.copyto(angles, block[:, pairs:])
        cos, sin = z[i : i + step, :, 0], z[i : i + step, :, 1]
        _radii(radii, cos)
        _rotate(cos, sin, angles, scratch)


def _stream_normals(gen: np.random.Generator, flat: np.ndarray, scratch: _Scratch) -> None:
    """The pinned transform streamed into the 1-d float64 array ``flat``, with the
    bytes of :func:`_box_muller`: ``gen`` fills the radius uniforms, then the
    angle uniforms, in blocks of at most ``_BLOCK_VALUES`` into the first and
    third of ``scratch``'s rows, so a draw holds nothing beside them. Odd
    ``len(flat)`` drops the last sine."""
    cos, sin = flat[0::2], flat[1::2]
    pairs = len(cos)
    for i in range(0, pairs, _BLOCK_VALUES):
        c = cos[i : i + _BLOCK_VALUES]
        u = scratch.rows(c.shape)[0]
        gen.random(out=u)
        u += _TICK
        _radii(u, c)
    for i in range(0, pairs, _BLOCK_VALUES):
        c, s = cos[i : i + _BLOCK_VALUES], sin[i : i + _BLOCK_VALUES]
        u = scratch.rows(c.shape)[2]
        gen.random(out=u)
        u += _TICK
        if len(s) < len(c):  # elementwise, so the split gives the same bytes
            # The block first: its (len(s),) rows leave u's last uniform alone.
            _rotate(c[:-1], s, u[:-1], scratch)
            c, s, u = c[-1:], np.empty(1), u[-1:]
        _rotate(c, s, u, scratch)


def _draw_buffer(n: int, out: np.ndarray | None) -> np.ndarray:
    """A fresh array for a draw of ``n`` normals, or ``out`` once it is checked
    to be a writeable C-contiguous float64 array of ``n`` values, any shape."""
    if out is None:
        return np.empty(n)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.size == n
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValidationError(f"a draw of {n} normals needs a writeable C-contiguous "
                              f"float64 array of {n} values, got {np.shape(out)}")
    return out


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
    and never by thread scheduling. A ``Generator`` over it fills float64
    uniforms in place, which become ((w >> 11) + 1) * 2**-53 of the words w,
    in (0, 1] and safe to pass to ``log`` (the map is stated at ``_TICK``).
    Normal variates use the trigonometric Box-Muller transform, consuming
    uniforms strictly in pairs; an odd request discards the second half of
    the final pair. The radius takes numpy's
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

    __slots__ = ("seed", "stream_id", "_gen", "_scratch")

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed <= _MASK64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= stream_id <= _MASK64:
            raise ValidationError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        self._gen = np.random.Generator(np.random.Philox(key=(stream_id << 64) | seed))
        self._scratch: _Scratch | None = None  # made by the first normals call

    def child(self, index: int) -> "RngStream":
        """Derive the stream for subtask ``index`` (same seed, mixed stream id)."""
        if index < 0:
            raise ValidationError(f"child index must be non-negative, got {index}")
        mixed = _mix64(self.stream_id ^ _mix64(int(index)))
        return RngStream(self.seed, mixed)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` i.i.d. uniforms on (0, 1]."""
        if n < 0:
            raise ValidationError(f"draw count must be non-negative, got {n}")
        u = self._gen.random(n)
        u += _TICK
        return u

    def normals(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """``n`` i.i.d. standard normals via pair-consuming Box-Muller, in a fresh
        array, or written into ``out`` and returned: a writeable C-contiguous
        float64 array of ``n`` values, checked before any word is read, that
        gets exactly the bytes of a fresh draw."""
        if n < 0:
            raise ValidationError(f"draw count must be non-negative, got {n}")
        z = _draw_buffer(n, out)
        if self._scratch is None:
            self._scratch = _Scratch(5)
        _stream_normals(self._gen, z.reshape(-1), self._scratch)
        return z

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

    A ``RowStreams`` owns its streams and reads ahead: each refill fills one
    row per stream of a held ``(rows, k * words)`` float64 buffer with the
    uniforms of k draws, about ``_READ_AHEAD`` normals in all (at least one
    draw), and one shared Box-Muller pass, in the same five scratch rows as
    :meth:`RngStream.normals`, writes the draws over those uniforms
    (:func:`_box_muller`). So a ``RowStreams`` holds that buffer and the
    scratch from its first draw on. A draw wider than a pass holds no buffer:
    :func:`_stream_normals` streams each row into the caller's buffer. The
    bytes are the ones per-stream draws give, since a Philox stream's words do
    not depend on how many are taken per call or where they are written; but
    a stream handed to it must not be drawn from directly afterwards, and no
    stream may serve two rows.

    A draw belongs to its caller: it is copied out of the pass, or streamed,
    into ``out`` or a fresh array, so no later refill rewrites a draw's memory
    and a chain may keep a draw as its state and write into it.
    """

    __slots__ = ("streams", "_pass", "_ready", "_next", "_scratch")

    def __init__(self, streams) -> None:
        self.streams = tuple(streams)
        if not self.streams:
            raise ValidationError("row streams need at least one stream")
        if len({id(s) for s in self.streams}) != len(self.streams):
            raise ValidationError("a stream object serves two rows; give each row its own")
        self._pass = None  # the (rows, k * words) buffer, made by the first refill
        self._ready = np.empty((len(self.streams), 0, 0))  # (rows, draws, per) normals
        self._next = 0  # the first ready draw not yet handed out
        self._scratch = _Scratch(5)

    def child(self, index: int) -> "RowStreams":
        """Row i's stream becomes ``streams[i].child(index)``."""
        return RowStreams(s.child(index) for s in self.streams)

    def normals(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next draw, in a fresh array or in ``out``, as :meth:`RngStream.normals`."""
        rows = len(self.streams)
        if n < 0 or n % rows:
            raise ValidationError(f"{n} draws do not split evenly over {rows} row streams")
        per = n // rows
        draw = _draw_buffer(n, out)
        if per == 0:
            return draw
        _, ready, size = self._ready.shape
        if size and size != per:
            raise ValidationError(f"these row streams draw {size} normals a row, not {per}")
        if per > _READ_AHEAD:  # wider than a pass: each row streamed into the draw
            self._ready = np.empty((rows, 0, per))  # no draws ready; it keeps the size
            for row, stream in zip(draw.reshape(rows, per), self.streams):
                _stream_normals(stream._gen, row, self._scratch)
            return draw
        if self._next == ready:  # read the next k draws ahead, over the spent pass
            words = 2 * ((per + 1) // 2)
            k = max(1, _READ_AHEAD // (rows * words))
            if self._pass is None:
                self._pass = np.empty((rows, k * words))
            for row, stream in zip(self._pass, self.streams):
                stream._gen.random(out=row)
            self._pass += _TICK  # one pass for all rows, not a ufunc call per row
            _box_muller(self._pass.reshape(rows * k, words), self._scratch)
            self._ready, self._next = self._pass.reshape(rows, k, words)[:, :, :per], 0
        draw.reshape(rows, per)[...] = self._ready[:, self._next]
        self._next += 1
        return draw
