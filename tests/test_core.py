import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fuzzydiff import Grid, RngStream, RowStreams, ValidationError
from fuzzydiff.core import _ANGLE_TABLE, _BLOCK_VALUES, _READ_AHEAD, _rotate, _Scratch
from fuzzydiff.projection import project_reconstruct_array


class TestGrid:
    def test_shape_and_accessors(self):
        g = Grid(np.zeros((2, 3, 4)))
        assert g.shape == (2, 3, 4)
        assert g.values.size == 24

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError):
            Grid(np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            Grid(np.zeros((2, 2, 2, 2)))

    def test_rejects_zero_dims(self):
        with pytest.raises(ValidationError):
            Grid(np.zeros((0, 1, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        vals = np.zeros((2, 2, 1))
        vals[0, 0, 0] = bad
        with pytest.raises(ValidationError):
            Grid(vals)

    def test_values_are_immutable(self):
        g = Grid(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            g.values[0, 0, 0] = 1.0

    def test_does_not_alias_input(self):
        src = np.zeros((2, 2, 1))
        g = Grid(src)
        src[0, 0, 0] = 9.0
        assert g.values[0, 0, 0] == 0.0

    def test_equality_by_content(self):
        a = Grid(np.arange(4.0).reshape(2, 2, 1))
        b = Grid(np.arange(4.0).reshape(2, 2, 1))
        c = Grid(np.arange(4.0).reshape(1, 4, 1))
        assert a == b
        assert a != c


class TestRngStream:
    def test_bit_identical_given_seed_and_stream(self):
        a = RngStream(123, 7).normals(64)
        b = RngStream(123, 7).normals(64)
        assert np.array_equal(a, b)

    def test_call_sequence_matters_not_call_sizes_checked(self):
        # Different (seed, stream) pairs give different sequences.
        assert not np.array_equal(RngStream(123, 7).uniforms(8), RngStream(123, 8).uniforms(8))
        assert not np.array_equal(RngStream(123, 7).uniforms(8), RngStream(124, 7).uniforms(8))

    def test_uniforms_are_half_open_at_zero(self):
        u = RngStream(5, 0).uniforms(100_000)
        assert u.min() > 0.0
        assert u.max() <= 1.0

    def test_normals_moments_million_draws(self):
        z = RngStream(99, 0).normals(1_000_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.01

    def test_normals_odd_request_prefix(self):
        z = RngStream(31, 2).normals(7)
        assert z.shape == (7,)
        assert np.all(np.isfinite(z))

    def test_chi_square_normality(self):
        z = RngStream(2718, 0).normals(100_000)
        nbins = 64
        edges = sps.norm.ppf(np.linspace(0, 1, nbins + 1))
        counts, _ = np.histogram(z, bins=edges)
        expected = len(z) / nbins
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < sps.chi2.ppf(0.999, nbins - 1)

    def test_streams_uncorrelated(self):
        n = 100_000
        base = RngStream(77, 0)
        a = base.normals(n)
        b = RngStream(77, 1).normals(n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_child_streams_deterministic_and_distinct(self):
        root = RngStream(11, 3)
        c0 = root.child(0).normals(16)
        c0_again = RngStream(11, 3).child(0).normals(16)
        c1 = root.child(1).normals(16)
        assert np.array_equal(c0, c0_again)
        assert not np.array_equal(c0, c1)
        assert not np.array_equal(c0, RngStream(11, 3).normals(16))

    def test_child_keeps_seed(self):
        child = RngStream(42, 9).child(4)
        assert child.seed == 42
        assert child.stream_id != 9

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValidationError):
            RngStream(-1, 0)
        with pytest.raises(ValidationError):
            RngStream(0, 2**64)
        with pytest.raises(ValidationError):
            RngStream(0, 0).child(-1)


def philox(stream: RngStream) -> np.random.Philox:
    """A Philox keyed as the documented ``(stream_id << 64) | seed`` of ``stream``,
    at its start: the words a fresh stream's draws are made of."""
    return np.random.Philox(key=(stream.stream_id << 64) | stream.seed)


def documented_uniforms(raw: np.ndarray) -> np.ndarray:
    """The pinned map of raw 64-bit words onto uniforms in (0, 1]."""
    return ((raw >> np.uint64(11)) + np.uint64(1)) * 2.0**-53


def documented_rotation(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of theta = 2 pi q 2**-53, as the pinned transform computes them.

    The top 10 of q's 53 bits index a table of 2 pi j / 1024, the rest give
    phi < 2 pi / 1024; polynomials give sin phi and cos phi - 1, and angle
    addition adds the table's term last.
    """
    angles = np.arange(1024) * (2.0 * np.pi / 1024)
    C, S = np.cos(angles)[(q >> 43) & 1023], np.sin(angles)[(q >> 43) & 1023]
    phi = (q & (2**43 - 1)) * (2.0 * np.pi * 2.0**-53)
    s = phi * phi
    sin_phi = (((s * (-1.0 / 5040) + 1.0 / 120) * s + -1.0 / 6) * s + 1.0) * phi
    cos_phi_m1 = (((s * (1.0 / 40320) + -1.0 / 720) * s + 1.0 / 24) * s + -0.5) * s
    return (C * cos_phi_m1 - S * sin_phi) + C, (S * cos_phi_m1 + C * sin_phi) + S


def documented_box_muller(raw: np.ndarray, n: int) -> np.ndarray:
    """The pinned transform spelled out on (rows, 2*pairs) words, unblocked."""
    pairs = raw.shape[1] // 2
    q = (raw >> np.uint64(11)) + np.uint64(1)
    r = np.sqrt(-2.0 * np.log(documented_uniforms(raw[:, :pairs])))
    cos_theta, sin_theta = documented_rotation(q[:, pairs:])
    expect = np.empty((raw.shape[0], 2 * pairs))
    expect[:, 0::2], expect[:, 1::2] = r * cos_theta, r * sin_theta
    return expect[:, :n]


def rotate_unit(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The library's (cos theta, sin theta) of the documented uniforms of angle
    words, at radius 1."""
    out = np.ones((raw.size, 2))
    _rotate(out[:, 0], out[:, 1], documented_uniforms(raw), _Scratch(5))
    return out[:, 0], out[:, 1]


def exact_square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x*x as an unevaluated sum hi + lo, exactly (Dekker's product)."""
    hi = x * x
    t = x * 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
    xh = t - (t - x)
    xl = x - xh
    return hi, ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl


class TestScratch:
    def test_rows_are_every_row_as_contiguous_views(self):
        scratch = _Scratch(3)
        views = scratch.rows((2, 5))
        assert len(views) == 3
        assert all(v.shape == (2, 5) and v.flags.c_contiguous for v in views)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(views) for b in views[i + 1:])
        again = scratch.rows((2, 5))
        assert len(again) == 3 and all(a is b for a, b in zip(views, again))

    def test_rows_grow_to_the_widest_request_and_never_shrink(self):
        scratch = _Scratch(2)
        wide = scratch.rows((4, 4))
        narrow = scratch.rows((3,))
        assert all(np.shares_memory(w, n) for w, n in zip(wide, narrow))
        wider = scratch.rows((5, 5))  # 25 values: new rows
        assert not any(np.shares_memory(w, v) for w in wide for v in wider)
        for shape in [(4, 4), (1,), (5, 5)]:
            assert all(np.shares_memory(w, v) for w, v in zip(wider, scratch.rows(shape)))


class TestPinnedTransform:
    # The sizes from 8191 on straddle block boundaries: 8192 values (an
    # earlier block size) and the pass's blocks of 16384 pairs (32768 normals).
    @pytest.mark.parametrize(
        "n", [1, 2, 7, 64, 65, 1001, 8191, 8192, 8193, 16385, 32767, 32768, 32769, 32771, 64001]
    )
    def test_normals_follow_the_documented_box_muller(self, n):
        # The transform is part of the output contract, so spell it out once.
        raw = philox(RngStream(12, 3)).random_raw(2 * ((n + 1) // 2))
        expect = documented_box_muller(raw[None], n)[0]
        assert RngStream(12, 3).normals(n).tobytes() == expect.tobytes()

    def test_one_pair_wide_blocks_of_many_rows(self):
        rows, per = _BLOCK_VALUES // 2 + 3, 5
        streams = [RngStream(12, 4).child(i) for i in range(rows)]
        raw = np.stack([philox(s).random_raw(6) for s in streams])
        expect = documented_box_muller(raw, per).reshape(-1)
        assert RowStreams(streams).normals(rows * per).tobytes() == expect.tobytes()

    def test_angle_table_bytes_are_pinned(self):
        # The angle follows these 2 x 1024 values, not the host's libm.
        digest = hashlib.sha256(_ANGLE_TABLE.astype("<f8").tobytes()).hexdigest()
        assert _ANGLE_TABLE.shape == (2, 1024)
        assert digest == "6ab3e4cbe1d27d3c8316ade56658ab44cf8526dd60f090fd86d5849ef7026113"

    # Offsets 0-5 start the fill at each word of Philox's 4-word block and
    # past it; the edge words are set in the block a fill reads first.
    EDGE_WORDS = [0, 2047, 2**63, 2**64 - 1]

    @pytest.mark.parametrize("offset", range(6))
    @pytest.mark.parametrize("edges", [False, True])
    def test_numpy_fill_is_the_documented_map(self, offset, edges):
        # Every draw fills uniforms with Generator.random and adds 2**-53 once;
        # that must be the documented map of the same words, bit for bit.
        words, fills = philox(RngStream(17, 5)), philox(RngStream(17, 5))
        if edges:
            for bits in (words, fills):
                state = bits.state
                state["buffer"] = np.array(self.EDGE_WORDS, dtype=np.uint64)
                state["buffer_pos"] = 0
                bits.state = state
        raw = words.random_raw(offset + 1000)[offset:]
        gen = np.random.Generator(fills)
        gen.bit_generator.random_raw(offset)
        got = gen.random(1000) + 2**-53
        expect = documented_uniforms(raw)
        if edges and offset < 4:
            assert raw[: 4 - offset].tolist() == self.EDGE_WORDS[offset:]
        assert got.tobytes() == expect.tobytes(), (
            f"numpy {np.__version__}: Generator.random + 2**-53 is not "
            f"((w >> 11) + 1) * 2**-53 at offset {offset}"
        )

    def test_edge_words(self):
        # _rotate gets the documented uniforms u = q * 2**-53, q = (raw >> 11)
        # + 1: raw 0 gives q = 1, the smallest angle, 2**64 - 1 gives q = 2**53
        # (u = 1, theta = 2 pi), and each bin edge j * 2**43 is taken on both
        # sides, with the low 11 bits both clear and set.
        edges = np.arange(1, 1025, dtype=np.uint64) << np.uint64(43)
        q = np.concatenate([edges - np.uint64(1), edges, edges[:-1] + np.uint64(1)])
        raw = np.concatenate([(q - np.uint64(1)) << np.uint64(11),
                              ((q - np.uint64(1)) << np.uint64(11)) | np.uint64(2047),
                              np.array([0, 2**64 - 1], dtype=np.uint64)])
        cos_t, sin_t = rotate_unit(raw)
        expect_cos, expect_sin = documented_rotation((raw >> np.uint64(11)) + np.uint64(1))
        assert cos_t.tobytes() == expect_cos.tobytes()
        assert sin_t.tobytes() == expect_sin.tobytes()
        theta = 2.0 * np.pi * documented_uniforms(raw)
        assert np.abs(cos_t - np.cos(theta)).max() <= 1e-15
        assert np.abs(sin_t - np.sin(theta)).max() <= 1e-15
        assert (cos_t[-2], sin_t[-2]) == (1.0, 2.0 * np.pi * 2.0**-53)
        assert (cos_t[-1], sin_t[-1]) == (1.0, 0.0)

    def test_within_an_ulp_scale_of_libm_and_on_the_unit_circle(self):
        n = 1_000_000  # words: half give radii, half angles
        raw = philox(RngStream(14, 0)).random_raw(n)
        u = documented_uniforms(raw)
        r, theta = np.sqrt(-2.0 * np.log(u[: n // 2])), 2.0 * np.pi * u[n // 2 :]
        z = RngStream(14, 0).normals(n).reshape(-1, 2)
        assert np.all(np.abs(z[:, 0] - r * np.cos(theta)) <= 1e-15 * r)
        assert np.all(np.abs(z[:, 1] - r * np.sin(theta)) <= 1e-15 * r)
        # sin**2 + cos**2 - 1, evaluated exactly up to ~1e-32 (each square as
        # hi + lo, the larger hi taken from 1 first, which is exact).
        (ch, cl), (sh, sl) = (exact_square(x) for x in rotate_unit(raw))
        big, small = np.maximum(ch, sh), np.minimum(ch, sh)
        deviation = ((big - 1.0) + small) + (cl + sl)
        assert np.abs(deviation).max() <= 4e-16


class TestRowStreams:
    def test_rows_draw_from_their_own_streams(self):
        D = 7  # odd, so each row's final Box-Muller pair is cut in half
        a, b = RngStream(5, 1), RngStream(5, 2)
        rows = RowStreams([a, b])
        first = rows.normals(2 * D)
        second = rows.normals(2 * D)
        fresh_a, fresh_b = RngStream(5, 1), RngStream(5, 2)
        assert np.array_equal(first, np.concatenate([fresh_a.normals(D), fresh_b.normals(D)]))
        assert np.array_equal(second, np.concatenate([fresh_a.normals(D), fresh_b.normals(D)]))

    def test_one_row_is_the_stream_itself(self):
        assert np.array_equal(
            RowStreams([RngStream(8, 0)]).normals(9), RngStream(8, 0).normals(9)
        )

    # Rows and per-row sizes where the read-ahead depth (_READ_AHEAD normals
    # over rows * words) and the pass's blocks straddle their bounds: 256 rows
    # read two 64-normal draws ahead, in one block, 400 rows one, 16 rows 32;
    # 513 rows of 64 split one draw over two blocks.
    @pytest.mark.parametrize("per", [1, 7, 63, 64, 65, 130])
    @pytest.mark.parametrize("rows", [1, 2, 16, 20, 33, 64, 256, 400, 513])
    def test_shared_pass_equals_per_stream_normals(self, rows, per):
        batch = RowStreams(RngStream(31, 0).child(i) for i in range(rows))
        alone = [RngStream(31, 0).child(i) for i in range(rows)]
        for _ in range(2):  # successive draws continue each row's stream
            expect = np.concatenate([s.normals(per) for s in alone])
            assert batch.normals(rows * per).tobytes() == expect.tobytes()

    # Odd sizes read one spare word a draw; 1025 rows of 63-65 read one draw
    # ahead, so every draw refills. The draws on each side of a refill are
    # checked, and the per-stream twins skip the words of the others.
    @pytest.mark.parametrize("per", [1, 63, 64, 65])
    @pytest.mark.parametrize("rows", [1, 16, 20, 1025])
    def test_draws_across_refills_equal_per_stream_normals(self, rows, per):
        batch = RowStreams(RngStream(32, 0).child(i) for i in range(rows))
        alone = [RngStream(32, 0).child(i) for i in range(rows)]
        words = 2 * ((per + 1) // 2)
        ahead = max(1, _READ_AHEAD // (rows * words))  # draws a refill reads
        for draw in range(2 * ahead + 1):  # the first fill and two refills
            got = batch.normals(rows * per)
            if draw % ahead in (0, ahead - 1):
                expect = np.concatenate([s.normals(per) for s in alone])
                assert got.tobytes() == expect.tobytes(), draw
            else:
                for s in alone:
                    s.uniforms(words)  # the words of one draw

    def test_child_rows_are_the_streams_children(self):
        streams = [RngStream(4, i) for i in range(3)]
        batch = RowStreams(streams).child(5)
        assert [s.stream_id for s in batch.streams] == [s.child(5).stream_id for s in streams]
        expect = np.concatenate([s.child(5).normals(6) for s in streams])
        assert batch.normals(18).tobytes() == expect.tobytes()

    def test_uneven_request_and_empty_set_rejected(self):
        rows = RowStreams(RngStream(0, i) for i in range(3))
        with pytest.raises(ValidationError):
            rows.normals(7)
        with pytest.raises(ValidationError):
            RowStreams([])

    def test_a_stream_object_serves_one_row(self):
        s = RngStream(3, 0)
        with pytest.raises(ValidationError, match="two rows"):
            RowStreams([s, RngStream(3, 1), s])
        # Equal but distinct streams are separate owners: each row gets the draws.
        twins = RowStreams([RngStream(3, 0), RngStream(3, 0)]).normals(10)
        assert twins[:5].tobytes() == twins[5:].tobytes() == RngStream(3, 0).normals(5).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from([1, 2, 16, 20, 33, 64, 130, 400, 513]),
        per=st.integers(1, 130),
        other=st.integers(1, 130),
        draws=st.integers(1, 12),
    )
    def test_one_draw_size_per_object(self, rows, per, other, draws):
        # Per-row sizes 1..130 read up to 16384 draws ahead, down to 1; each
        # draw of the one size is the next per-stream draw, and another size
        # is refused.
        batch = RowStreams(RngStream(41, 0).child(i) for i in range(rows))
        alone = [RngStream(41, 0).child(i) for i in range(rows)]
        for _ in range(draws):
            expect = np.concatenate([s.normals(per) for s in alone])
            assert batch.normals(rows * per).tobytes() == expect.tobytes()
        if other != per:
            with pytest.raises(ValidationError, match="normals a row"):
                batch.normals(rows * other)
        expect = np.concatenate([s.normals(per) for s in alone])
        assert batch.normals(rows * per).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("rows", [1, 3])
    def test_draws_wider_than_a_block(self, rows):
        # 2 * _BLOCK_VALUES + 1 to + 3 normals a row are wider than one pass,
        # so each row's words are read in blocks of pairs, the last block one
        # or two pairs; odd sizes drop the last sine. The draws alternate
        # between fresh arrays and out=, and follow the documented transform
        # of each stream's words. A RowStreams keeps one size either way.
        for per in [2 * _BLOCK_VALUES + extra for extra in (1, 2, 3)]:
            words = 2 * ((per + 1) // 2)
            batch = RowStreams(RngStream(37, 0).child(i) for i in range(rows))
            alone = [philox(RngStream(37, 0).child(i)) for i in range(rows)]
            buf = np.empty((rows, per))
            for draw in range(4):
                expect = documented_box_muller(np.stack([p.random_raw(words) for p in alone]), per)
                got = batch.normals(rows * per, out=buf if draw % 2 else None)
                assert got.tobytes() == expect.tobytes(), (per, draw)
            with pytest.raises(ValidationError, match="normals a row"):
                batch.normals(rows * 64)  # narrow after wide
        narrow = RowStreams(RngStream(37, 1).child(i) for i in range(rows))
        narrow.normals(rows * 64)
        with pytest.raises(ValidationError, match="normals a row"):
            narrow.normals(rows * per)  # wide after narrow

    @pytest.mark.parametrize("rows", [1, 16])
    def test_a_draw_belongs_to_its_caller(self, rows):
        # A draw keeps its bytes while later draws run three more read-aheads,
        # and a caller that writes into its draws changes no later draw.
        per = 64
        batch = RowStreams(RngStream(53, 0).child(i) for i in range(rows))
        twin = RowStreams(RngStream(53, 0).child(i) for i in range(rows))
        first = batch.normals(rows * per)
        kept = first.copy()
        assert first.tobytes() == twin.normals(rows * per).tobytes()
        for _ in range(3 * _READ_AHEAD // (rows * per) + 1):
            later = batch.normals(rows * per)
            assert later.tobytes() == twin.normals(rows * per).tobytes()
            later[:] = np.nan
        assert first.tobytes() == kept.tobytes()

    def test_back_to_back_chains_continue_each_row(self, field_model, sched50):
        # The reps loop of a depth: two reconstructions on one RowStreams.
        x = field_model.sample_x0(3, RngStream(43, 0))
        batch = RowStreams(RngStream(43, 1).child(i) for i in range(3))
        alone = [RowStreams([RngStream(43, 1).child(i)]) for i in range(3)]
        for t in (7, 12):
            rows = project_reconstruct_array(field_model, sched50, x, t, batch)
            for i, one in enumerate(alone):
                [row] = project_reconstruct_array(field_model, sched50, x[i : i + 1], t, one)
                assert row.tobytes() == rows[i].tobytes()


def bad_buffers(n):
    """Buffers that cannot take a draw of n normals: size, dtype, layout, writeability."""
    read_only = np.empty(n)
    read_only.flags.writeable = False
    return {
        "size": np.empty(n + 1),
        "dtype": np.empty(n, dtype=np.float32),
        "byte order": np.empty(n, dtype=">f8"),
        "strided": np.empty(2 * n)[::2],
        "fortran": np.empty((2, n // 2), order="F"),
        "read-only": read_only,
        "list": [0.0] * n,
    }


class TestDrawInto:
    """normals(n, out=buf) writes the bytes of normals(n) into buf and returns it."""

    # Odd n drops the last pair's sine; 2 * 16384 + 1 spans the pass's blocks
    # of 16384 pairs with a one-pair last block.
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 65, 1001, 2 * _BLOCK_VALUES + 1, 64000])
    def test_rng_stream_out_gets_the_bytes_of_a_fresh_draw(self, n):
        fresh, into = RngStream(61, 2), RngStream(61, 2)
        for _ in range(3):
            expect = fresh.normals(n)
            buf = np.full(n, np.nan)
            got = into.normals(n, out=buf)
            assert got is buf and buf.tobytes() == expect.tobytes()
        # Any C-contiguous shape of n values; a chain passes its (n, D) rows.
        buf = np.full((n // 4, 4), np.nan)
        assert into.normals(buf.size, out=buf) is buf
        assert buf.tobytes() == fresh.normals(buf.size).tobytes()

    @pytest.mark.parametrize("per", [1, 7, 64, 65])
    @pytest.mark.parametrize("rows", [1, 16, 20])
    def test_row_streams_out_gets_the_bytes_of_a_fresh_draw(self, rows, per):
        fresh = RowStreams(RngStream(62, 0).child(i) for i in range(rows))
        into = RowStreams(RngStream(62, 0).child(i) for i in range(rows))
        words = 2 * ((per + 1) // 2)
        ahead = max(1, _READ_AHEAD // (rows * words))  # draws a pass reads
        buf = np.empty((rows, per))
        for _ in range(ahead + 2):  # across a refill
            expect = fresh.normals(rows * per)
            buf[:] = np.nan
            assert into.normals(rows * per, out=buf) is buf
            assert buf.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("kind", ["one", "rows"])
    def test_a_bad_buffer_is_refused_before_the_stream_moves(self, kind):
        n = 64

        def stream():
            root = RngStream(63, 0)
            return root if kind == "one" else RowStreams(root.child(i) for i in range(2))

        fresh, into = stream(), stream()
        for draw in range(2):  # before and after the first pass
            for name, buf in bad_buffers(n).items():
                with pytest.raises(ValidationError, match="writeable C-contiguous"):
                    into.normals(n, out=buf)
            assert into.normals(n).tobytes() == fresh.normals(n).tobytes(), draw


def randn_grid(shape, rng):
    h, w, c = shape
    return Grid(rng.normals(h * w * c).reshape(shape))


class TestRandnGrid:
    """Standard-normal grids built as Grid(rng.normals(h*w*c).reshape(h, w, c))."""

    def test_single_value_determinism(self):
        a = randn_grid((1, 1, 1), RngStream(1234, 0))
        b = randn_grid((1, 1, 1), RngStream(1234, 0))
        assert a == b

    def test_moments_million_draws(self):
        # ~10^6 draws pooled over many grids of the documented shape.
        rng = RngStream(8, 0)
        pool = np.concatenate(
            [randn_grid((64, 64, 1), rng).values.reshape(-1) for _ in range(245)]
        )
        assert pool.size >= 1_000_000
        assert abs(pool.mean()) < 0.01
        assert abs(pool.var() - 1.0) < 0.01

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValidationError):
            randn_grid((0, 1, 1), RngStream(0, 0))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValidationError):
            Grid(RngStream(0, 0).normals(16).reshape(4, 4))


class TestGridStats:
    def test_randn_mean_near_zero(self):
        flat = randn_grid((100, 1000, 1), RngStream(3, 0)).values.reshape(-1)
        assert abs(flat.mean()) < 0.02
        assert abs(flat.var() - 1.0) < 0.05
