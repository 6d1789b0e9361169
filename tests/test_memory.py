"""Working memory of the bulk paths, in row arrays traced by ``tracemalloc``.

A row array is one (n, D) float64 array. Every chain step draws its noise
into a buffer the chain already holds, so a chain holds its buffers, the
model's and the stream's scratch, and no draw. ``validation_stats`` holds
the validation rows X, the chain's two buffers, a depth's summed
discrepancies and that scratch: 3.6-5.4 row arrays here, X counted.
``sample_x0`` builds its rows in at most three. The sizes are small enough
to run in about a second and large enough that the scratch of a block-wise
pass is a fraction of a row array. Every draw fills its uniforms in place,
so no draw holds a block of raw words. A ``RowStreams`` refill holds one
read-ahead buffer, whose uniforms its Box-Muller pass turns into draws in
place, and five scratch rows; never the spent buffer beside the next, also
when the caller keeps a draw of a one-row stream (a view would pin its
buffer). A draw wider than one pass reads nothing ahead: it holds only the
scratch rows.
"""

import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  RngStream's first use imports it; no bound counts that
import pytest
from conftest import exp_field, two_mode

from fuzzydiff import RngStream, RowStreams, fuzzy_sample, linear_schedule
from fuzzydiff.core import _BLOCK_VALUES, _READ_AHEAD, _radii, _rotate, _Scratch
from fuzzydiff.projection import attention_map, project_reconstruct_array, validation_stats
from fuzzydiff.sampler import ancestral_sample_array

ROWS = 4096
DEPTHS = [8, 12]
# Every bound below is the peak measured on numpy 2.4 plus 0.25 row arrays
# of slack (512 KiB here); a chain step that allocated its own noise, as
# each once did, adds one row array and fails it. The validation_stats and
# RngStream chain peaks fell by 0.03-0.06 row arrays when the Box-Muller pass
# stopped shifting strided radius words (e.g. gmm_pixel reps 3: 4.50 -> 4.44).
# oracle: (builder, sample_x0 bound, validation_stats bound per reps), in row arrays
BOUNDS = {
    "gmm_pixel": (two_mode, 5.0, {1: 3.72, 3: 4.69}),  # measured 3.47, 4.44
    "gaussian_field": (exp_field, 3.0, {1: 4.60, 3: 5.60}),  # measured 4.35, 5.35
}
# Chains on the 8x8 field, its scratch made beforehand; the input rows and the
# streams exist before the trace starts. A chain's peak is reached within its
# first two steps, so a four-step schedule measures it.
CHAIN_BOUNDS = {
    "ancestral_sample_array, RngStream": 2.60,  # measured 2.35
    "ancestral_sample_array, RowStreams": 3.60,  # measured 3.35
    "project_reconstruct_array": 2.60,  # measured 2.35
    "fuzzy_sample J=2, RngStream": 9.85,  # measured 9.60
    "fuzzy_sample J=2, RowStreams": 10.85,  # measured 10.60
    "attention_map": 4.60,  # measured 4.35, two depths' maps and the scores
}


@pytest.fixture
def traced():
    """Trace allocations for one test; a trace already running is kept."""
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    yield
    if not running:
        tracemalloc.stop()


def _peak_since(base: int) -> int:
    return tracemalloc.get_traced_memory()[1] - base


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("oracle", sorted(BOUNDS))
def test_bulk_paths_stay_within_their_row_arrays(traced, sched50, oracle, reps):
    build, sample_bound, stats_bounds = BOUNDS[oracle]
    stats_bound = stats_bounds[reps]
    model = build()  # fresh, so its scratch is made, and counted, under the trace
    row = ROWS * model.dim * 8
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    X = model.sample_x0(ROWS, RngStream(3, 0))
    sample_peak = _peak_since(base) / row
    tracemalloc.reset_peak()
    stats = validation_stats(model, sched50, X, DEPTHS, reps, RngStream(4, 1))
    stats_peak = _peak_since(base) / row  # X is alive, so it is counted
    assert X.shape == (ROWS, model.dim) and np.isfinite(X).all()
    assert stats.depths == tuple(DEPTHS)
    over = {name: round(peak, 2) for name, peak, bound in [
        ("sample_x0", sample_peak, sample_bound),
        ("validation_stats", stats_peak, stats_bound),
    ] if peak > bound}
    assert not over, f"peaks over their bounds, in row arrays: {over}"


@pytest.mark.parametrize("path", sorted(CHAIN_BOUNDS))
def test_chains_draw_into_buffers_they_hold(traced, path):
    model, s = exp_field(), linear_schedule(4, 1e-2, 0.2)
    D = model.dim
    model.predict_array(np.zeros((ROWS, D)), 1, s, out=np.empty((ROWS, D)))  # its scratch
    X = model.sample_x0(ROWS, RngStream(6, 0))
    image, m = X[0].reshape(model.shape), RngStream(6, 1).uniforms(D).reshape(model.shape)
    stats = validation_stats(model, s, X[:64], [2, 3], 1, RngStream(6, 2))
    rng = RngStream(7, 0)
    if path.endswith("RowStreams"):
        rng = RowStreams(rng.child(i) for i in range(ROWS))
    run = {
        "ancestral_sample_array": lambda: ancestral_sample_array(model, s, ROWS, rng),
        "project_reconstruct_array": lambda: project_reconstruct_array(model, s, X, 4, rng),
        "fuzzy_sample J=2": lambda: fuzzy_sample(model, s, image, m, 2, ROWS, rng),
        "attention_map": lambda: attention_map(X.reshape(ROWS, *model.shape), stats, model, s, rng),
    }[path.split(",")[0]]
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = run()
    peak = _peak_since(base) / (ROWS * D * 8)
    assert out.shape[0] == ROWS and np.isfinite(out).all()
    assert peak <= CHAIN_BOUNDS[path], f"{path} peaks at {peak:.2f} row arrays"


def test_box_muller_halves_allocate_no_cast_buffer(traced):
    # With the scratch made, a _radii and a _rotate pass over one block of
    # uniforms make only small objects (measured 515-576 and 630 B on numpy 2.4),
    # where a mixed-type step (the float-to-index cast) would allocate numpy's
    # 64 KiB cast buffer.
    n = _BLOCK_VALUES
    u = RngStream(8, 0).uniforms(2 * n)
    cos, sin = np.empty(n), np.empty(n)
    scratch = _Scratch(5)
    scratch.rows((n,))
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    _radii(u[:n], cos)
    _rotate(cos, sin, u[n:], scratch)
    peak = _peak_since(base)
    assert np.isfinite(cos).all() and np.isfinite(sin).all()
    assert peak < 4096, f"a _radii and a _rotate pass peak at {peak} B"


def test_row_streams_first_fill_holds_five_scratch_rows(traced):
    # A (16, 64) first fill reads 32 draws ahead, 256 KiB of uniforms that the
    # Box-Muller pass turns into draws in place, in five 128 KiB scratch rows.
    # Measured 929 763 B on numpy 2.4, 12 259 B above that buffer and the
    # scratch: the 8 KiB draw and the loop's own objects. Before the pass
    # copied a block's radius uniforms into a scratch row it was 995 467 B,
    # 66 776 B more, which numpy allocated to shift strided radius words.
    rows, per = 16, 64
    streams = RowStreams(RngStream(5, 0).child(i) for i in range(rows))
    block, row = _READ_AHEAD * 8, _BLOCK_VALUES * 8
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    streams.normals(rows * per)
    peak = _peak_since(base)
    bound = block + 5 * row + 16384
    assert peak <= bound, f"first fill peak {peak} B over {bound} B"


@pytest.mark.parametrize("rows", [16, 1])
def test_row_streams_refill_holds_one_block(traced, rows):
    # The chain keeps its first draw and draws the rest into a buffer it holds.
    # A refill fills the buffer of the spent pass, so above the memory the
    # first fill left (warm) refills hold only the loop's own objects: 4 KiB
    # covers those, where one row's words or a shift buffer (64 KiB) would not
    # fit. Measured on numpy 2.4: first fill 929 763 B at 16 rows and
    # 921 067 B at one row; refills 2 720 and 2 784 B above warm, against
    # 68 312 and 68 281 B when each refill shifted strided radius words.
    per = 64
    streams = RowStreams(RngStream(5, 0).child(i) for i in range(rows))
    buf = np.empty(rows * per)
    per_fill = _READ_AHEAD // (rows * per)  # draws one read-ahead gives
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    kept = streams.normals(rows * per)  # the first fill
    first = _peak_since(base)
    warm = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    for _ in range(3 * per_fill):  # three refills
        streams.normals(rows * per, out=buf)
    refills = _peak_since(warm)
    assert kept.shape == (rows * per,)
    assert refills <= 4096, f"refills peak {refills} B above warm, first fill {first} B"


def test_row_streams_at_one_draw_ahead_hold_one_row_array(traced):
    # 4096 rows of 64 read one draw ahead: each draw is a refill, of one row
    # array of uniforms that become the draw, copied into the chain's buffer.
    # Measured on numpy 2.4: 7 054 B above the row array and the five scratch
    # rows, against 73 206 B when each block shifted strided radius words.
    rows, per = 4096, 64
    streams = RowStreams(RngStream(5, 0).child(i) for i in range(rows))
    buf = np.empty(rows * per)
    row, array = _BLOCK_VALUES * 8, rows * per * 8
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    for _ in range(3):  # the first fill and two refills
        streams.normals(rows * per, out=buf)
    peak = _peak_since(base)
    bound = array + 5 * row + 16384
    assert peak <= bound, f"refill peak {peak // 1024} KiB over {bound // 1024} KiB"


@pytest.mark.parametrize("rows", [1, 3])
def test_row_streams_wide_draws_hold_no_read_ahead(traced, rows):
    # 2 * _BLOCK_VALUES + 3 normals a row are wider than one pass, so each row
    # is streamed into the draw: beside the draw, a draw holds the five 128 KiB
    # scratch rows, which take its uniforms, and reads nothing ahead; 16 KiB
    # covers the loop's own objects. Measured on numpy 2.4: 659 363 B at one
    # row, 658 691 B at three, against 790 172 and 789 516 B when each block
    # of words was a fresh array beside the scratch.
    per = 2 * _BLOCK_VALUES + 3
    streams = RowStreams(RngStream(5, 0).child(i) for i in range(rows))
    buf = np.empty(rows * per)
    row = _BLOCK_VALUES * 8
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    kept = streams.normals(rows * per)  # the first draw
    for _ in range(2):
        streams.normals(rows * per, out=buf)
    peak = _peak_since(base) - kept.nbytes
    bound = 5 * row + 16384
    assert peak <= bound, f"wide draws peak {peak} B over {bound} B beside the draw"


def test_uniforms_hold_one_array(traced):
    # numpy fills the float64 uniforms and the pinned map adds 2**-53 in
    # place. Measured on numpy 2.4: 512 240 B for 64 000 uniforms, against
    # 1 091 496 B when raw words were mapped through a cast buffer.
    n = 64000
    stream = RngStream(9, 0)
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    u = stream.uniforms(n)
    peak = _peak_since(base)
    assert u.shape == (n,)
    assert peak <= u.nbytes + 4096, f"uniforms({n}) peak {peak} B"


def test_warm_normals_into_out_hold_no_word_block(traced):
    # A draw into the caller's buffer, with the stream's scratch made, fills
    # its uniforms in the scratch rows. Measured on numpy 2.4: 1 869 B for
    # 64 000 normals, against 133 085 B when each block of words was a fresh
    # array.
    n = 64000
    stream, buf = RngStream(9, 1), np.empty(n)
    stream.normals(n, out=buf)  # makes the scratch
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    stream.normals(n, out=buf)
    peak = _peak_since(base)
    assert peak <= 4096, f"warm normals({n}, out=) peak {peak} B"
