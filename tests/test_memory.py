"""Working memory of the bulk paths, in row arrays traced by ``tracemalloc``.

A row array is one (n, D) float64 array. Every chain step draws its noise
into a buffer the chain already holds, so a chain holds its buffers, the
model's and the stream's scratch, and no draw. ``validation_stats`` holds
the validation rows X, the chain's two buffers, a depth's summed
discrepancies and that scratch: 3.6-5.4 row arrays here, X counted.
``sample_x0`` builds its rows in at most three. The sizes are small enough
to run in about a second and large enough that the scratch of a block-wise
pass is a fraction of a row array. A ``RowStreams`` refill holds one
read-ahead buffer, whose words its Box-Muller pass turns into draws in place,
and five scratch rows; never the spent buffer beside the next, also when the
caller keeps a draw of a one-row stream (a view would pin its buffer). A
draw wider than one pass reads nothing ahead: it holds one block of words
beside the scratch rows.
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
# each once did, adds one row array and fails it.
# oracle: (builder, sample_x0 bound, validation_stats bound per reps), in row arrays
BOUNDS = {
    "gmm_pixel": (two_mode, 5.0, {1: 3.82, 3: 4.82}),  # measured 3.57, 4.57
    "gaussian_field": (exp_field, 3.0, {1: 4.69, 3: 5.69}),  # measured 4.44, 5.44
}
# Chains on the 8x8 field, its scratch made beforehand; the input rows and the
# streams exist before the trace starts. A chain's peak is reached within its
# first two steps, so a four-step schedule measures it.
CHAIN_BOUNDS = {
    "ancestral_sample_array, RngStream": 2.69,  # measured 2.44
    "ancestral_sample_array, RowStreams": 3.60,  # measured 3.35
    "project_reconstruct_array": 2.69,  # measured 2.44
    "fuzzy_sample J=2, RngStream": 9.94,  # measured 9.69
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
    # With the scratch made, a _radii and a _rotate pass over one block make
    # only small objects (measured 336 and 640 B on numpy 2.4), where a
    # uint64-by-float multiply would allocate numpy's 64 KiB cast buffer.
    n = _BLOCK_VALUES
    words = RngStream(8, 0).raw(2 * n)
    cos, sin = np.empty(n), np.empty(n)
    scratch = _Scratch(5)
    scratch.rows((n,))
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    _radii(words[:n], cos, scratch)
    _rotate(cos, sin, words[n:], scratch)
    peak = _peak_since(base)
    assert np.isfinite(cos).all() and np.isfinite(sin).all()
    assert peak < 4096, f"a _radii and a _rotate pass peak at {peak} B"


def test_row_streams_first_fill_holds_five_scratch_rows(traced):
    # A (16, 64) first fill reads 32 draws ahead, 256 KiB of words that the
    # Box-Muller pass turns into draws in place, in five 128 KiB scratch rows.
    # Measured 995 467 B on numpy 2.4, 77 963 B above words and scratch: the
    # 8 KiB draw, and 66 776 B that numpy allocates to shift the block's
    # strided radius words in _radii.
    rows, per = 16, 64
    streams = RowStreams(RngStream(5, 0).child(i) for i in range(rows))
    block, row = _READ_AHEAD * 8, _BLOCK_VALUES * 8
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    streams.normals(rows * per)
    peak = _peak_since(base)
    bound = block + 5 * row + row  # one row of slack
    assert peak <= bound, f"first fill peak {peak // 1024} KiB over {bound // 1024} KiB"


@pytest.mark.parametrize("rows", [16, 1])
def test_row_streams_refill_holds_one_block(traced, rows):
    # The chain keeps its first draw and draws the rest into a buffer it holds.
    # A refill then holds what the first fill did; 4 KiB covers the loop's own
    # objects, where a copy of one row's words (256 KiB at one row) would not fit.
    # Measured on numpy 2.4: 16 rows, first fill 994 419 B and refills
    # 995 218 B; one row, 986 595 B both.
    per = 64
    streams = RowStreams(RngStream(5, 0).child(i) for i in range(rows))
    buf = np.empty(rows * per)
    per_fill = _READ_AHEAD // (rows * per)  # draws one read-ahead gives
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    kept = streams.normals(rows * per)  # the first fill
    first = _peak_since(base)
    for _ in range(3 * per_fill):  # three refills
        streams.normals(rows * per, out=buf)
    refills = _peak_since(base)
    assert kept.shape == (rows * per,)
    assert refills <= first + 4096, f"refill peak {refills} B against first fill {first} B"


def test_row_streams_at_one_draw_ahead_hold_one_row_array(traced):
    # 4096 rows of 64 read one draw ahead: each draw is a refill, of one row
    # array of words that become the draw, copied into the chain's buffer.
    rows, per = 4096, 64
    streams = RowStreams(RngStream(5, 0).child(i) for i in range(rows))
    buf = np.empty(rows * per)
    row, array = _BLOCK_VALUES * 8, rows * per * 8
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    for _ in range(3):  # the first fill and two refills
        streams.normals(rows * per, out=buf)
    peak = _peak_since(base)
    bound = array + 5 * row + row  # one scratch row of slack
    assert peak <= bound, f"refill peak {peak // 1024} KiB over {bound // 1024} KiB"


@pytest.mark.parametrize("rows", [1, 3])
def test_row_streams_wide_draws_hold_no_read_ahead(traced, rows):
    # 2 * _BLOCK_VALUES + 3 normals a row are wider than one pass, so each row
    # is streamed into the draw: beside the draw, a draw holds the five 128 KiB
    # scratch rows and one block of words, and reads nothing ahead; 16 KiB
    # covers the loop's own objects. Measured on numpy 2.4: 791 917 B at one
    # row, 790 476 B at three.
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
    bound = 6 * row + 16384
    assert peak <= bound, f"wide draws peak {peak} B over {bound} B beside the draw"
