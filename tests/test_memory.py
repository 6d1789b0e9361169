"""Working memory of the bulk paths, in row arrays traced by ``tracemalloc``.

A row array is one (n, D) float64 array. ``validation_stats`` holds the
validation rows X, the chain's two buffers and one draw, a depth's summed
discrepancies and the model's and stream's scratch: 4.9-6.4 row arrays
here, X counted. ``sample_x0`` builds its rows in at most three. The sizes
are small enough to run in about a second and large enough that the scratch
of a block-wise pass is a fraction of a row array. A ``RowStreams`` refill
holds one read-ahead block, never the spent one beside the next, also when
the caller keeps a draw of a one-row stream (a view would pin its block).
"""

import tracemalloc

import numpy as np
import pytest
from conftest import exp_field, two_mode

from fuzzydiff import RngStream, RowStreams
from fuzzydiff.core import _BLOCK_VALUES
from fuzzydiff.projection import validation_stats

ROWS = 4096
DEPTHS = [8, 12]
# oracle: (builder, sample_x0 bound, validation_stats bound), in row arrays
BOUNDS = {"gmm_pixel": (two_mode, 5.0, 7.0), "gaussian_field": (exp_field, 3.0, 7.0)}


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
    build, sample_bound, stats_bound = BOUNDS[oracle]
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


@pytest.mark.parametrize("rows", [16, 1])
def test_row_streams_refill_holds_one_block(traced, rows):
    per = 64
    streams = RowStreams(RngStream(5, 0).child(i) for i in range(rows))
    per_fill = 4 * _BLOCK_VALUES // (rows * per)  # draws one read-ahead gives
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    kept = streams.normals(rows * per)  # the first fill; a chain keeps this draw
    first = _peak_since(base)
    for _ in range(3 * per_fill):  # three refills
        streams.normals(rows * per)
    refills = _peak_since(base)
    assert kept.shape == (rows * per,)
    assert refills <= first + 64 * 1024, f"refill peak {refills} B against first fill {first} B"
