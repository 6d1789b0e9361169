import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fuzzydiff import Grid, RngStream, ValidationError, read_grid, write_grid
from fuzzydiff import gridio
from fuzzydiff.gridio import MAX_GRID_VALUES, read_json, write_json, write_preview


def test_roundtrip_bit_exact(tmp_path):
    g = Grid(RngStream(1, 0).normals(105).reshape(5, 7, 3))
    path = tmp_path / "g.fdg"
    write_grid(path, g)
    assert read_grid(path) == g


@given(
    arrays(
        np.float64,
        array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=5),
        elements=st.floats(-1e12, 1e12),
    )
)
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(tmp_path_factory, vals):
    path = tmp_path_factory.mktemp("io") / "g.fdg"
    g = Grid(vals)
    write_grid(path, g)
    assert read_grid(path) == g


def test_header_layout(tmp_path):
    g = Grid(np.array([[[1.5]]]))
    path = tmp_path / "one.fdg"
    write_grid(path, g)
    blob = path.read_bytes()
    assert blob[:4] == b"FDG1"
    assert blob[4:16] == (1).to_bytes(4, "little") * 3
    assert np.frombuffer(blob[16:], dtype="<f8")[0] == 1.5
    assert len(blob) == 24


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fdg"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValidationError, match="magic"):
        read_grid(path)


def test_rejects_truncated_payload(tmp_path):
    g = Grid(RngStream(2, 0).normals(4).reshape(2, 2, 1))
    path = tmp_path / "t.fdg"
    write_grid(path, g)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValidationError, match="size"):
        read_grid(path)


def test_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "nan.fdg"
    blob = b"FDG1" + (1).to_bytes(4, "little") * 3 + np.array([np.nan]).tobytes()
    path.write_bytes(blob)
    with pytest.raises(ValidationError):
        read_grid(path)


def test_rejects_short_header(tmp_path):
    path = tmp_path / "short.fdg"
    path.write_bytes(b"FDG1" + bytes(4))
    with pytest.raises(ValidationError, match="truncated"):
        read_grid(path)


@pytest.mark.parametrize(
    "dims,match", [((2**12, 2**12, 1), "file size"), ((2**12, 2**12, 2), "exceeds")]
)
def test_value_cap_is_checked_before_the_payload(tmp_path, dims, match):
    # Headers only: the cap of 2**24 values is inclusive, and a grid over it
    # is rejected before its size is even compared.
    assert dims[0] * dims[1] == MAX_GRID_VALUES
    path = tmp_path / "big.fdg"
    path.write_bytes(b"FDG1" + struct.pack("<III", *dims))
    with pytest.raises(ValidationError, match=match):
        read_grid(path)


def test_rejects_what_is_not_a_regular_file(tmp_path):
    with pytest.raises(OSError, match="not a regular file"):
        read_grid(tmp_path)


def _refuse_open(*args, **kwargs):
    raise AssertionError("opened")


def test_read_json_bound_is_inclusive_and_checked_before_open(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    write_json(path, {"b": [1, 2], "a": 0.5})
    assert path.read_text() == '{\n  "a": 0.5,\n  "b": [\n    1,\n    2\n  ]\n}\n'
    size = path.stat().st_size
    assert read_json(path, size) == {"a": 0.5, "b": [1, 2]}
    monkeypatch.setattr(gridio, "open", _refuse_open, raising=False)
    with pytest.raises(ValidationError, match=f"{size} bytes, over {size - 1}"):
        read_json(path, size - 1)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_read_json_refuses_a_fifo_unopened(tmp_path, monkeypatch):
    # Opening a FIFO with no writer would block; the stat refuses it first.
    path = tmp_path / "fifo.json"
    os.mkfifo(path)
    monkeypatch.setattr(gridio, "open", _refuse_open, raising=False)
    with pytest.raises(OSError, match="not a regular file"):
        read_json(path, 2**20)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_grid(tmp_path / "absent.fdg")


def test_pgm_quantization(tmp_path):
    g = Grid(np.array([0.0, 0.5, 1.0, -0.3, 1.7, 0.25]).reshape(2, 3, 1))
    path = write_preview(tmp_path / "p", g)
    blob = path.read_bytes()
    header, pixels = blob.split(b"\n255\n", 1)
    assert header == b"P5\n3 2"
    assert list(pixels) == [0, 128, 255, 0, 255, 64]


def test_pgm_uses_channel_zero(tmp_path):
    vals = np.zeros((1, 2, 2))
    vals[:, :, 0] = [0.0, 1.0]
    vals[:, :, 1] = 0.5
    path = write_preview(tmp_path / "c0", Grid(vals))
    assert path.read_bytes() == b"P5\n2 1\n255\n" + bytes([0, 255])


def test_ppm_requires_three_channels(tmp_path):
    blob = write_preview(tmp_path / "ok", Grid(np.zeros((2, 2, 3)))).read_bytes()
    assert blob.startswith(b"P6\n2 2\n255\n")
    assert len(blob) == len(b"P6\n2 2\n255\n") + 12


def test_preview_picks_format(tmp_path):
    mono = write_preview(tmp_path / "a", Grid(np.zeros((2, 2, 1))))
    rgb = write_preview(tmp_path / "b", Grid(np.zeros((2, 2, 3))))
    assert mono.suffix == ".pgm"
    assert rgb.suffix == ".ppm"
    assert mono.exists() and rgb.exists()
