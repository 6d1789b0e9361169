"""Exit-code contract: on any config, entrypoint returns 0, 2, 3 or 4 and never raises.

Configs are small (T <= 8, 2x2 grids) and mix valid values with out-of-range
depths, non-positive counts and trials, a number that is not finite, missing
input files and a corrupted statistics directory.
"""

import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzydiff
from fuzzydiff import Grid, write_grid
from fuzzydiff.cli import EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION, MAX_MANIFEST_BYTES, entrypoint
from fuzzydiff.config import MAX_CONFIG_BYTES
from fuzzydiff.projection import MAX_STATS_MANIFEST_BYTES

CONTRACT = {0, 2, 3, 4}
COMMANDS = ["sample", "fuzzy", "stats", "attend", "degrade", "eval"]

FIELD = {"type": "gaussian_field", "height": 2, "width": 2}
GMM = {
    "type": "gmm_pixel",
    "height": 2,
    "width": 2,
    "weights": [0.5, 0.5],
    "means": [0.25, 0.75],
    "variances": [0.005, 0.005],
}
MODELS = [
    FIELD,
    GMM,
    dict(FIELD, covariance_file="absent.fdg"),
    dict(GMM, variances=[0.1, -1.0]),
    dict(FIELD, marginal_variance=float("inf")),
]

# Input files as the config names them; each is written, missing, or malformed.
IMAGES = ["probe.fdg", "wide.fdg", "absent.fdg"]
MAPS = [0.5, 1.0, 1.5, "weights.fdg", "wide.fdg", "absent.fdg"]
STATS_DIRS = ["stats", "absent"]
STATS_DAMAGE = [None, "not json", "missing key", "missing grid", "wrong shape", "all wide"]

counts = st.integers(-2, 3)
small = st.integers(0, 2)


@st.composite
def scenarios(draw):
    T = draw(st.integers(1, 8))
    depth = st.integers(-2, T + 2)
    depths = st.none() | st.lists(depth, max_size=3)
    sides = st.none() | st.integers(-1, 3)
    cfg = {
        "schedule": {"T": T, "beta_start": 0.05, "beta_end": draw(st.sampled_from([0.3, 1.5]))},
        "model": draw(st.sampled_from(MODELS)),
        "sample": {"count": draw(counts)},
        "fuzzy": {
            "image": draw(st.sampled_from(IMAGES)),
            "map": draw(st.sampled_from(MAPS)),
            "count": draw(counts),
            "J": draw(small),
        },
        "stats": {"v_count": draw(counts), "depths": draw(depths), "reps": draw(small)},
        "attend": {
            "image": draw(st.sampled_from(IMAGES)),
            "stats_dir": draw(st.sampled_from(STATS_DIRS)),
        },
        "degrade": {
            "image": draw(st.none() | st.sampled_from(IMAGES)),
            "side_min": draw(sides),
            "side_max": draw(sides),
        },
        "eval": {
            "trials": draw(counts),
            "J": draw(small),
            "v_count": draw(st.integers(-1, 4)),
            "depths": draw(depths),
            "baseline_depth": draw(st.none() | depth),
            "side_min": draw(sides),
            "side_max": draw(sides),
            "record_artifacts": draw(st.booleans()),
        },
    }
    return {
        "cfg": cfg,
        "command": draw(st.sampled_from(COMMANDS)),
        "workers": draw(st.integers(1, 2)),
        "damage": draw(st.sampled_from(STATS_DAMAGE)),
        "rerun_with_force": draw(st.booleans()),
    }


def _absolute(cfg: dict, root: Path) -> dict:
    """Input paths resolve against the working directory, so anchor them at root."""
    for section, key in (("fuzzy", "image"), ("fuzzy", "map"), ("attend", "image"),
                         ("attend", "stats_dir"), ("degrade", "image")):
        if isinstance(cfg[section][key], str):
            cfg[section][key] = str(root / cfg[section][key])
    return cfg


def _write_inputs(root: Path, schedule: dict, damage) -> None:
    write_grid(root / "probe.fdg", Grid(np.full((2, 2, 1), 0.4)))
    write_grid(root / "weights.fdg", Grid(np.array([[1.0, 0.5], [0.0, 0.25]])[:, :, None]))
    write_grid(root / "wide.fdg", Grid(np.full((2, 3, 1), 0.5)))
    # Statistics for the field model, built through the CLI, then damaged.
    stats_cfg = root / "stats_cfg.json"
    valid = {"schedule": dict(schedule, beta_end=0.3), "model": FIELD,
             "stats": {"v_count": 3, "depths": [1]}}
    stats_cfg.write_text(json.dumps(valid))
    assert entrypoint(["stats", "--config", str(stats_cfg), "--out", str(root / "built")]) == 0
    (root / "built" / "stats").rename(root / "stats")
    manifest = root / "stats" / "manifest.json"
    if damage == "not json":
        manifest.write_text("{oops")
    elif damage == "missing key":
        manifest.write_text(json.dumps({"schema_version": 1, "depths": [1]}))
    elif damage == "missing grid":
        (root / "stats" / "sigma_00001.fdg").unlink()
    elif damage == "wrong shape":
        write_grid(root / "stats" / "mu_00001.fdg", Grid(np.zeros((3, 2, 1))))
    elif damage == "all wide":
        for name in ("mu_00001.fdg", "sigma_00001.fdg"):
            write_grid(root / "stats" / name, Grid(np.ones((2, 3, 1))))


@given(scenarios())
@settings(max_examples=50, deadline=None)
def test_entrypoint_only_returns_documented_codes(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root, scenario["cfg"]["schedule"], scenario["damage"])
        config = root / "cfg.json"
        config.write_text(json.dumps(_absolute(scenario["cfg"], root)))
        argv = [scenario["command"], "--config", str(config), "--out", str(root / "out"),
                "--workers", str(scenario["workers"])]
        assert entrypoint(argv) in CONTRACT
        if scenario["rerun_with_force"]:
            assert entrypoint(argv + ["--force"]) in CONTRACT


def _header(h: int, w: int, c: int) -> bytes:
    return b"FDG1" + struct.pack("<III", h, w, c)


def _sparse(path: Path, h: int = 2**16, w: int = 2**15) -> None:
    # A header that claims h*w values and a file of exactly that size, with
    # no data blocks: by default 2**31 values, which read whole need 16 GiB.
    path.write_bytes(_header(h, w, 1))
    os.truncate(path, 16 + 8 * h * w)


BAD_IMAGES = {
    "truncated": (lambda p: p.write_bytes(_header(2, 2, 1) + bytes(24)), EXIT_VALIDATION),
    "bad magic": (lambda p: p.write_bytes(b"NOPE" + _header(2, 2, 1)[4:] + bytes(32)),
                  EXIT_VALIDATION),
    "dimensions overflow": (lambda p: p.write_bytes(_header(2**32 - 1, 2**32 - 1, 2**32 - 1)),
                            EXIT_VALIDATION),
    "sparse 2**31 values": (_sparse, EXIT_VALIDATION),
    "nan payload": (lambda p: p.write_bytes(_header(2, 2, 1) + np.full(4, np.nan).tobytes()),
                    EXIT_VALIDATION),
    "fifo": (os.mkfifo, EXIT_IO),
}


# The CLI under a 1 GiB address-space limit: a read_grid that read a file
# whole before checking it fails with MemoryError instead of taking the
# machine's memory.
LIMITED_CLI = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from fuzzydiff.cli import main; main()"
)


def _assert_limited_cli_exits(code: int, *argv) -> str:
    """Run the CLI under LIMITED_CLI; it must exit with ``code`` and print no
    traceback. Returns its stderr."""
    src = str(Path(fuzzydiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # In a subprocess under a timeout, so a read that blocks on a FIFO fails
    # the test instead of hanging the suite.
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, "Traceback" in proc.stderr) == (code, False), proc.stderr
    return proc.stderr


@pytest.mark.parametrize("case", sorted(BAD_IMAGES))
def test_bad_image_files_end_in_a_documented_exit_code(tmp_path, case):
    write, code = BAD_IMAGES[case]
    image = tmp_path / "image.fdg"
    write(image)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"schedule": {"T": 4}, "model": GMM,
                                  "degrade": {"image": str(image)}}))
    _assert_limited_cli_exits(code, "degrade", "--config", config, "--out", tmp_path / "out")


def _attend_on_built_stats(root: Path) -> list:
    """attend argv on statistics the CLI builds into root/built/stats."""
    config = root / "cfg.json"
    config.write_text(json.dumps({
        "schedule": {"T": 4}, "model": GMM, "stats": {"v_count": 3, "depths": [1]},
        "attend": {"image": str(root / "probe.fdg"), "stats_dir": str(root / "built" / "stats")},
    }))
    assert entrypoint(["stats", "--config", str(config), "--out", str(root / "built")]) == 0
    return ["attend", "--config", config, "--out", root / "out"]


def _stats_with_a_wide_grid(root: Path) -> list:
    """attend argv on stats whose mu grid claims 2**24 values (a sparse 128 MiB file)."""
    argv = _attend_on_built_stats(root)
    _sparse(root / "built" / "stats" / "mu_00001.fdg", 2**12, 2**12)
    return argv


def _wide_weight_map(root: Path) -> list:
    """fuzzy argv with a weight map that claims 2**24 values (a sparse 128 MiB file)."""
    _sparse(root / "map.fdg", 2**12, 2**12)
    config = root / "cfg.json"
    config.write_text(json.dumps({
        "schedule": {"T": 4}, "model": GMM,
        "fuzzy": {"image": str(root / "probe.fdg"), "map": str(root / "map.fdg")},
    }))
    return ["fuzzy", "--config", config, "--out", root / "out"]


WRONG_SHAPES = {"stats grid": _stats_with_a_wide_grid, "weight map": _wide_weight_map}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_wrong_shape_inputs_exit_4_after_the_header(tmp_path, case):
    # read_grid's shape error comes from the header, before the payload is read.
    write_grid(tmp_path / "probe.fdg", Grid(np.full((2, 2, 1), 0.4)))
    stderr = _assert_limited_cli_exits(EXIT_VALIDATION, *WRONG_SHAPES[case](tmp_path))
    assert "grid shape (4096, 4096, 1) is not (2, 2, 1)" in stderr, stderr


# JSON nested 10**5 deep: Python's json raises RecursionError on it.
DEEP_JSON = "[" * 10**5 + "]" * 10**5


def _deep_stats_manifest(root: Path) -> list:
    argv = _attend_on_built_stats(root)
    (root / "built" / "stats" / "manifest.json").write_text(DEEP_JSON)
    return argv


def _sparse_stats_manifest(root: Path) -> list:
    # The valid manifest, padded with 3 GiB of zero bytes and no data blocks.
    argv = _attend_on_built_stats(root)
    os.truncate(root / "built" / "stats" / "manifest.json", 3 << 30)
    return argv


def _deep_previous_manifest(root: Path) -> list:
    config = root / "cfg.json"
    config.write_text(json.dumps({"schedule": {"T": 4}, "model": GMM}))
    (root / "out").mkdir()
    (root / "out" / "manifest.json").write_text(DEEP_JSON)
    return ["sample", "--config", config, "--out", root / "out", "--force"]


def _wide_covariance(root: Path) -> list:
    # A 2x2 field needs a 4x4x1 covariance; this one claims 2**24 values.
    _sparse(root / "cov.fdg", 2**12, 2**12)
    config = root / "cfg.json"
    model = dict(FIELD, covariance_file=str(root / "cov.fdg"))
    config.write_text(json.dumps({"schedule": {"T": 4}, "model": model}))
    return ["sample", "--config", config, "--out", root / "out"]


# case: (argv builder, exit code, what stderr must say)
BAD_READS = {
    "deep stats manifest": (_deep_stats_manifest, EXIT_VALIDATION, "malformed stats manifest"),
    "deep previous manifest": (
        _deep_previous_manifest, EXIT_VALIDATION, "cannot read previous manifest"
    ),
    "sparse 3 GiB stats manifest": (
        _sparse_stats_manifest, EXIT_VALIDATION, f"bytes, over {MAX_STATS_MANIFEST_BYTES}"
    ),
    "wide covariance": (
        _wide_covariance, EXIT_CONFIG, "grid shape (4096, 4096, 1) is not (4, 4, 1)"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_READS))
def test_nested_oversized_and_wrong_shape_files_exit_cleanly(tmp_path, case):
    # A covariance is checked from its header; manifests are neither parsed
    # past Python's recursion limit nor read past a cap.
    build, code, message = BAD_READS[case]
    write_grid(tmp_path / "probe.fdg", Grid(np.full((2, 2, 1), 0.4)))
    stderr = _assert_limited_cli_exits(code, *build(tmp_path))
    assert message in stderr, stderr


# The default eval.trials (20) and stats.v_count (1000) times 2**20 values per
# row exceed the 2**24 row cap; a 2**30-value model does not fit even one row.
CAP_PROBES = [
    ("eval", dict(GMM, height=2**10, width=2**10)),
    ("stats", dict(GMM, height=2**10, width=2**10)),
    ("degrade", dict(GMM, height=2**15, width=2**15)),
    ("sample", dict(GMM, height=2**15, width=2**15)),
]


@pytest.mark.parametrize("command,model", CAP_PROBES, ids=[c for c, _ in CAP_PROBES])
def test_defaults_and_models_over_the_row_cap_exit_2(tmp_path, command, model):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"schedule": {"T": 4}, "model": model}))
    _assert_limited_cli_exits(EXIT_CONFIG, command, "--config", config, "--out", tmp_path / "out")


def _oversized(path: Path) -> None:
    # A valid config padded past the cap with whitespace.
    config = {"schedule": {"T": 4}, "model": GMM}
    path.write_text(json.dumps(config).ljust(MAX_CONFIG_BYTES + 1))


BAD_CONFIGS = {
    "fifo": os.mkfifo,
    "oversized": _oversized,
    "not utf-8": lambda p: p.write_bytes(b'{"schedule": {"T": 4\xff}}'),
    "nested too deep": lambda p: p.write_text("[" * 10**5 + "]" * 10**5),
    "duplicate key": lambda p: p.write_text(
        '{"schedule": {"T": 4, "T": 6}, "model": %s}' % json.dumps(GMM)
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_config_files_that_cannot_be_read_or_parsed_exit_2(tmp_path, case):
    config = tmp_path / "cfg.json"
    BAD_CONFIGS[case](config)
    _assert_limited_cli_exits(EXIT_CONFIG, "sample", "--config", config, "--out", tmp_path / "out")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_config_exits_2(tmp_path):
    _assert_limited_cli_exits(EXIT_CONFIG, "sample", "--config", "/dev/zero",
                              "--out", tmp_path / "out")


def test_an_oversized_previous_manifest_exits_4_unread(tmp_path):
    # The previous run's manifest, padded with 3 GiB of zero bytes and no data
    # blocks: refused from its stat size, with --out left as it was.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"schedule": {"T": 4}, "model": GMM}))
    out = tmp_path / "out"
    assert entrypoint(["sample", "--config", str(config), "--out", str(out)]) == 0
    os.truncate(out / "manifest.json", 3 << 30)
    before = {p.name: p.stat().st_size for p in out.iterdir()}
    sample = (out / "sample_0000.fdg").read_bytes()
    stderr = _assert_limited_cli_exits(
        EXIT_VALIDATION, "sample", "--config", config, "--out", out, "--force"
    )
    assert f"bytes, over {MAX_MANIFEST_BYTES}" in stderr, stderr
    assert {p.name: p.stat().st_size for p in out.iterdir()} == before
    assert (out / "sample_0000.fdg").read_bytes() == sample


def test_a_previous_manifest_that_is_not_a_regular_file_exits_3(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"schedule": {"T": 4}, "model": GMM}))
    out = tmp_path / "out"
    out.mkdir()
    os.mkfifo(out / "manifest.json")
    _assert_limited_cli_exits(EXIT_IO, "sample", "--config", config, "--out", out, "--force")
