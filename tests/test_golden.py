"""Golden bytes: the sha256 of every file a fixed set of small CLI runs writes.

The set covers all six commands on a K=3 6x6 ``gmm_pixel``, a 2-channel
``gmm_pixel``, and ``gaussian_field`` at 6x6 and 16x16 (the 16x16 field takes
the one-thread eigensolver path). ``sample`` and ``fuzzy`` run at counts 1, 18
and 19, and ``stats``, ``attend`` and ``eval`` with reps 2. The test reruns the
set and compares every hash with ``tests/golden.json``.

A change that moves artifact bytes on purpose regenerates the file, from the
root of a checkout, and names the moved runs and the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

The script prints the runs whose hashes differ from the previous file, one
a line, before it overwrites the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from fuzzydiff import Grid, write_grid
from fuzzydiff.cli import EXIT_OK, entrypoint

GOLDEN = Path(__file__).with_name("golden.json")
SEED = 5
T = 8

GMM_K3 = {"weights": [0.5, 0.3, 0.2], "means": [0.2, 0.5, 0.8], "variances": [0.004, 0.01, 0.006]}
MODELS = {
    "gmm6": dict(GMM_K3, type="gmm_pixel", height=6, width=6),
    "gmm4x4x2": dict(GMM_K3, type="gmm_pixel", height=4, width=4, channels=2),
    "field6": {"type": "gaussian_field", "height": 6, "width": 6},
    "field16": {"type": "gaussian_field", "height": 16, "width": 16},
}


def _inputs(name: str, model: dict) -> None:
    """The probe image and weight map of a model, from fixed ramps (no RNG)."""
    h, w, c = model["height"], model["width"], model.get("channels", 1)
    ramp = np.linspace(0.1, 0.9, h * w * c).reshape(h, w, c)
    write_grid(f"{name}_image.fdg", Grid(ramp))
    write_grid(f"{name}_map.fdg", Grid(np.linspace(0.0, 1.0, h * w).reshape(h, w, 1)))


def _runs(name: str) -> list[tuple[str, str, dict]]:
    """(run name, command, command section) of one model's part of the set."""
    image, weights = f"{name}_image.fdg", f"{name}_map.fdg"
    runs = [(f"sample{n}", "sample", {"count": n}) for n in (1, 18, 19)]
    runs += [(f"fuzzy{n}", "fuzzy", {"image": image, "map": weights, "count": n, "J": 2})
             for n in (1, 18, 19)]
    runs += [
        ("stats", "stats", {"v_count": 6, "reps": 2}),
        ("attend", "attend", {"image": image, "stats_dir": f"{name}/stats/stats", "reps": 2}),
        ("degrade", "degrade", {"image": None}),
        ("eval", "eval", {"trials": 2, "v_count": 6, "reps": 2, "record_artifacts": True}),
    ]
    return runs


def _hashes(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def corpus(root: Path) -> dict[str, dict[str, str]]:
    """Run the set inside ``root`` and return {run: {file: sha256}}.

    Inputs are named by paths relative to ``root`` so that each manifest,
    which records the config, is the same bytes in every directory.
    """
    hashes: dict[str, dict[str, str]] = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, model in MODELS.items():
            _inputs(name, model)
            for run, command, section in _runs(name):
                config = Path(f"{name}_{run}.json")
                payload = {"schedule": {"T": T, "beta_end": 0.3}, "model": model, command: section}
                config.write_text(json.dumps(payload))
                out = Path(name, run)
                argv = [command, "--config", str(config), "--out", str(out), "--seed", str(SEED)]
                if entrypoint(argv) != EXIT_OK:
                    raise RuntimeError(f"golden run {name}/{run} failed")
                hashes[f"{name}/{run}"] = _hashes(out)
    finally:
        os.chdir(cwd)
    return hashes


def moved_runs(expect: dict, got: dict) -> list[str]:
    """The runs of either corpus whose file hashes differ from the other's."""
    return sorted(run for run in expect.keys() | got.keys() if expect.get(run) != got.get(run))


def test_cli_artifacts_match_the_golden_corpus(tmp_path):
    expect = json.loads(GOLDEN.read_text())
    got = corpus(tmp_path)
    assert sorted(got) == sorted(expect)
    moved = moved_runs(expect, got)
    assert not moved, f"artifact bytes moved in {moved}; see the module docstring"


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        hashes = corpus(Path(tmp))
    for run in moved_runs(previous, hashes):
        print(run)
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
