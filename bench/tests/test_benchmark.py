"""Tests of the benchmark itself: configs, metric names, op accounting, smoke runs.

Run from the repository root:  python3 -m pytest bench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from layertrace import Tracer, _probes  # noqa: E402
from workloads import COMMANDS, Workload, row_steps, template  # noqa: E402

from fuzzydiff.config import load_config  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_workload_config_passes_strict_load(name, smoke, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(template(name, smoke)))
    assert COMMANDS[name] in load_config(path)


def _loaded(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(template(name)))
    return load_config(path)


def test_row_steps_follow_the_configs(tmp_path):
    assert row_steps(_loaded("stats-gmm-batch", tmp_path)) == 1000 * (120 + 160)
    assert row_steps(_loaded("fuzzy-rows", tmp_path)) == 16 * (199 * 5 + 1)
    per_trial = (60 + 80 + 100 + 120) + 199 * 2 + 1 + 80
    assert row_steps(_loaded("eval-loop", tmp_path)) == 400 * 360 + 20 * per_trial


def test_spec_lists_what_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(COMMANDS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def test_tracer_restores_every_patched_name():
    before = [vars(owner)[attr] for owner, attr, _, _ in _probes()]
    with Tracer().installed(0):
        during = [vars(owner)[attr] for owner, attr, _, _ in _probes()]
    after = [vars(owner)[attr] for owner, attr, _, _ in _probes()]
    assert after == before
    assert all(a is not b for a, b in zip(before, during))


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    outer = tracer._wrap(lambda: inner(), "outer", None)
    inner = tracer._wrap(lambda: None, "inner", None)
    outer()
    spans = {name: tracer.end[i] - tracer.start[i]
             for i, name in enumerate(["outer", "inner"])}
    self_s = tracer.self_times()
    assert self_s["inner"] == pytest.approx(spans["inner"])
    assert self_s["outer"] == pytest.approx(spans["outer"] - spans["inner"])
    assert list(tracer.parent) == [-1, 0]


@pytest.fixture
def smoke_ops(tmp_path):
    return run.Ops(Workload("fuzzy-rows", 3, tmp_path / "inputs", smoke=True))


def test_failed_check_counts_and_the_loop_goes_on(smoke_ops, tmp_path):
    smoke_ops.workload.check = lambda out: ["injected"]
    durations = smoke_ops.closed_loop(0.0, tmp_path / "ops")
    durations += smoke_ops.closed_loop(0.0, tmp_path / "more")
    assert len(durations) == 2
    assert (smoke_ops.attempted, smoke_ops.failed) == (2, 2)


def test_determinism_probe_flags_a_changed_tree(smoke_ops, tmp_path):
    smoke_ops.closed_loop(0.0, tmp_path / "timed")
    first = tmp_path / "timed" / "op_00000"
    smoke_ops.determinism_probe(first, tmp_path / "again")
    assert smoke_ops.failed == 0
    (first / "fuzzy_0000.pgm").write_bytes(b"changed")
    smoke_ops.determinism_probe(first, tmp_path / "third")
    assert smoke_ops.failed == 1


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("name", list(COMMANDS))
def test_smoke_run_reports_layers_and_cross_check(name):
    done = _bench("--workload", name, "--seed", "5", "--seconds", "0.5",
                  "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-2])["report"]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert report["trace"]["row_steps_cross_check"]["holds"]
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    # Only the program's own reads count: the fuzzy probe image and weight map.
    want_reads = 2 if name == "fuzzy-rows" else 0
    assert result["metrics"]["gridio.read.calls"]["value"] == want_reads


def test_smoke_run_reports_end_to_end_metrics():
    done = _bench("--workload", "eval-loop", "--seed", "5", "--seconds", "0.5",
                  "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-2])["report"]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["error_rate"]["value"] == 0.0
    assert report["environment"]["nproc"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _bench("--workload", "fuzzy-rows", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
