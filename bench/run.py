"""fuzzydiff benchmark: CLI ops on pinned workloads, checked against the oracles.

Usage, from the root of a checkout (nothing needs installing; the sources
under ``src/`` are imported directly):

    python3 bench/run.py --workload fuzzy-rows --seed 1 --seconds 30 --trace 0

One run is one workload in its own process, driven as a closed loop with one
caller: each op is one in-process ``fuzzydiff.cli.entrypoint`` call with
``--workers 1``, and the next op starts when the previous one has returned.
Ops start until ``--seconds`` have passed. Every op's outputs are checked;
a nonzero exit, an exception or a failed check counts the op as failed and
the run goes on. After the timed ops, op 0 runs again with the same seed and
its output tree must match the first one byte for byte.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
timed ops, then the same ops again under the outside-in layer trace of
``layertrace.py``, and reports per-layer metrics per op. The last line of
stdout is the result object; the line before it holds the full report with
the machine's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

SETUP_REPEATS = 7

# Timed in a fresh interpreter: what a user waits for before the first op.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import fuzzydiff
from fuzzydiff.config import build_model, build_schedule, load_config
cfg = load_config(sys.argv[1])
build_schedule(cfg)
build_model(cfg, base_dir=sys.argv[2])
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "row_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics and their units. Values are per traced op, except the
# ratios and the overhead. A name ending in ".self_s" is the self time of the
# span named by the rest; any other name is a trace counter.
LAYER_UNITS = {
    "core.rng.normals.calls": "count/op",
    "core.rng.normals.values": "count/op",
    "core.rng.normals.self_s": "s/op",
    "core.rng.uniforms.self_s": "s/op",
    "core.rng.values_per_call": "values/call",
    "core.grid.constructs": "count/op",
    "core.grid.self_s": "s/op",
    "schedule.build.self_s": "s/op",
    "denoiser.gmm_pixel.predict.calls": "count/op",
    "denoiser.gmm_pixel.predict.rows": "rows/op",
    "denoiser.gmm_pixel.predict.self_s": "s/op",
    "denoiser.gaussian_field.predict.calls": "count/op",
    "denoiser.gaussian_field.predict.rows": "rows/op",
    "denoiser.gaussian_field.predict.self_s": "s/op",
    "denoiser.rows_per_call": "rows/call",
    "denoiser.sample_x0.self_s": "s/op",
    "denoiser.build.self_s": "s/op",
    "sampler.fuzzy.self_s": "s/op",
    "sampler.ancestral.self_s": "s/op",
    "projection.reconstruct.calls": "count/op",
    "projection.reconstruct.rows": "rows/op",
    "projection.reconstruct.self_s": "s/op",
    "projection.validation_stats.self_s": "s/op",
    "projection.attention_map.self_s": "s/op",
    "harness.experiment.self_s": "s/op",
    "harness.metrics.self_s": "s/op",
    "harness.degrade.self_s": "s/op",
    "gridio.write.calls": "count/op",
    "gridio.write.bytes": "B/op",
    "gridio.write.self_s": "s/op",
    "gridio.read.calls": "count/op",
    "gridio.read.bytes": "B/op",
    "gridio.read.self_s": "s/op",
    "config.load.self_s": "s/op",
    "cli.entrypoint.self_s": "s/op",
    "trace.overhead_s": "s",
}

PREDICT_SPANS = ("denoiser.gmm_pixel.predict", "denoiser.gaussian_field.predict")


class Ops:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, index: int, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"op {index}: {p}" for p in problems[:3])

    def run(self, index: int, out: Path, tracer=None) -> float | None:
        """One checked op; returns its wall time, or None if it raised.

        With a tracer, only the CLI call is traced, never the output checks.
        """
        from fuzzydiff import cli

        self.attempted += 1
        argv = self.workload.argv(out, index)
        traced = nullcontext() if tracer is None else tracer.installed(index)
        start = time.perf_counter()
        try:
            with traced:
                code = cli.entrypoint(argv)  # looked up per call, so the patch applies
        except Exception:
            self._fail(index, [traceback.format_exc(limit=3)])
            return None
        elapsed = time.perf_counter() - start
        if code != 0:
            self._fail(index, [f"exit code {code}"])
            return elapsed
        try:
            problems = self.workload.check(out)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self._fail(index, problems)
        return elapsed

    def closed_loop(self, seconds: float, out_root: Path, tracer=None) -> list[float]:
        """Ops 0, 1, ... back to back until ``seconds`` pass; op 0's tree is kept."""
        durations = []
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            out = out_root / f"op_{index:05d}"
            elapsed = self.run(index, out, tracer)
            if elapsed is not None:
                durations.append(elapsed)
            if index > 0:
                shutil.rmtree(out, ignore_errors=True)
            index += 1
        return durations

    def determinism_probe(self, first: Path, again: Path) -> None:
        """Rerun op 0 with its seed; the two --out trees must match byte for byte."""
        from workloads import tree_bytes

        failed = self.failed
        if self.run(0, again) is None or self.failed > failed:
            return
        if tree_bytes(first) != tree_bytes(again):
            self._fail(0, ["rerun with the same seed changed the --out tree"])


def measure_setup(config_path: Path, repeats: int) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config_path), str(config_path.parent)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def tail_percentile(durations: list[float]) -> dict:
    """The highest of p90/p99/p99.9 that has at least ten samples beyond it."""
    n = len(durations)
    fits = [p for p in (90, 99, 99.9) if round(n * (100 - p) / 100, 6) >= 10]
    if not fits:
        return {}
    return {"percentile": fits[-1], "value": sorted(durations)[int(fits[-1] / 100 * n)]}


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():  # a bare checkout is not a repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, n_ops: int, overhead: float) -> dict:
    counts, self_s = tracer.counts, tracer.self_times()
    derived = {
        "core.rng.values_per_call": _ratio(counts["core.rng.normals.values"],
                                           counts["core.rng.normals.calls"]),
        "denoiser.rows_per_call": _ratio(sum(counts[f"{p}.rows"] for p in PREDICT_SPANS),
                                         sum(counts[f"{p}.calls"] for p in PREDICT_SPANS)),
        "trace.overhead_s": overhead,
    }
    values = {}
    for name in LAYER_UNITS:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name.removesuffix(".self_s"), 0.0) / n_ops
        else:
            values[name] = counts[name] / n_ops
    return {name: {"value": v, "unit": LAYER_UNITS[name]} for name, v in values.items()}


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (result, report)."""
    from layertrace import Tracer
    from workloads import Workload

    work = WORK_DIR / f"run-{os.getpid()}"
    try:
        wl = Workload(args.workload, args.seed, work / "inputs", smoke=args.smoke)
        ops = Ops(wl)
        setup = [] if args.trace else measure_setup(
            wl.config_path, 1 if args.smoke else SETUP_REPEATS)
        durations = ops.closed_loop(args.seconds, work / "timed")
        ops.determinism_probe(work / "timed" / "op_00000", work / "probe")
        # A run without a finished op is incorrect; its times read 0 to stay valid JSON.
        op_p50 = statistics.median(durations) if durations else 0.0
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "environment": environment(),
            "ops": {"timed": len(durations), "row_steps_per_op": wl.row_steps,
                    "tail": tail_percentile(durations)},
        }
        correct = True
        if args.trace:
            tracer = Tracer()
            traced = ops.closed_loop(args.seconds, work / "traced", tracer=tracer)
            n_traced = max(1, len(traced))
            overhead = statistics.median(traced) - op_p50 if traced else 0.0
            metrics = layer_metrics(tracer, n_traced, overhead)
            WORK_DIR.mkdir(exist_ok=True)
            trace_path = WORK_DIR / f"trace-{args.workload}.npz"
            tracer.save(trace_path)
            # Every denoiser row the trace saw must be a row-step the config implies.
            rows = sum(tracer.counts[f"{p}.rows"] for p in PREDICT_SPANS)
            correct = bool(traced) and rows == len(traced) * wl.row_steps
            report["trace"] = {"path": str(trace_path.relative_to(ROOT)), "ops": len(traced),
                               "spans": len(tracer.start),
                               "row_steps_cross_check": {"traced_rows": rows,
                                                         "config_row_steps_per_op": wl.row_steps,
                                                         "holds": correct}}
        else:
            metrics = {
                "op_p50_s": op_p50,
                "row_steps_per_s": wl.row_steps * len(durations) / sum(durations)
                if durations else 0.0,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        error_rate = ops.failed / ops.attempted
        report["error_rate"] = {"value": error_rate, "unit": "ratio",
                                "failed": ops.failed, "attempted": ops.attempted}
        report["problems"] = ops.problems[:20]
        report["metrics"] = metrics
        result = {
            "correct": correct and ops.failed == 0 and bool(durations),
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": metrics,
        }
        return result, report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to about a second per op")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "fuzzydiff" / "__init__.py").is_file():
        print(f"error: no fuzzydiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import COMMANDS

    args = parse_args(argv, list(COMMANDS))
    result, report = run(args)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
