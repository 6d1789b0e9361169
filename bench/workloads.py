"""The benchmark workloads: config, generated inputs, implied row-steps, output checks.

Each workload is one CLI subcommand on one checked-in config under
``configs/``. Inputs are generated from the workload seed; the program only
sees the files. Output checks test properties the oracles guarantee, never
bytes recorded from an earlier commit, so changes that legitimately move low
bits or draw layouts still pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from fuzzydiff.config import build_model, build_schedule, load_config
from fuzzydiff.core import Grid
from fuzzydiff.gridio import read_grid, write_grid
from fuzzydiff.projection import ValidationStats

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

COMMANDS = {
    "stats-gmm-batch": "stats",
    "fuzzy-rows": "fuzzy",
    "eval-loop": "eval",
}

# Smoke sizes keep every code path and check of a workload but finish in about
# a second; the benchmark's own tests use them.
SMOKE = {
    "stats-gmm-batch": {"stats": {"v_count": 100}},
    "fuzzy-rows": {"fuzzy": {"count": 2}},
    "eval-loop": {"eval": {"trials": 4, "v_count": 100}},
}

# Criterion 8 asks for 15 wins in 20 trials; smoke runs scale it by trials.
MIN_WIN_SHARE = 0.75


def template(name: str, smoke: bool = False) -> dict:
    """The raw config of a workload, shrunk to smoke size on request."""
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    if smoke:
        for section, values in SMOKE[name].items():
            cfg[section].update(values)
    return cfg


def row_steps(cfg: dict) -> int:
    """Denoiser row-steps one op performs, implied by the config alone.

    Batching changes how rows are grouped into calls, never this count.
    """
    T = cfg["schedule"]["T"]
    if "stats" in cfg:
        s = cfg["stats"]
        return s["v_count"] * s["reps"] * sum(s["depths"])
    if "fuzzy" in cfg:
        f = cfg["fuzzy"]
        return f["count"] * ((T - 1) * f["J"] + 1)
    e = cfg["eval"]
    depth_steps = e["reps"] * sum(e["depths"])
    per_trial = depth_steps + (T - 1) * e["J"] + 1 + e["baseline_depth"]
    return e["v_count"] * depth_steps + e["trials"] * per_trial


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out: Path) -> list[str]:
    """Every file under ``out`` is listed in manifest.json with its hash."""
    files = json.loads((out / "manifest.json").read_text())["files"]
    present = {
        p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()
    } - {"manifest.json"}
    problems = []
    if set(files) != present:
        problems.append(f"manifest lists {len(files)} files, out has {len(present)}")
    problems += [f"{rel}: hash differs from manifest" for rel, digest in files.items()
                 if (out / rel).is_file() and _sha256(out / rel) != digest]
    return problems


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class Workload:
    """One workload's config, generated inputs and checks, built from its seed."""

    def __init__(self, name: str, seed: int, work_dir: Path, smoke: bool = False) -> None:
        self.command = COMMANDS[name]
        self.seed = seed
        work_dir.mkdir(parents=True, exist_ok=True)
        raw = template(name, smoke)
        if self.command == "fuzzy":
            raw["fuzzy"].update(self._write_fuzzy_inputs(raw, work_dir))
        self.config_path = work_dir / "config.json"
        self.config_path.write_text(json.dumps(raw, indent=2))
        self.cfg = load_config(self.config_path)
        self.model = build_model(self.cfg, base_dir=work_dir)
        self.schedule = build_schedule(self.cfg)
        self.row_steps = row_steps(self.cfg)

    def _write_fuzzy_inputs(self, raw: dict, work_dir: Path) -> dict:
        """Probe image plus a weight map: m=1 on a rectangle, fractional elsewhere."""
        h, w = raw["model"]["height"], raw["model"]["width"]
        rng = np.random.default_rng([self.seed, 0])
        image = np.clip(0.5 + 0.2 * rng.standard_normal((h, w, 1)), 0.0, 1.0)
        weights = rng.uniform(0.05, 0.95, (h, w, 1))
        side_h, side_w = rng.integers(2, h // 2 + 2), rng.integers(2, w // 2 + 2)
        y0, x0 = rng.integers(0, h - side_h + 1), rng.integers(0, w - side_w + 1)
        weights[y0 : y0 + side_h, x0 : x0 + side_w] = 1.0
        self.image, self.weights = image, weights
        paths = {"image": work_dir / "probe.fdg", "map": work_dir / "weights.fdg"}
        write_grid(paths["image"], Grid(image))
        write_grid(paths["map"], Grid(weights))
        return {key: str(path) for key, path in paths.items()}

    def op_seed(self, index: int) -> int:
        """The CLI --seed of op ``index``, derived from the workload seed."""
        return int(np.random.default_rng([self.seed, 1, index]).integers(2**63))

    def argv(self, out: Path, index: int) -> list[str]:
        return [
            self.command,
            "--config", str(self.config_path),
            "--out", str(out),
            "--seed", str(self.op_seed(index)),
            "--workers", "1",
        ]

    def check(self, out: Path) -> list[str]:
        """Problems with one op's outputs; an empty list means the op is correct."""
        problems = check_manifest(out)
        return problems + getattr(self, f"_check_{self.command}")(out)

    def _check_stats(self, out: Path) -> list[str]:
        section = self.cfg["stats"]
        stats = ValidationStats.load(out / "stats")
        stats.check_compatible(self.model, self.schedule)
        problems = []
        if list(stats.depths) != section["depths"] or stats.v_count != section["v_count"]:
            problems.append("stats depths or v_count differ from the config")
        if not stats.sigma_floor > 0.0:
            problems.append("sigma floor is not positive")
        for t in stats.depths:
            if stats.sigma[t].values.min() < stats.sigma_floor:
                problems.append(f"sigma below the floor at depth {t}")
        # Reconstructions from deeper projections stray further: the pixel-mean
        # discrepancy must rise with depth (about 12 standard errors apart).
        means = [float(stats.mu[t].values.mean()) for t in sorted(stats.depths)]
        if any(a >= b for a, b in zip(means, means[1:])):
            problems.append(f"pixel-mean mu does not rise with depth: {means}")
        return problems

    def _check_fuzzy(self, out: Path) -> list[str]:
        keep = self.weights == 1.0
        problems = []
        for i in range(self.cfg["fuzzy"]["count"]):
            values = read_grid(out / f"fuzzy_{i:04d}.fdg").values
            if values.shape != self.image.shape:
                problems.append(f"fuzzy_{i:04d}: shape {values.shape}")
            elif not np.array_equal(values[keep], self.image[keep]):
                problems.append(f"fuzzy_{i:04d}: m=1 pixels differ from the input")
        return problems

    def _check_eval(self, out: Path) -> list[str]:
        trials = self.cfg["eval"]["trials"]
        report = json.loads((out / "report.json").read_text())
        agg = report["aggregates"]
        problems = []
        if len(report["trials"]) != trials:
            problems.append(f"report has {len(report['trials'])} trials, want {trials}")
        if not agg["median_masked_reduction"] >= 0.5:
            problems.append(f"median masked reduction {agg['median_masked_reduction']} < 0.5")
        if not agg["median_mse_out_corrected"] <= agg["oracle_marginal_variance"]:
            problems.append("clean-region MSE exceeds the oracle's marginal variance")
        if agg["unmasked_comparisons"] != trials:
            problems.append(f"{agg['unmasked_comparisons']} comparisons, want {trials}")
        if agg["unmasked_wins_vs_baseline"] < math.ceil(MIN_WIN_SHARE * trials):
            problems.append(f"{agg['unmasked_wins_vs_baseline']} wins vs baseline")
        artifacts = len(list((out / "artifacts").glob("*.fdg")))
        if artifacts != 6 * trials:
            problems.append(f"{artifacts} artifact grids, want {6 * trials}")
        return problems
