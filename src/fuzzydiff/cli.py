"""Command-line interface.

Every subcommand reads one JSON config, draws from streams derived only from
(--seed, task index), and writes its artifacts plus a manifest.json into
--out. Reruns with the same config and seed are byte-identical, whatever
--workers says; the manifest records content hashes so that claim is easy to
check.

Exit codes: 0 success, 2 configuration problem, 3 file I/O problem,
4 data validation failure (shapes, ranges, stale fingerprints).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .config import (
    ConfigError,
    build_model,
    build_schedule,
    load_config,
    require_section,
    section_defaults,
)
from .core import Grid, RngStream, ValidationError, clamp_unit
from .gridio import read_grid, write_grid, write_preview
from .harness import DegradeParams, ExperimentConfig, degrade, run_correction_experiment
from .projection import (
    ValidationStats,
    attention_map,
    default_depths,
    validation_stats,
    weight_from_attention,
)
from .sampler import FuzzySamplerConfig, WeightMap, ancestral_sample, fuzzy_sample

log = logging.getLogger("fuzzydiff")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzydiff",
        description="Diffusion sampling with fuzzy per-pixel conditioning "
        "and projection-based anomaly maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "sample": "draw unconditional samples from the configured oracle",
        "fuzzy": "sample conditioned on an image under a weight map",
        "stats": "build validation discrepancy statistics",
        "attend": "compute an attention map and weight map for an image",
        "degrade": "apply a rectangle degradation to an image",
        "eval": "run the full degrade/detect/correct experiment",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_u64, default=0, help="base RNG seed (default 0)")
        p.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            help="worker threads for per-sample loops; never affects output bytes",
        )
        p.add_argument(
            "--force", action="store_true", help="overwrite an existing manifest"
        )
        p.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _prepare_out(out: Path, force: bool) -> Path:
    """Create --out; with --force, first delete what the previous run's manifest lists.

    Only listed files inside --out are removed, so two runs' artifacts never
    mix and nothing else in the directory is touched. Handlers read their
    inputs before calling this, so a missing input leaves the old run intact.
    """
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.json"
    if manifest.exists():
        if not force:
            raise FileExistsError(f"{manifest} exists; pass --force to overwrite")
        try:
            listed = json.loads(manifest.read_text())["files"].keys()
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"cannot read previous manifest {manifest}: {exc}") from exc
        root = out.resolve()
        for rel in listed:
            path = (out / rel).resolve()
            if root in path.parents and path.is_file():
                path.unlink()
        manifest.unlink()
    return manifest


def _write_manifest(
    manifest_path: Path,
    command: str,
    args,
    cfg: dict,
    model,
    schedule,
    files: list[Path],
) -> None:
    out_dir = manifest_path.parent
    entries = {str(p.relative_to(out_dir)): _sha256(p) for p in files}
    payload = {
        "schema_version": 1,
        "command": command,
        "seed": args.seed,
        "config": cfg,
        "model_fingerprint": model.fingerprint(),
        "schedule_fingerprint": schedule.fingerprint(),
        "files": dict(sorted(entries.items())),
    }
    manifest_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _parallel_indexed(worker, count: int, workers: int) -> list:
    """Run worker(i) for i in range(count); results ordered by index."""
    if workers <= 1 or count <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(count)))


def _write_grids(out: Path, named) -> list[Path]:
    """Write each (name, grid) as name.fdg plus its preview; returns the paths written."""
    files: list[Path] = []
    for name, g in named:
        path = out / f"{name}.fdg"
        write_grid(path, g)
        files += [path, write_preview(out / name, g)]
    return files


def _read_image(path_text: str, model) -> Grid:
    g = read_grid(path_text)
    if g.shape != model.shape:
        raise ValidationError(f"image shape {g.shape} != model shape {model.shape}")
    return g


def _cmd_sample(args, cfg, model, schedule, out: Path) -> int:
    section = cfg.get("sample") or section_defaults("sample")
    count = section["count"]
    manifest = _prepare_out(out, args.force)
    root = RngStream(args.seed, 0)

    def worker(i: int) -> Grid:
        return ancestral_sample(model, schedule, root.child(i))

    grids = _parallel_indexed(worker, count, args.workers)
    files = _write_grids(out, ((f"sample_{i:04d}", g) for i, g in enumerate(grids)))
    _write_manifest(manifest, "sample", args, cfg, model, schedule, files)
    log.info("wrote %d samples to %s", count, out)
    return EXIT_OK


def _load_weight_map(section: dict, model) -> WeightMap:
    m_spec = section["map"]
    if isinstance(m_spec, str):
        g = read_grid(m_spec)
        if section["clamp_map"]:
            g = clamp_unit(g)
        return WeightMap(g)
    if not 0.0 <= float(m_spec) <= 1.0:
        raise ConfigError(f"'fuzzy.map' scalar must lie in [0, 1], got {m_spec}")
    h, w, _ = model.shape
    return WeightMap.uniform(float(m_spec), h, w, 1)


def _cmd_fuzzy(args, cfg, model, schedule, out: Path) -> int:
    section = require_section(cfg, "fuzzy")
    image = _read_image(section["image"], model)
    weights = _load_weight_map(section, model)
    fuzzy_cfg = FuzzySamplerConfig(J=section["J"])
    manifest = _prepare_out(out, args.force)
    root = RngStream(args.seed, 0)

    def worker(i: int) -> Grid:
        return fuzzy_sample(model, schedule, image, weights, fuzzy_cfg, root.child(i))

    grids = _parallel_indexed(worker, section["count"], args.workers)
    files = _write_grids(out, ((f"fuzzy_{i:04d}", g) for i, g in enumerate(grids)))
    _write_manifest(manifest, "fuzzy", args, cfg, model, schedule, files)
    log.info("wrote %d conditioned samples to %s", section["count"], out)
    return EXIT_OK


def _cmd_stats(args, cfg, model, schedule, out: Path) -> int:
    section = cfg.get("stats") or section_defaults("stats")
    depths = section["depths"] if section["depths"] is not None else default_depths(schedule.T)
    manifest = _prepare_out(out, args.force)
    root = RngStream(args.seed, 0)
    rows = model.sample_x0(section["v_count"], root.child(0))
    V = [Grid(r.reshape(model.shape)) for r in rows]
    stats = validation_stats(model, schedule, V, depths, reps=section["reps"], rng=root.child(1))
    stats_dir = out / "stats"
    stats.save(stats_dir)
    files = sorted(stats_dir.iterdir())
    _write_manifest(manifest, "stats", args, cfg, model, schedule, files)
    log.info("stats over %d members at depths %s -> %s", section["v_count"], depths, stats_dir)
    return EXIT_OK


def _cmd_attend(args, cfg, model, schedule, out: Path) -> int:
    section = require_section(cfg, "attend")
    stats = ValidationStats.load(section["stats_dir"])
    image = _read_image(section["image"], model)
    manifest = _prepare_out(out, args.force)
    root = RngStream(args.seed, 0)
    amap = attention_map(image, stats, model, schedule, reps=section["reps"], rng=root.child(0))
    weights = weight_from_attention(amap)
    files = _write_grids(out, (("attention", amap.grid), ("weights", weights.grid)))
    _write_manifest(manifest, "attend", args, cfg, model, schedule, files)
    return EXIT_OK


def _cmd_degrade(args, cfg, model, schedule, out: Path) -> int:
    section = cfg.get("degrade") or section_defaults("degrade")
    image = None if section["image"] is None else _read_image(section["image"], model)
    manifest = _prepare_out(out, args.force)
    root = RngStream(args.seed, 0)
    files: list[Path] = []
    if image is None:
        image = Grid(model.sample_x0(1, root.child(0))[0].reshape(model.shape))
        files = _write_grids(out, [("clean", image)])

    params = DegradeParams.for_model(
        model, section["sigma_low"], section["sigma_high"], section["side_min"], section["side_max"]
    )
    degraded, record = degrade(image, params, root.child(1))
    files += _write_grids(out, (("degraded", degraded), ("mask", record.mask)))
    record_path = out / "record.json"
    record_path.write_text(json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n")
    files.append(record_path)
    _write_manifest(manifest, "degrade", args, cfg, model, schedule, files)
    return EXIT_OK


def _cmd_eval(args, cfg, model, schedule, out: Path) -> int:
    section = cfg.get("eval") or section_defaults("eval")
    manifest = _prepare_out(out, args.force)
    exp = ExperimentConfig(
        model=model,
        schedule=schedule,
        trials=section["trials"],
        J=section["J"],
        depths=tuple(section["depths"]) if section["depths"] is not None else None,
        reps=section["reps"],
        v_count=section["v_count"],
        baseline_depth=section["baseline_depth"],
        degrade_enabled=section["degrade_enabled"],
        sigma_low=section["sigma_low"],
        sigma_high=section["sigma_high"],
        side_min=section["side_min"],
        side_max=section["side_max"],
        artifacts_dir=str(out / "artifacts") if section["record_artifacts"] else None,
    )
    report = run_correction_experiment(exp, RngStream(args.seed, 0))
    report_path = out / "report.json"
    report.save(report_path)
    files = [report_path]
    if section["record_artifacts"]:
        files.extend(sorted((out / "artifacts").iterdir()))
    _write_manifest(manifest, "eval", args, cfg, model, schedule, files)
    log.info("report: %s", report_path)
    return EXIT_OK


_HANDLERS = {
    "sample": _cmd_sample,
    "fuzzy": _cmd_fuzzy,
    "stats": _cmd_stats,
    "attend": _cmd_attend,
    "degrade": _cmd_degrade,
    "eval": _cmd_eval,
}


def entrypoint(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = load_config(args.config)
        model = build_model(cfg, base_dir=Path(args.config).parent)
        schedule = build_schedule(cfg)
        return _HANDLERS[args.command](args, cfg, model, schedule, Path(args.out))
    except ConfigError as exc:
        log.error("config: %s", exc)
        return EXIT_CONFIG
    except FileExistsError as exc:
        log.error("%s", exc)
        return EXIT_IO
    except FileNotFoundError as exc:
        log.error("%s", exc)
        return EXIT_IO
    except OSError as exc:
        log.error("i/o: %s", exc)
        return EXIT_IO
    except ValidationError as exc:
        log.error("validation: %s", exc)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
