"""Command-line interface.

Every subcommand reads one JSON config, draws from streams derived only from
(--seed, task index), and writes its artifacts plus a manifest.json into
--out. Reruns with the same config and seed are byte-identical, and the
manifest records content hashes so that claim is easy to check. `sample` and
`fuzzy` run all their samples as one batch in which sample i draws only from
child stream i, and `eval` runs attention, repair and baseline of all its
trials as one batch in which trial i draws only from child stream 2 + i.
--workers is still accepted but has no effect.

:func:`entrypoint` owns every run's lifecycle: it loads the config, looks
up the command's section, builds the model and schedule, prepares --out,
calls the command's handler with a fresh ``RngStream(--seed, 0)`` and a
staging directory, writes the manifest and commits the staged files.

Exit codes: 0 success, 2 configuration problem, 3 file I/O problem,
4 data validation failure (shapes, ranges, stale fingerprints). The checks
run in one order for every command: the config first (exit 2), then the
--out/--force check (exit 3), then reading inputs and doing the work
(exit 3 or 4). A run that fails leaves the previous run in --out as it was.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import shutil
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, build_model, build_schedule, load_config
from .config import section as config_section
from .core import Grid, RngStream, RowStreams, ValidationError
from .gridio import parse_json, read_grid, write_grid, write_preview
from .harness import DegradeParams, degrade, run_correction_experiment
from .projection import (
    ValidationStats,
    attention_map,
    default_depths,
    validation_stats,
    weight_from_attention,
)
from .sampler import ancestral_sample_array, fuzzy_sample

log = logging.getLogger("fuzzydiff")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

_STAGE = ".staging"


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
            help="accepted for compatibility; has no effect",
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


def _previous_files(out: Path) -> list[Path]:
    """The files inside --out (outside staging) that the previous run's manifest lists."""
    manifest = out / "manifest.json"
    if not manifest.exists():
        return []
    if not manifest.is_file():  # a FIFO would block the read below
        raise OSError(f"{manifest}: not a regular file")
    try:
        listed = parse_json(manifest.read_text())["files"].keys()
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read previous manifest {manifest}: {exc}") from exc
    root, stage = out.resolve(), (out / _STAGE).resolve()
    paths = [(out / rel).resolve() for rel in listed]
    return [p for p in paths if root in p.parents and stage not in p.parents and p.is_file()]


def _prepare_out(out: Path, force: bool) -> Path:
    """Check --out and return an empty staging directory inside it for the handler.

    A staging directory left behind by a killed run is cleared first. The
    previous run stays untouched until :func:`_commit_out` runs, after the
    handler has succeeded.
    """
    manifest = out / "manifest.json"
    if manifest.exists() and not force:
        raise FileExistsError(f"{manifest} exists; pass --force to overwrite")
    _previous_files(out)  # an unreadable previous manifest fails before any work
    stage = out / _STAGE
    shutil.rmtree(stage, ignore_errors=True)
    stage.mkdir(parents=True)
    return stage


def _commit_out(out: Path) -> None:
    """Replace the previous run in --out with the staged one.

    Checks first that every staged file can be placed (no directory at a
    target, no non-directory at an ancestor inside --out), raising OSError
    while the previous run is whole. Then deletes the files the previous
    manifest lists (only inside --out, so unlisted files survive and two runs
    never mix), renames the staged files into place, and renames the new
    manifest.json last.
    """
    stage = out / _STAGE
    manifest = stage / "manifest.json"
    staged = [p for p in sorted(stage.rglob("*")) if p.is_file() and p != manifest]
    moves = [(p, out / p.relative_to(stage)) for p in staged + [manifest]]
    for _, target in moves:
        if target.is_dir():
            raise OSError(f"{target}: is a directory")
    for parent in sorted({target.parent for _, target in moves}):
        while parent != out:
            if (parent.exists() or parent.is_symlink()) and not parent.is_dir():
                raise OSError(f"{parent}: not a directory")
            parent = parent.parent
    for path in _previous_files(out):
        path.unlink()
    for path, target in moves:
        target.parent.mkdir(parents=True, exist_ok=True)
        path.replace(target)


def _write_manifest(
    out_dir: Path,
    command: str,
    seed: int,
    cfg: dict,
    model,
    schedule,
    files: list[Path],
) -> None:
    entries = {str(p.relative_to(out_dir)): _sha256(p) for p in files}
    payload = {
        "schema_version": 1,
        "command": command,
        "seed": seed,
        "config": cfg,
        "model_fingerprint": model.fingerprint(),
        "schedule_fingerprint": schedule.fingerprint(),
        "files": dict(sorted(entries.items())),
    }
    (out_dir / "manifest.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_grids(out: Path, named) -> list[Path]:
    """Write each (name, (h, w, c) array) as name.fdg plus its preview; returns the paths."""
    files: list[Path] = []
    for name, values in named:
        g = Grid(values)
        path = out / f"{name}.fdg"
        write_grid(path, g)
        files += [path, write_preview(out / name, g)]
    return files


def _read_image(path_text: str, model) -> np.ndarray:
    return read_grid(path_text, {model.shape}).values


# A handler does one command's work: it reads the command's inputs, draws only
# from ``root``, writes its artifacts into ``out`` and returns their paths.


def _cmd_sample(section, model, schedule, root: RngStream, out: Path) -> list[Path]:
    count = section["count"]
    streams = RowStreams(root.child(i) for i in range(count))
    rows = ancestral_sample_array(model, schedule, count, streams)
    named = ((f"sample_{i:04d}", r.reshape(model.shape)) for i, r in enumerate(rows))
    return _write_grids(out, named)


def _load_weight_map(section: dict, shape: tuple[int, int, int]):
    """The weight map a fuzzy section names for a model of ``shape``: a scalar,
    or the array of a grid file of one channel or the model's channels."""
    m_spec = section["map"]
    if isinstance(m_spec, str):
        h, w, c = shape
        m = read_grid(m_spec, {(h, w, 1), (h, w, c)}).values
        return np.clip(m, 0.0, 1.0) if section["clamp_map"] else m
    return float(m_spec)


def _cmd_fuzzy(section, model, schedule, root: RngStream, out: Path) -> list[Path]:
    count = section["count"]
    image = _read_image(section["image"], model)
    weights = _load_weight_map(section, model.shape)
    streams = RowStreams(root.child(i) for i in range(count))
    rows = fuzzy_sample(model, schedule, image, weights, section["J"], count, streams)
    named = ((f"fuzzy_{i:04d}", r.reshape(model.shape)) for i, r in enumerate(rows))
    return _write_grids(out, named)


def _cmd_stats(section, model, schedule, root: RngStream, out: Path) -> list[Path]:
    depths = section["depths"] if section["depths"] is not None else default_depths(schedule.T)
    rows = model.sample_x0(section["v_count"], root.child(0))
    stats = validation_stats(model, schedule, rows, depths, section["reps"], root.child(1))
    stats.save(out / "stats")
    return sorted((out / "stats").iterdir())


def _cmd_attend(section, model, schedule, root: RngStream, out: Path) -> list[Path]:
    h, w, _ = model.shape
    stats = ValidationStats.load(section["stats_dir"], (h, w, 1))
    image = _read_image(section["image"], model)
    streams = RowStreams([root.child(0)])
    [amap] = attention_map(image[None], stats, model, schedule, streams)
    weights = weight_from_attention(amap)
    return _write_grids(out, (("attention", amap), ("weights", weights)))


def _cmd_degrade(section, model, schedule, root: RngStream, out: Path) -> list[Path]:
    files: list[Path] = []
    if section["image"] is None:
        image = model.sample_x0(1, root.child(0))[0].reshape(model.shape)
        files = _write_grids(out, [("clean", image)])
    else:
        image = _read_image(section["image"], model)
    params = DegradeParams.for_model(
        model, section["sigma_low"], section["sigma_high"], section["side_min"], section["side_max"]
    )
    degraded, record = degrade(image, params, root.child(1))
    files += _write_grids(out, (("degraded", degraded), ("mask", record.mask)))
    record_path = out / "record.json"
    record_path.write_text(json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n")
    return files + [record_path]


def _cmd_eval(section, model, schedule, root: RngStream, out: Path) -> list[Path]:
    art_dir = out / "artifacts" if section["record_artifacts"] else None
    report = run_correction_experiment(model, schedule, section, root, art_dir)
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return [report_path] + (sorted(art_dir.iterdir()) if art_dir is not None else [])


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
        section = config_section(cfg, args.command)
        model = build_model(cfg, base_dir=Path(args.config).parent)
        schedule = build_schedule(cfg)
        out = Path(args.out)
        try:
            stage = _prepare_out(out, args.force)
            root = RngStream(args.seed, 0)
            files = _HANDLERS[args.command](section, model, schedule, root, stage)
            _write_manifest(stage, args.command, args.seed, cfg, model, schedule, files)
            _commit_out(out)
        finally:
            shutil.rmtree(out / _STAGE, ignore_errors=True)
        log.info("%s: wrote %d files to %s", args.command, len(files), out)
        return EXIT_OK
    except ConfigError as exc:
        log.error("config: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:  # includes a missing input and an existing manifest
        log.error("i/o: %s", exc)
        return EXIT_IO
    except ValidationError as exc:
        log.error("validation: %s", exc)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
