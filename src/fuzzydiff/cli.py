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
up the command's section, builds the model and schedule, prepares --out
(parsing the previous manifest once), calls the command's handler with a
fresh ``RngStream(--seed, 0)`` and a staging directory, lists the staged
files once, hashes that list into the manifest and commits that list, the
manifest last. A handler only writes into the staging directory, so --out
never holds a file its manifest does not list. JSON files go through
``gridio.read_json`` (under a size cap) and ``gridio.write_json``.

Exit codes: 0 success, 2 configuration problem, 3 file I/O problem,
4 data validation failure (shapes, ranges, stale fingerprints). The checks
run in one order for every command: the config first (exit 2), then the
--out/--force check (exit 3), then reading inputs and doing the work
(exit 3 or 4). A run that fails leaves the previous run in --out as it was.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import logging
import shutil
import sys
from pathlib import Path

import numpy as np

from .config import (
    MAX_CONFIG_BYTES,
    MAX_ROW_STREAMS,
    MAX_T,
    ConfigError,
    build_model,
    build_schedule,
    load_config,
)
from .config import section as config_section
from .core import Grid, RngStream, RowStreams, ValidationError
from .gridio import read_grid, read_json, write_grid, write_json, write_preview
from .harness import DegradeParams, degrade, run_correction_experiment
from .projection import (
    ValidationStats,
    attention_map,
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
# The largest previous manifest read. A run lists at most 2 * (MAX_T + 1) + 1
# files (stats at every depth; eval lists up to 6 * MAX_ROW_STREAMS + 1, sample
# and fuzzy 2 * MAX_ROW_STREAMS), each on a line of under 128 bytes, after an
# echo of the config that is at most a few times MAX_CONFIG_BYTES.
MAX_MANIFEST_BYTES = (
    128 * max(2 * (MAX_T + 1) + 1, 6 * MAX_ROW_STREAMS + 1) + 16 * MAX_CONFIG_BYTES
)


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


# Built once: a parser is a web of reference cycles, and one built per call
# stays as garbage until the cyclic collector runs, so the peak memory of a
# process that runs many commands would follow the collector's timing.
@functools.cache
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
        p.add_argument("-v", "--verbose", action="store_true", help="log the files written")
    return parser


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _previous_files(out: Path) -> list[Path]:
    """The files inside --out (outside staging) that the previous run's manifest
    lists; a manifest over ``MAX_MANIFEST_BYTES`` is refused unread."""
    manifest = out / "manifest.json"
    if not manifest.exists():
        return []
    try:
        listed = read_json(manifest, MAX_MANIFEST_BYTES)["files"].keys()
        paths = [(out / rel).resolve() for rel in listed]  # a NUL byte raises here
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read previous manifest {manifest}: {exc}") from exc
    root, stage = out.resolve(), (out / _STAGE).resolve()
    return [p for p in paths if root in p.parents and stage not in p.parents and p.is_file()]


def _prepare_out(out: Path, force: bool) -> tuple[Path, list[Path]]:
    """Check --out; return an empty staging directory inside it for the handler
    and the previous run's files, read from its manifest here, before any work.

    A staging directory left by a killed run is cleared first. The previous
    run stays untouched until :func:`_commit_out`, after the handler succeeded.
    """
    manifest = out / "manifest.json"
    if manifest.exists() and not force:
        raise FileExistsError(f"{manifest} exists; pass --force to overwrite")
    previous = _previous_files(out)
    stage = out / _STAGE
    shutil.rmtree(stage, ignore_errors=True)
    stage.mkdir(parents=True)
    return stage, previous


def _commit_out(out: Path, previous: list[Path], files: list[Path]) -> None:
    """Replace the previous run in --out with the staged ``files`` and manifest.

    Checks first that every staged file can be placed (no directory at a
    target, no non-directory at an ancestor inside --out), raising OSError
    while the previous run is whole. Then deletes the ``previous`` files
    (those the previous manifest lists inside --out, so unlisted files
    survive and two runs never mix), renames the staged files into place,
    and renames the new manifest.json last.
    """
    stage = out / _STAGE
    moves = [(p, out / p.relative_to(stage)) for p in files + [stage / "manifest.json"]]
    for _, target in moves:
        if target.is_dir():
            raise OSError(f"{target}: is a directory")
    for parent in sorted({target.parent for _, target in moves}):
        while parent != out:
            if (parent.exists() or parent.is_symlink()) and not parent.is_dir():
                raise OSError(f"{parent}: not a directory")
            parent = parent.parent
    for path in previous:
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
    write_json(out_dir / "manifest.json", payload)


def _write_grids(out: Path, named) -> None:
    """Write each (name, (h, w, c) array) as name.fdg plus its preview."""
    for name, values in named:
        g = Grid(values)
        write_grid(out / f"{name}.fdg", g)
        write_preview(out / name, g)


def _read_image(path_text: str, model) -> np.ndarray:
    return read_grid(path_text, {model.shape}).values


# A handler does one command's work: it reads the command's inputs, draws only
# from ``root`` and writes its artifacts into the staging directory ``out``.
# It returns None; entrypoint lists what it staged.


def _cmd_sample(section, model, schedule, root: RngStream, out: Path) -> None:
    count = section["count"]
    streams = RowStreams(root.child(i) for i in range(count))
    rows = ancestral_sample_array(model, schedule, count, streams)
    _write_grids(out, ((f"sample_{i:04d}", r.reshape(model.shape)) for i, r in enumerate(rows)))


def _load_weight_map(section: dict, shape: tuple[int, int, int]):
    """The weight map a fuzzy section names for a model of ``shape``: a scalar,
    or the array of a grid file of one channel or the model's channels."""
    m_spec = section["map"]
    if isinstance(m_spec, str):
        h, w, c = shape
        return read_grid(m_spec, {(h, w, 1), (h, w, c)}).values
    return float(m_spec)


def _cmd_fuzzy(section, model, schedule, root: RngStream, out: Path) -> None:
    count = section["count"]
    image = _read_image(section["image"], model)
    weights = _load_weight_map(section, model.shape)
    streams = RowStreams(root.child(i) for i in range(count))
    rows = fuzzy_sample(model, schedule, image, weights, section["J"], count, streams)
    _write_grids(out, ((f"fuzzy_{i:04d}", r.reshape(model.shape)) for i, r in enumerate(rows)))


def _cmd_stats(section, model, schedule, root: RngStream, out: Path) -> None:
    depths, reps = section["depths"], section["reps"]
    rows = model.sample_x0(section["v_count"], root.child(0))
    validation_stats(model, schedule, rows, depths, reps, root.child(1)).save(out / "stats")


def _cmd_attend(section, model, schedule, root: RngStream, out: Path) -> None:
    stats = ValidationStats.load(section["stats_dir"], model, schedule)
    image = _read_image(section["image"], model)
    streams = RowStreams([root.child(0)])
    [amap] = attention_map(image[None], stats, model, schedule, streams)
    _write_grids(out, (("attention", amap), ("weights", weight_from_attention(amap))))


def _cmd_degrade(section, model, schedule, root: RngStream, out: Path) -> None:
    if section["image"] is None:
        image = model.sample_x0(1, root.child(0))[0].reshape(model.shape)
        _write_grids(out, [("clean", image)])
    else:
        image = _read_image(section["image"], model)
    params = DegradeParams.for_model(
        model, section["sigma_low"], section["sigma_high"], section["side_min"], section["side_max"]
    )
    degraded, record = degrade(image, params, root.child(1))
    _write_grids(out, (("degraded", degraded), ("mask", record.mask)))
    write_json(out / "record.json", record.to_dict())


def _cmd_eval(section, model, schedule, root: RngStream, out: Path) -> None:
    art_dir = out / "artifacts" if section["record_artifacts"] else None
    report = run_correction_experiment(model, schedule, section, root, art_dir)
    write_json(out / "report.json", report)


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
    # basicConfig is a no-op once root has a handler: set the level on every call.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)

    try:
        cfg = load_config(args.config)
        section = config_section(cfg, args.command)
        model = build_model(cfg, base_dir=Path(args.config).parent)
        schedule = build_schedule(cfg)
        out = Path(args.out)
        try:
            stage, previous = _prepare_out(out, args.force)
            _HANDLERS[args.command](section, model, schedule, RngStream(args.seed, 0), stage)
            files = sorted(p for p in stage.rglob("*") if p.is_file())
            echo = {**cfg, args.command: section}  # the section as this run used it
            _write_manifest(stage, args.command, args.seed, echo, model, schedule, files)
            _commit_out(out, previous, files)
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
