import hashlib
import json
import logging
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuzzydiff import (
    GmmPixelModel,
    Grid,
    RngStream,
    build_model,
    build_schedule,
    load_config,
    read_grid,
    write_grid,
)
from fuzzydiff import cli, denoiser, gridio, projection
from fuzzydiff.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, entrypoint
from fuzzydiff.sampler import ancestral_sample_array, fuzzy_sample

GMM_MODEL = {
    "type": "gmm_pixel",
    "height": 4,
    "width": 4,
    "weights": [0.6, 0.4],
    "means": [0.3, 0.7],
    "variances": [0.01, 0.01],
}
ONE_PIXEL = {"type": "gaussian_field", "height": 1, "width": 1}


def make_config(tmp_path, sections=None, model=None, T=6, name="cfg.json"):
    payload = {"schedule": {"T": T}, "model": model or GMM_MODEL}
    payload.update(sections or {})
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def run(*argv):
    return entrypoint([str(a) for a in argv])


def manifest_of(out):
    return json.loads((Path(out) / "manifest.json").read_text())


def fdg_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(Path(out).glob("*.fdg"))}


def tree_bytes(out):
    """Every file under ``out``, by relative path, with its bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in Path(out).rglob("*") if p.is_file()}


class TestSample:
    def test_writes_samples_previews_and_manifest(self, tmp_path):
        cfg = make_config(tmp_path, {"sample": {"count": 3}})
        out = tmp_path / "out"
        assert run("sample", "--config", cfg, "--out", out, "--seed", 7) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "manifest.json",
            "sample_0000.fdg",
            "sample_0000.pgm",
            "sample_0001.fdg",
            "sample_0001.pgm",
            "sample_0002.fdg",
            "sample_0002.pgm",
        ]
        m = manifest_of(out)
        assert m["command"] == "sample"
        assert m["seed"] == 7
        assert sorted(m["files"]) == names[1:]
        g = read_grid(out / "sample_0000.fdg")
        assert g.shape == (4, 4, 1)

    def test_existing_manifest_blocks_without_force(self, tmp_path):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        assert run("sample", "--config", cfg, "--out", out) == EXIT_OK
        before = fdg_bytes(out)
        assert run("sample", "--config", cfg, "--out", out) == EXIT_IO
        assert run("sample", "--config", cfg, "--out", out, "--force") == EXIT_OK
        assert fdg_bytes(out) == before

    def test_seed_changes_bytes(self, tmp_path):
        cfg = make_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run("sample", "--config", cfg, "--out", a, "--seed", 1)
        run("sample", "--config", cfg, "--out", b, "--seed", 2)
        assert fdg_bytes(a) != fdg_bytes(b)

    def test_workers_do_not_affect_bytes(self, tmp_path):
        cfg = make_config(tmp_path, {"sample": {"count": 5}})
        a, b = tmp_path / "w1", tmp_path / "w4"
        assert run("sample", "--config", cfg, "--out", a, "--seed", 3, "--workers", 1) == EXIT_OK
        assert run("sample", "--config", cfg, "--out", b, "--seed", 3, "--workers", 4) == EXIT_OK
        assert fdg_bytes(a) == fdg_bytes(b)
        assert manifest_of(a) == manifest_of(b)

    def test_bad_count_is_config_error(self, tmp_path):
        cfg = make_config(tmp_path, {"sample": {"count": 0}})
        assert run("sample", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG

    def test_force_replaces_previous_artifacts(self, tmp_path):
        out = tmp_path / "out"
        keep = tmp_path / "out" / "notes.txt"
        cfg = make_config(tmp_path, {"sample": {"count": 4}})
        assert run("sample", "--config", cfg, "--out", out) == EXIT_OK
        keep.write_text("not an artifact")
        cfg = make_config(tmp_path, {"sample": {"count": 2}}, name="cfg2.json")
        assert run("sample", "--config", cfg, "--out", out, "--force") == EXIT_OK
        present = {p.name for p in out.iterdir()} - {"manifest.json", "notes.txt"}
        assert present == set(manifest_of(out)["files"])
        assert len(present) == 4
        assert keep.read_text() == "not an artifact"

    def test_force_with_missing_input_keeps_previous_run(self, tmp_path):
        img = tmp_path / "image.fdg"
        write_grid(img, Grid(np.full((4, 4, 1), 0.5)))
        out = tmp_path / "out"
        cfg = make_config(tmp_path, {"fuzzy": {"image": str(img), "map": 0.5, "count": 2}})
        assert run("fuzzy", "--config", cfg, "--out", out) == EXIT_OK
        before = fdg_bytes(out)
        img.unlink()
        assert run("fuzzy", "--config", cfg, "--out", out, "--force") == EXIT_IO
        assert fdg_bytes(out) == before
        assert set(manifest_of(out)["files"]) == {p.name for p in out.iterdir()} - {"manifest.json"}

    def test_force_never_deletes_outside_out(self, tmp_path):
        out = tmp_path / "out"
        outside = tmp_path / "precious.fdg"
        outside.write_bytes(b"keep")
        cfg = make_config(tmp_path)
        assert run("sample", "--config", cfg, "--out", out) == EXIT_OK
        manifest = manifest_of(out)
        manifest["files"]["../precious.fdg"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run("sample", "--config", cfg, "--out", out, "--force") == EXIT_OK
        assert outside.read_bytes() == b"keep"

    @pytest.mark.parametrize("blocker", ["file for a directory", "directory for a file"])
    def test_force_that_cannot_place_its_files_keeps_previous_run(self, tmp_path, blocker):
        # stats writes stats/manifest.json: a file named stats, or a directory
        # named stats/manifest.json, stops the commit before anything is deleted.
        out = tmp_path / "out"
        cfg = make_config(tmp_path, {"stats": {"v_count": 2, "depths": [1]}})
        assert run("sample", "--config", cfg, "--out", out) == EXIT_OK
        if blocker == "file for a directory":
            (out / "stats").write_text("in the way")
        else:
            (out / "stats" / "manifest.json").mkdir(parents=True)
        before = tree_bytes(out)
        assert run("stats", "--config", cfg, "--out", out, "--force") == EXIT_IO
        assert tree_bytes(out) == before
        assert sorted(p.name for p in out.glob("*.fdg")) == ["sample_0000.fdg"]

    def test_previous_manifest_with_a_repeated_key_exits_4(self, tmp_path):
        out = tmp_path / "out"
        cfg = make_config(tmp_path)
        assert run("sample", "--config", cfg, "--out", out) == EXIT_OK
        text = (out / "manifest.json").read_text()
        (out / "manifest.json").write_text(text.replace('"files": {', '"files": {},\n  "files": {'))
        before = tree_bytes(out)
        assert run("sample", "--config", cfg, "--out", out, "--force") == EXIT_VALIDATION
        assert tree_bytes(out) == before

    def test_force_parses_the_previous_manifest_once(self, tmp_path, monkeypatch):
        # Counted at json.loads, under every name the package reads JSON by.
        out = tmp_path / "out"
        cfg = make_config(tmp_path)
        assert run("sample", "--config", cfg, "--out", out) == EXIT_OK
        previous = (out / "manifest.json").read_bytes()
        loads, parses = json.loads, []

        def counting(text, **kwargs):
            parses.append(text == previous)
            return loads(text, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        assert run("sample", "--config", cfg, "--out", out, "--force") == EXIT_OK
        assert sum(parses) == 1

    def test_every_staged_file_is_listed(self, tmp_path, monkeypatch):
        # A handler that stages a file of its own: the manifest lists it with
        # its hash, so the next --force run removes it.
        out = tmp_path / "out"
        cfg = make_config(tmp_path)
        sample = cli._HANDLERS["sample"]

        def with_extra(section, model, schedule, root, stage):
            (stage / "extra").mkdir()
            (stage / "extra" / "notes.txt").write_text("staged by the handler")
            return sample(section, model, schedule, root, stage)

        monkeypatch.setitem(cli._HANDLERS, "sample", with_extra)
        assert run("sample", "--config", cfg, "--out", out) == EXIT_OK
        digest = hashlib.sha256(b"staged by the handler").hexdigest()
        assert manifest_of(out)["files"]["extra/notes.txt"] == digest
        monkeypatch.setitem(cli._HANDLERS, "sample", sample)
        assert run("sample", "--config", cfg, "--out", out, "--force") == EXIT_OK
        assert not (out / "extra" / "notes.txt").exists()
        assert set(tree_bytes(out)) == {"manifest.json", *manifest_of(out)["files"]}


class TestPerRowStreams:
    """Sample i of a batch draws only from child stream i of RngStream(seed, 0)."""

    FIELD_MODEL = {"type": "gaussian_field", "height": 4, "width": 4}

    def one_row_chain(self, command, cfg_path, i):
        cfg = load_config(cfg_path)
        model, schedule = build_model(cfg), build_schedule(cfg)
        stream = RngStream(13, 0).child(i)
        if command == "sample":
            return ancestral_sample_array(model, schedule, 1, stream)[0]
        f = cfg["fuzzy"]
        image, weights = read_grid(f["image"]).values, read_grid(f["map"]).values
        return fuzzy_sample(model, schedule, image, weights, f["J"], 1, stream)[0]

    @pytest.mark.parametrize("command", ["sample", "fuzzy"])
    @pytest.mark.parametrize("oracle", ["gmm_pixel", "gaussian_field"])
    def test_rows_do_not_depend_on_count(self, tmp_path, command, oracle):
        img, wmap = tmp_path / "image.fdg", tmp_path / "map.fdg"
        write_grid(img, Grid(np.linspace(0.2, 0.8, 16).reshape(4, 4, 1)))
        write_grid(wmap, Grid(np.linspace(0.0, 1.0, 16).reshape(4, 4, 1)))
        model = GMM_MODEL if oracle == "gmm_pixel" else self.FIELD_MODEL
        outs = {}
        for count in (3, 5):
            cfg = make_config(
                tmp_path,
                {
                    "sample": {"count": count},
                    "fuzzy": {"image": str(img), "map": str(wmap), "count": count, "J": 2},
                },
                model=model,
                name=f"cfg{count}.json",
            )
            outs[count] = tmp_path / f"out{count}"
            assert run(command, "--config", cfg, "--out", outs[count], "--seed", 13) == EXIT_OK
        for i in range(3):
            name = f"{command}_{i:04d}.fdg"
            many = read_grid(outs[5] / name).values.reshape(-1)
            alone = self.one_row_chain(command, cfg, i)
            # Bit-identical across counts: gmm_pixel is pixelwise, and every
            # gaussian_field row, one-row batches included, is a gemm row of
            # one BLAS kernel (a 4x4 field stays below the kernel switch).
            assert (outs[3] / name).read_bytes() == (outs[5] / name).read_bytes()
            assert np.array_equal(many, alone)

    @pytest.mark.parametrize("oracle", ["gmm_pixel", "gaussian_field"])
    def test_eval_trial_does_not_depend_on_trials(self, tmp_path, oracle):
        # Trial i draws only from child 2 + i, so trial 0 of the (trials, D)
        # batch is the same bytes whether it runs alone or among others.
        model = GMM_MODEL if oracle == "gmm_pixel" else self.FIELD_MODEL
        names = ("clean", "degraded", "attention", "weights", "corrected", "baseline")
        seen = []
        for trials in (1, 3, 5):
            section = {"trials": trials, "J": 2, "v_count": 6, "depths": [2, 4],
                       "record_artifacts": True}
            cfg = make_config(tmp_path, {"eval": section}, model=model, name=f"cfg{trials}.json")
            out = tmp_path / f"out{trials}"
            assert run("eval", "--config", cfg, "--out", out, "--seed", 5) == EXIT_OK
            report = json.loads((out / "report.json").read_text())
            assert len(report["trials"]) == trials
            grids = [(out / "artifacts" / f"trial_000_{n}.fdg").read_bytes() for n in names]
            seen.append((json.dumps(report["trials"][0], sort_keys=True), grids))
        assert seen[0] == seen[1] == seen[2]


class TestFuzzy:
    def write_image(self, tmp_path, value=0.5):
        path = tmp_path / "image.fdg"
        write_grid(path, Grid(np.full((4, 4, 1), value)))
        return path

    def test_full_weight_reproduces_image(self, tmp_path):
        img = self.write_image(tmp_path)
        cfg = make_config(
            tmp_path, {"fuzzy": {"image": str(img), "map": 1.0, "count": 2, "J": 2}}
        )
        out = tmp_path / "out"
        assert run("fuzzy", "--config", cfg, "--out", out) == EXIT_OK
        image = read_grid(img)
        assert read_grid(out / "fuzzy_0000.fdg") == image
        assert read_grid(out / "fuzzy_0001.fdg") == image

    def test_map_grid_file(self, tmp_path):
        img = self.write_image(tmp_path)
        map_path = tmp_path / "map.fdg"
        write_grid(map_path, Grid(np.full((4, 4, 1), 0.5)))
        cfg = make_config(tmp_path, {"fuzzy": {"image": str(img), "map": str(map_path)}})
        assert run("fuzzy", "--config", cfg, "--out", tmp_path / "out") == EXIT_OK

    def test_out_of_range_map_needs_clamp(self, tmp_path):
        # A map grid outside [0, 1] is refused; no option clips it.
        img = self.write_image(tmp_path)
        map_path = tmp_path / "map.fdg"
        write_grid(map_path, Grid(np.full((4, 4, 1), 1.5)))
        base = {"image": str(img), "map": str(map_path)}
        cfg = make_config(tmp_path, {"fuzzy": dict(base)})
        assert run("fuzzy", "--config", cfg, "--out", tmp_path / "o1") == EXIT_VALIDATION
        cfg = make_config(tmp_path, {"fuzzy": dict(base, clamp_map=True)}, name="cfg2.json")
        assert run("fuzzy", "--config", cfg, "--out", tmp_path / "o2") == EXIT_CONFIG

    def test_scalar_map_out_of_range(self, tmp_path):
        img = self.write_image(tmp_path)
        cfg = make_config(tmp_path, {"fuzzy": {"image": str(img), "map": 1.5}})
        assert run("fuzzy", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG

    def test_missing_section_and_missing_image(self, tmp_path):
        cfg = make_config(tmp_path)
        assert run("fuzzy", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG
        cfg = make_config(
            tmp_path,
            {"fuzzy": {"image": str(tmp_path / "absent.fdg"), "map": 1.0}},
            name="cfg3.json",
        )
        assert run("fuzzy", "--config", cfg, "--out", tmp_path / "o2") == EXIT_IO

    @pytest.mark.parametrize("shape", [(4, 3, 1), (3, 4, 1), (4, 4, 2)])
    def test_map_shape_mismatch_is_validation_error(self, tmp_path, shape):
        # The model is 4x4 with one channel: the map must be 4x4 with one channel.
        img = self.write_image(tmp_path)
        map_path = tmp_path / "map.fdg"
        write_grid(map_path, Grid(np.full(shape, 0.5)))
        cfg = make_config(tmp_path, {"fuzzy": {"image": str(img), "map": str(map_path)}})
        out = tmp_path / "o"
        assert run("fuzzy", "--config", cfg, "--out", out) == EXIT_VALIDATION
        assert list(out.iterdir()) == []

    def test_wrong_image_shape(self, tmp_path):
        path = tmp_path / "big.fdg"
        write_grid(path, Grid(np.full((8, 8, 1), 0.5)))
        cfg = make_config(tmp_path, {"fuzzy": {"image": str(path), "map": 1.0}})
        assert run("fuzzy", "--config", cfg, "--out", tmp_path / "o") == EXIT_VALIDATION

    @pytest.mark.parametrize("wrong", ["image", "map"])
    def test_wrong_shape_is_refused_from_the_header(self, tmp_path, monkeypatch, wrong):
        # A well-formed grid of another shape than the 4x4x1 model's fails on
        # its 16-byte header; its 64 KiB payload is never read.
        big = tmp_path / "big.fdg"
        write_grid(big, Grid(np.full((64, 64, 2), 0.5)))
        img = big if wrong == "image" else self.write_image(tmp_path)
        cfg = make_config(tmp_path, {"fuzzy": {"image": str(img), "map": str(big)}})
        read = {}

        class Counted:
            def __init__(self, fh, path):
                self._fh, self._path = fh, Path(path)

            def read(self, size=-1):
                data = self._fh.read(size)
                read[self._path] = read.get(self._path, 0) + len(data)
                return data

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        monkeypatch.setattr(
            gridio, "open", lambda path, *a, **kw: Counted(open(path, *a, **kw), path),
            raising=False,
        )
        assert run("fuzzy", "--config", cfg, "--out", tmp_path / "o") == EXIT_VALIDATION
        assert read[big] == 16
        if wrong == "map":
            assert read[img] == 16 + 4 * 4 * 8


class TestStatsAttend:
    def build_stats(self, tmp_path, cfg):
        out = tmp_path / "stats_out"
        assert run("stats", "--config", cfg, "--out", out, "--seed", 11) == EXIT_OK
        return out / "stats"

    def test_stats_layout(self, tmp_path):
        cfg = make_config(tmp_path, {"stats": {"v_count": 6, "depths": [2, 4]}})
        stats_dir = self.build_stats(tmp_path, cfg)
        names = sorted(p.name for p in stats_dir.iterdir())
        assert names == [
            "manifest.json",
            "mu_00002.fdg",
            "mu_00004.fdg",
            "sigma_00002.fdg",
            "sigma_00004.fdg",
        ]
        inner = json.loads((stats_dir / "manifest.json").read_text())
        assert inner["v_count"] == 6

    def test_attend_roundtrip(self, tmp_path):
        cfg_sections = {"stats": {"v_count": 6, "depths": [2, 4]}}
        cfg = make_config(tmp_path, cfg_sections)
        stats_dir = self.build_stats(tmp_path, cfg)
        img = tmp_path / "probe.fdg"
        write_grid(img, Grid(np.full((4, 4, 1), 0.3)))
        cfg2 = make_config(
            tmp_path,
            dict(cfg_sections, attend={"image": str(img), "stats_dir": str(stats_dir)}),
            name="cfg_attend.json",
        )
        out = tmp_path / "attend_out"
        assert run("attend", "--config", cfg2, "--out", out) == EXIT_OK
        a = read_grid(out / "attention.fdg")
        w = read_grid(out / "weights.fdg")
        assert a.values.min() >= 1.0 and a.values.max() <= 6.0
        assert w.values.min() >= 0.0 and w.values.max() <= 1.0

    def test_attend_averages_the_reconstructions_the_stats_did(self, tmp_path, monkeypatch):
        sections = {"stats": {"v_count": 4, "depths": [2, 4], "reps": 2}}
        stats_dir = self.build_stats(tmp_path, make_config(tmp_path, sections))
        img = tmp_path / "probe.fdg"
        write_grid(img, Grid(np.full((4, 4, 1), 0.3)))
        attend = {"attend": {"image": str(img), "stats_dir": str(stats_dir)}}
        depths = []
        reconstruct = projection.project_reconstruct_array

        def counted(model, s, x, t, rng):
            depths.append(t)
            return reconstruct(model, s, x, t, rng)

        monkeypatch.setattr(projection, "project_reconstruct_array", counted)
        cfg = make_config(tmp_path, attend, name="cfg_attend.json")
        assert run("attend", "--config", cfg, "--out", tmp_path / "o") == EXIT_OK
        assert depths == [2, 2, 4, 4]

    def test_failed_force_keeps_previous_run(self, tmp_path):
        sections = {"stats": {"v_count": 4, "depths": [2]}}
        stats_dir = self.build_stats(tmp_path, make_config(tmp_path, sections, T=4))
        img = tmp_path / "probe.fdg"
        write_grid(img, Grid(np.full((4, 4, 1), 0.3)))
        attend = {"attend": {"image": str(img), "stats_dir": str(stats_dir)}}
        out = tmp_path / "attend_out"
        cfg = make_config(tmp_path, attend, T=4, name="cfg_t4.json")
        assert run("attend", "--config", cfg, "--out", out) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == 5
        # The statistics were computed under T=4, so attention fails at T=5.
        cfg = make_config(tmp_path, attend, T=5, name="cfg_t5.json")
        assert run("attend", "--config", cfg, "--out", out, "--force") == EXIT_VALIDATION
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_stale_staging_directory_is_cleared(self, tmp_path):
        out = tmp_path / "out"
        (out / ".staging").mkdir(parents=True)
        (out / ".staging" / "sample_0007.fdg").write_bytes(b"left by a killed run")
        assert run("sample", "--config", make_config(tmp_path), "--out", out) == EXIT_OK
        assert {p.name for p in out.iterdir()} == {"manifest.json", *manifest_of(out)["files"]}

    def test_attend_stale_stats_rejected(self, tmp_path):
        cfg_sections = {"stats": {"v_count": 4, "depths": [2]}}
        cfg = make_config(tmp_path, cfg_sections)
        stats_dir = self.build_stats(tmp_path, cfg)
        img = tmp_path / "probe.fdg"
        write_grid(img, Grid(np.full((4, 4, 1), 0.3)))
        other_model = dict(GMM_MODEL, means=[0.2, 0.8])
        cfg2 = make_config(
            tmp_path,
            {"attend": {"image": str(img), "stats_dir": str(stats_dir)}},
            model=other_model,
            name="cfg_stale.json",
        )
        assert run("attend", "--config", cfg2, "--out", tmp_path / "o") == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "corrupt",
        ["not json", "missing key", "shape mismatch", "resized", "depth beyond T",
         "depth beyond T without grids", "negative depth without grids", "sigma_floor 0",
         "repeated depth", "reps 0", "v_count 0", "v_count -3", "repeated key", "reps 2.9",
         "reps true", "v_count string",
         "depths floats", "depths strings", "sigma_floor string", "sigma_floor 10**400",
         "schema_version true", "schema_version 1.0", "fingerprint number"],
    )
    def test_attend_malformed_stats_is_validation_error(self, tmp_path, corrupt):
        cfg_sections = {"stats": {"v_count": 4, "depths": [2]}}
        stats_dir = self.build_stats(tmp_path, make_config(tmp_path, cfg_sections))
        manifest = stats_dir / "manifest.json"
        fields = json.loads(manifest.read_text())
        # Values of another JSON type, which Python's int(), float() or == 1
        # would take, and a number no float holds: a manifest must hold the
        # JSON types that save writes.
        retyped = {
            "reps 2.9": {"reps": 2.9},
            "reps true": {"reps": True},
            "v_count string": {"v_count": str(fields["v_count"])},
            "depths floats": {"depths": [2.0]},
            "depths strings": {"depths": ["2"]},
            "sigma_floor string": {"sigma_floor": str(fields["sigma_floor"])},
            "sigma_floor 10**400": {"sigma_floor": 10**400},
            "schema_version true": {"schema_version": True},
            "schema_version 1.0": {"schema_version": 1.0},
            "fingerprint number": {"schedule_fingerprint": 1},
        }
        # Depths the T=6 schedule lacks, with no grid files: refused as depths
        # before any grid is opened, not as missing files (exit 3).
        missing_grids = {"depth beyond T without grids": 9, "negative depth without grids": -1}
        if corrupt in retyped:
            manifest.write_text(json.dumps(dict(fields, **retyped[corrupt])))
        elif corrupt == "not json":
            manifest.write_text("{oops")
        elif corrupt == "missing key":
            manifest.write_text(json.dumps({"schema_version": 1}))
        elif corrupt == "shape mismatch":
            write_grid(stats_dir / "mu_00002.fdg", Grid(np.zeros((4, 3, 1))))
        elif corrupt == "depth beyond T":
            # Grids and fingerprints intact, for a depth the T=6 schedule lacks.
            for name in ("mu", "sigma"):
                shutil.copy(stats_dir / f"{name}_00002.fdg", stats_dir / f"{name}_00009.fdg")
            manifest.write_text(json.dumps(dict(fields, depths=[9])))
        elif corrupt in missing_grids:
            manifest.write_text(json.dumps(dict(fields, depths=[missing_grids[corrupt]])))
        elif corrupt == "sigma_floor 0":
            # A floor of 0 would let a zero sigma divide by zero.
            write_grid(stats_dir / "sigma_00002.fdg", Grid(np.zeros((4, 4, 1))))
            manifest.write_text(json.dumps(dict(fields, sigma_floor=0.0)))
        elif corrupt == "repeated depth":
            manifest.write_text(json.dumps(dict(fields, depths=[2, 2])))
        elif corrupt in ("reps 0", "v_count 0", "v_count -3"):
            key, value = corrupt.split()
            manifest.write_text(json.dumps(dict(fields, **{key: int(value)})))
        elif corrupt == "repeated key":
            manifest.write_text(manifest.read_text().replace('"reps": 1', '"reps": 1, "reps": 2'))
        else:
            write_grid(stats_dir / "mu_00002.fdg", Grid(np.zeros((4, 3, 1))))
            write_grid(stats_dir / "sigma_00002.fdg", Grid(np.ones((4, 3, 1))))
        img = tmp_path / "probe.fdg"
        write_grid(img, Grid(np.full((4, 4, 1), 0.3)))
        cfg = make_config(
            tmp_path,
            {"attend": {"image": str(img), "stats_dir": str(stats_dir)}},
            name="cfg_attend.json",
        )
        assert run("attend", "--config", cfg, "--out", tmp_path / "o") == EXIT_VALIDATION

    def test_attend_hashes_the_model_once(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path, {"stats": {"v_count": 4, "depths": [2]}})
        stats_dir = self.build_stats(tmp_path, cfg)
        img = tmp_path / "probe.fdg"
        write_grid(img, Grid(np.full((4, 4, 1), 0.3)))
        cfg = make_config(
            tmp_path, {"attend": {"image": str(img), "stats_dir": str(stats_dir)}}, name="a.json"
        )
        hash_parts, model_hashes = denoiser._hash_parts, []

        def counted(*parts):
            model_hashes.append(parts[0])
            return hash_parts(*parts)

        monkeypatch.setattr(denoiser, "_hash_parts", counted)
        assert run("attend", "--config", cfg, "--out", tmp_path / "o") == EXIT_OK
        assert model_hashes == [b"gmm_pixel/v1"]

    def test_stats_of_a_zero_covariance_field_exit_4(self, tmp_path):
        # A zero covariance gives a sigma floor of 0, which statistics may not hold.
        cov = tmp_path / "cov.fdg"
        write_grid(cov, Grid(np.zeros((4, 4, 1))))
        model = {"type": "gaussian_field", "height": 2, "width": 2, "covariance_file": str(cov)}
        cfg = make_config(tmp_path, {"stats": {"v_count": 4, "depths": [2]}}, model=model)
        assert run("stats", "--config", cfg, "--out", tmp_path / "o") == EXIT_VALIDATION
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_attend_missing_stats_dir(self, tmp_path):
        img = tmp_path / "probe.fdg"
        write_grid(img, Grid(np.full((4, 4, 1), 0.3)))
        cfg = make_config(
            tmp_path,
            {"attend": {"image": str(img), "stats_dir": str(tmp_path / "nope")}},
        )
        assert run("attend", "--config", cfg, "--out", tmp_path / "o") == EXIT_IO


class TestDegrade:
    def test_oracle_draw_layout(self, tmp_path):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        assert run("degrade", "--config", cfg, "--out", out, "--seed", 5) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "clean.fdg",
            "clean.pgm",
            "degraded.fdg",
            "degraded.pgm",
            "manifest.json",
            "mask.fdg",
            "mask.pgm",
            "record.json",
        ]
        record = json.loads((out / "record.json").read_text())
        x0, y0, x1, y1 = record["rect"]
        assert 0 <= x0 < x1 <= 4 and 0 <= y0 < y1 <= 4
        assert record["area"] == (x1 - x0) * (y1 - y0)
        mask = read_grid(out / "mask.fdg")
        assert mask.values.sum() == record["area"]

    def test_explicit_image_skips_clean_artifact(self, tmp_path):
        img = tmp_path / "input.fdg"
        write_grid(img, Grid(np.full((4, 4, 1), 0.4)))
        cfg = make_config(tmp_path, {"degrade": {"image": str(img), "side_min": 1, "side_max": 1}})
        out = tmp_path / "out"
        assert run("degrade", "--config", cfg, "--out", out) == EXIT_OK
        assert not (out / "clean.fdg").exists()
        degraded = read_grid(out / "degraded.fdg")
        assert (degraded.values != 0.4).sum() == 1


class TestEval:
    def test_report_written(self, tmp_path):
        cfg = make_config(
            tmp_path,
            {"eval": {"trials": 2, "J": 1, "v_count": 6, "depths": [2, 3]}},
        )
        out = tmp_path / "out"
        assert run("eval", "--config", cfg, "--out", out, "--seed", 9) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert len(report["trials"]) == 2
        assert "median_auc" in report["aggregates"]
        assert manifest_of(out)["files"].keys() == {"report.json"}

    def test_full_cover_rectangle_is_not_scored(self, tmp_path):
        # On a 2x2 image a 2x2 rectangle leaves no clean pixel, so AUC is
        # undefined for that trial; the run must still succeed.
        cfg = make_config(
            tmp_path,
            {"eval": {"trials": 2, "v_count": 4, "depths": [1, 2], "side_min": 1, "side_max": 2}},
            model={"type": "gaussian_field", "height": 2, "width": 2},
            T=4,
        )
        full_cover = 0
        for seed in range(1, 7):
            out = tmp_path / f"out{seed}"
            assert run("eval", "--config", cfg, "--out", out, "--seed", seed) == EXIT_OK
            for trial in json.loads((out / "report.json").read_text())["trials"]:
                if trial["degradation"]["area"] == 4:
                    full_cover += 1
                    assert trial["auc"] is None
                else:
                    assert 0.0 <= trial["auc"] <= 1.0
        assert full_cover > 0

    def test_artifacts_recorded(self, tmp_path):
        cfg = make_config(
            tmp_path,
            {
                "eval": {
                    "trials": 1,
                    "J": 1,
                    "v_count": 4,
                    "depths": [2],
                    "record_artifacts": True,
                }
            },
        )
        out = tmp_path / "out"
        assert run("eval", "--config", cfg, "--out", out) == EXIT_OK
        files = manifest_of(out)["files"]
        assert "artifacts/trial_000_corrected.fdg" in files


class TestGmmScalarMarginals:
    """gmm_pixel commands read the per-pixel scalars, never the (D, D) covariance."""

    @pytest.fixture(autouse=True)
    def no_covariance(self, monkeypatch):
        # A 256x256 moments() would allocate a 32 GiB identity; fail fast instead.
        def refuse(self):
            raise AssertionError("moments() builds a (D, D) matrix")

        monkeypatch.setattr(GmmPixelModel, "moments", refuse)

    @pytest.mark.parametrize("command", ["stats", "degrade", "eval"])
    def test_commands_do_not_call_moments(self, tmp_path, command):
        sections = {
            "stats": {"v_count": 4, "depths": [2, 4]},
            "eval": {"trials": 2, "J": 1, "v_count": 4, "depths": [2, 3]},
        }
        cfg = make_config(tmp_path, sections)
        assert run(command, "--config", cfg, "--out", tmp_path / "out", "--seed", 3) == EXIT_OK

    @pytest.mark.parametrize("command", ["stats", "degrade"])
    def test_large_image(self, tmp_path, command):
        model = dict(GMM_MODEL, height=256, width=256)
        cfg = make_config(tmp_path, {"stats": {"v_count": 1}}, model=model, T=4)
        assert run(command, "--config", cfg, "--out", tmp_path / "out", "--seed", 3) == EXIT_OK


class TestErrors:
    def test_bad_json_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert run("sample", "--config", path, "--out", tmp_path / "o") == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert run("sample", "--config", tmp_path / "nope.json", "--out", tmp_path / "o") == EXIT_CONFIG

    def test_unknown_field(self, tmp_path):
        cfg = make_config(tmp_path, {"sample": {"count": 1, "typo": 2}})
        assert run("sample", "--config", cfg, "--out", tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command,sections",
        [
            ("stats", {"stats": {"v_count": 2, "depths": [25]}}),
            ("stats", {"stats": {"v_count": 0}}),
            ("eval", {"eval": {"trials": -3}}),
            ("eval", {"eval": {"depths": [-1]}}),
            ("eval", {"eval": {"baseline_depth": 7}}),
            ("fuzzy", {"fuzzy": {"image": "x.fdg", "map": 1.0, "count": 0}}),
            ("fuzzy", {"fuzzy": {"image": "x.fdg", "map": 1.0, "J": 0}}),
            ("stats", {"stats": {"reps": 0}}),
            ("attend", {"stats": {"reps": 0}, "attend": {"image": "x.fdg", "stats_dir": "s"}}),
            ("eval", {"eval": {"reps": 0}}),
            ("eval", {"eval": {"J": 0}}),
            ("eval", {"eval": {"v_count": 0}}),
            ("sample", {"model": {"type": "gaussian_field", "height": 4, "width": 4,
                                  "marginal_variance": float("inf")}}),
            ("sample", {"model": {"type": "gaussian_field", "height": 4, "width": 4,
                                  "marginal_variance": 10**400}}),
            ("sample", {"model": dict(GMM_MODEL, means=[0.3, float("nan")])}),
            ("eval", {"eval": {"sigma_high": float("nan")}}),
            ("eval", {"eval": {"sigma_low": 8.0, "sigma_high": 4.0}}),
            ("degrade", {"degrade": {"side_min": 3, "side_max": 2}}),
            ("degrade", {"degrade": {"side_max": 9}}),
            ("stats", {"stats": {"depths": [2, 2]}}),
            ("eval", {"eval": {"depths": []}}),
            ("sample", {"schedule": {"T": 10**21}}),
            ("degrade", {"degrade": {"sigma_low": 8.0, "sigma_high": 4.0}}),
            ("eval", {"eval": {"side_min": 3, "side_max": 2}}),
            ("fuzzy", {"fuzzy": {"image": "x.fdg", "map": 1.5}}),
            ("sample", {"schedule": {"T": 2**62}}),
            ("sample", {"model": {"type": "gaussian_field", "height": 100, "width": 100}}),
            # One RNG stream a row: a 1x1 model fits 2**24 rows, but not their streams.
            ("sample", {"sample": {"count": 2**20}, "model": ONE_PIXEL}),
            ("fuzzy", {"fuzzy": {"image": "x.fdg", "map": 0.5, "count": 2**17 + 1},
                       "model": ONE_PIXEL}),
            ("eval", {"eval": {"trials": 2**17 + 1}, "model": ONE_PIXEL}),
        ],
    )
    def test_out_of_range_values_exit_two(self, tmp_path, monkeypatch, command, sections):
        # Every case must fail at load: building a 100x100 field takes GiBs.
        def no_build(*args, **kwargs):
            raise AssertionError("the config was accepted and a model was built")

        monkeypatch.setattr("fuzzydiff.cli.build_model", no_build)
        cfg = make_config(tmp_path, sections)
        out = tmp_path / "o"
        assert run(command, "--config", cfg, "--out", out) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fuzzy", "attend", "degrade"])
    def test_existing_manifest_is_checked_before_inputs(self, tmp_path, command):
        # Every input here is bad (a wrong-shape image, malformed statistics),
        # but the --out check runs first, whatever the command.
        wide = tmp_path / "wide.fdg"
        write_grid(wide, Grid(np.full((4, 3, 1), 0.5)))
        stats_dir = tmp_path / "stats"
        stats_dir.mkdir()
        (stats_dir / "manifest.json").write_text("{oops")
        sections = {
            "fuzzy": {"image": str(wide), "map": 1.0},
            "attend": {"image": str(wide), "stats_dir": str(stats_dir)},
            "degrade": {"image": str(wide)},
        }
        cfg = make_config(tmp_path, sections)
        out = tmp_path / "out"
        assert run("sample", "--config", cfg, "--out", out) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(command, "--config", cfg, "--out", out) == EXIT_IO
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert run(command, "--config", cfg, "--out", out, "--force") == EXIT_VALIDATION
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_argparse_failures_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("sample", "--out", tmp_path / "o")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run("sample", "--config", "x", "--out", "y", "--seed", "-1")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run("unknown-command")
        assert exc.value.code == 2


class TestVerbose:
    def test_v_logs_on_every_in_process_call(self, tmp_path, caplog):
        # -v logs the files written at INFO on the call that passes it, also
        # after another call in the same process; a call without it does not.
        cfg = make_config(tmp_path)
        for i, flags in enumerate([(), ("-v",), ()]):
            caplog.clear()
            assert run("sample", "--config", cfg, "--out", tmp_path / f"o{i}", *flags) == EXIT_OK
            infos = [r.getMessage() for r in caplog.records
                     if r.name == "fuzzydiff" and r.levelno == logging.INFO]
            assert [m.startswith("sample: wrote") for m in infos] == [True] * len(flags)


class TestConsoleScript:
    def test_help_runs(self):
        script = shutil.which("fuzzydiff")
        if script is None:
            proc = subprocess.run(
                [sys.executable, "-m", "fuzzydiff.cli", "--help"],
                capture_output=True,
                text=True,
            )
        else:
            proc = subprocess.run([script, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "sample" in proc.stdout and "eval" in proc.stdout
