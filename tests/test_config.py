import json
import re
from pathlib import Path

import numpy as np
import pytest

from fuzzydiff import (
    GaussianFieldModel,
    Grid,
    build_model,
    build_schedule,
    load_config,
    write_grid,
)
from fuzzydiff.cli import entrypoint
from fuzzydiff.config import MAX_ROW_STREAMS, ConfigError, section

from conftest import two_mode


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


INT = "an integer in the signed 64-bit range"

MINIMAL = {
    "schedule": {"T": 10},
    "model": {"type": "gaussian_field", "height": 4, "width": 4},
}


class TestLoadConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert cfg["schedule"] == {"T": 10, "beta_start": 1e-4, "beta_end": 0.02}
        assert cfg["model"]["channels"] == 1
        assert cfg["model"]["mean"] == 0.5
        assert cfg["model"]["covariance_file"] is None
        assert "sample" not in cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_duplicate_keys_rejected(self, tmp_path):
        # json keeps the last of two equal keys; a strict config must not.
        path = tmp_path / "dup.json"
        path.write_text('{"schedule": {"T": 4, "T": 6}, '
                        '"model": {"type": "gaussian_field", "height": 4, "width": 4}}')
        with pytest.raises(ConfigError, match="duplicate key 'T'"):
            load_config(path)

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="root must be"):
            load_config(path)

    def test_schema_version_enforced(self, tmp_path):
        payload = dict(MINIMAL, schema_version=2)
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write_cfg(tmp_path, payload))

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_must_be_the_integer_1(self, tmp_path, version):
        # Both compare equal to 1 in Python; neither is the integer 1.
        payload = dict(MINIMAL, schema_version=version)
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write_cfg(tmp_path, payload))

    def test_missing_sections(self, tmp_path):
        with pytest.raises(ConfigError, match="'schedule'"):
            load_config(write_cfg(tmp_path, {"model": MINIMAL["model"]}))
        with pytest.raises(ConfigError, match="'model'"):
            load_config(write_cfg(tmp_path, {"schedule": {"T": 5}}))

    def test_unknown_fields_are_rejected_with_path(self, tmp_path):
        payload = dict(MINIMAL, extra={"x": 1})
        with pytest.raises(ConfigError, match="unknown field 'extra'"):
            load_config(write_cfg(tmp_path, payload))
        payload = {"schedule": {"T": 5, "Tee": 6}, "model": MINIMAL["model"]}
        with pytest.raises(ConfigError, match="unknown field 'schedule.Tee'"):
            load_config(write_cfg(tmp_path, payload))

    @pytest.mark.parametrize(
        "field,values",
        [
            # attend takes its reps from the statistics it scores against.
            ("attend.reps", {"image": "x.fdg", "stats_dir": "s", "reps": 1}),
            # A run without degradation sets side_min = side_max = 0.
            ("eval.degrade_enabled", {"degrade_enabled": False}),
        ],
    )
    def test_removed_fields_are_unknown(self, tmp_path, field, values):
        payload = dict(MINIMAL, **{field.split(".")[0]: values})
        with pytest.raises(ConfigError, match=f"^unknown field '{field}'$"):
            load_config(write_cfg(tmp_path, payload))

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        [block] = re.findall(r"```json\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.json"
        path.write_text(block)
        cfg = load_config(path)
        assert {"sample", "fuzzy", "stats", "attend", "eval"} <= set(cfg)

    def test_type_errors_name_the_path(self, tmp_path):
        payload = {"schedule": {"T": "ten"}, "model": MINIMAL["model"]}
        with pytest.raises(ConfigError, match="'schedule.T' must be an integer"):
            load_config(write_cfg(tmp_path, payload))
        payload = {"schedule": {"T": True}, "model": MINIMAL["model"]}
        with pytest.raises(ConfigError, match="'schedule.T' must be an integer"):
            load_config(write_cfg(tmp_path, payload))

    def test_model_type_dispatch(self, tmp_path):
        payload = {"schedule": {"T": 5}, "model": {"height": 2, "width": 2}}
        with pytest.raises(ConfigError, match="model.type"):
            load_config(write_cfg(tmp_path, payload))
        payload["model"]["type"] = "perceptron"
        with pytest.raises(ConfigError, match="model.type"):
            load_config(write_cfg(tmp_path, payload))

    def test_gmm_requires_arrays(self, tmp_path):
        model = {"type": "gmm_pixel", "height": 2, "width": 2, "weights": [1.0], "means": [0.5]}
        payload = {"schedule": {"T": 5}, "model": model}
        with pytest.raises(ConfigError, match="model.variances"):
            load_config(write_cfg(tmp_path, payload))
        model["variances"] = []
        with pytest.raises(ConfigError, match="non-empty array"):
            load_config(write_cfg(tmp_path, payload))

    def test_sections_pick_up_defaults(self, tmp_path):
        payload = dict(MINIMAL, fuzzy={"image": "x.fdg", "map": 0.5})
        cfg = load_config(write_cfg(tmp_path, payload))
        assert cfg["fuzzy"]["J"] == 5
        assert cfg["fuzzy"]["count"] == 1

    def test_require_section(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        with pytest.raises(ConfigError, match="'fuzzy'"):
            section(cfg, "fuzzy")
        cfg = load_config(write_cfg(tmp_path, dict(MINIMAL, fuzzy={"image": "x", "map": 1})))
        assert section(cfg, "fuzzy") is cfg["fuzzy"]

    @pytest.mark.parametrize(
        "section,values,message",
        [
            ("stats", {"depths": [3, 11]}, r"'stats.depths' must lie in \[0, 10\]"),
            ("stats", {"depths": [-1]}, "'stats.depths' must lie"),
            ("eval", {"depths": [25]}, "'eval.depths' must lie"),
            ("eval", {"baseline_depth": 11}, "'eval.baseline_depth' must lie"),
            ("eval", {"trials": -3}, "'eval.trials' must be >= 1"),
            ("eval", {"trials": 0}, "'eval.trials' must be >= 1"),
            ("sample", {"count": 0}, "'sample.count' must be >= 1"),
            ("fuzzy", {"image": "x.fdg", "map": 0.5, "count": -1}, "'fuzzy.count' must be >= 1"),
            ("stats", {"v_count": 0}, "'stats.v_count' must be >= 1"),
            ("model", dict(MINIMAL["model"], height=-2), "'model.height' must be >= 1"),
            ("stats", {"reps": 0}, "'stats.reps' must be >= 1"),
            ("eval", {"side_max": 5}, r"'eval.side_max' must lie in \[0, 4\], got 5"),
            ("eval", {"reps": 0}, "'eval.reps' must be >= 1"),
            ("fuzzy", {"image": "x.fdg", "map": 0.5, "J": 0}, "'fuzzy.J' must be >= 1"),
            ("eval", {"J": 0}, "'eval.J' must be >= 1"),
            ("eval", {"v_count": 0}, "'eval.v_count' must be >= 1"),
            ("model", dict(MINIMAL["model"], mean=float("nan")), "'model.mean' must be a finite"),
            ("model", dict(MINIMAL["model"], marginal_variance=10**400), "'model.marginal_variance'"),
            ("eval", {"sigma_high": float("inf")}, "'eval.sigma_high' must be a finite number"),
            ("degrade", {"sigma_low": -float("inf")}, "'degrade.sigma_low' must be a finite"),
            ("fuzzy", {"image": "x.fdg", "map": float("nan")}, "'fuzzy.map' must be a finite"),
            (
                "model",
                {"type": "gmm_pixel", "height": 2, "width": 2, "weights": [1.0],
                 "means": [0.5], "variances": [float("nan")]},
                "'model.variances' must be a non-empty array of finite numbers",
            ),
            ("eval", {"sigma_low": 8.0, "sigma_high": 4.0}, "'eval.sigma_low' must be <="),
            ("degrade", {"sigma_low": 8.0, "sigma_high": 4.0}, "'degrade.sigma_low' must be <="),
            ("degrade", {"side_min": 3, "side_max": 2}, "'degrade.side_min' must be <="),
            ("eval", {"side_min": 3, "side_max": 2}, "'eval.side_min' must be <="),
            ("degrade", {"side_max": 9}, r"'degrade.side_max' must lie in \[0, 4\], got 9"),
            ("eval", {"side_min": -1}, r"'eval.side_min' must lie in \[0, 4\]"),
            ("stats", {"depths": [2, 2]}, "'stats.depths' must be non-empty and distinct"),
            ("eval", {"depths": []}, "'eval.depths' must be non-empty and distinct"),
            ("schedule", {"T": 10**21}, "'schedule.T' must be an integer in the signed 64-bit"),
            ("stats", {"v_count": 2**63}, "'stats.v_count' must be an integer in the signed"),
            ("eval", {"depths": [1, -(2**63) - 1]}, "'eval.depths' must be an array of signed"),
            ("fuzzy", {"image": "x.fdg", "map": 1.5}, r"'fuzzy.map' scalar must lie in \[0, 1\]"),
            ("fuzzy", {"image": "x.fdg", "map": -0.1}, r"'fuzzy.map' scalar must lie in \[0, 1\]"),
            ("schedule", {"T": 10**6 + 1}, "'schedule.T' must be <= 1000000"),
            # MINIMAL's model has 16 values per row, so 2**20 rows fill the 2**24 cap.
            ("sample", {"count": 2**20 + 1}, "'sample.count' times height"),
            ("fuzzy", {"image": "x.fdg", "map": 0.5, "count": 2**20 + 1}, "'fuzzy.count' times"),
            ("stats", {"v_count": 2**20 + 1}, "'stats.v_count' times"),
            ("eval", {"v_count": 2**20 + 1}, "'eval.v_count' times"),
            ("eval", {"trials": 2**20 + 1}, "'eval.trials' times"),
            ("sample", {"count": 10**12}, "'sample.count' times"),
            # A 100x100 field would need a 1.49 GiB distance array to build.
            ("model", dict(MINIMAL["model"], height=100, width=100), r"must be <= 4096 for gauss"),
            ("model", dict(MINIMAL["model"], height=32, width=32, channels=5), "got 5120"),
            # Checked before any section, whose depth defaults resolve from T.
            ("schedule", {"T": 0}, "'schedule.T' must be >= 1"),
        ],
    )
    def test_out_of_range_values_rejected(self, tmp_path, section, values, message):
        payload = dict(MINIMAL, **{section: values})
        with pytest.raises(ConfigError, match=message):
            load_config(write_cfg(tmp_path, payload))

    def test_depth_bounds_are_inclusive(self, tmp_path):
        payload = dict(MINIMAL, stats={"depths": [0, 10]}, eval={"baseline_depth": 0})
        cfg = load_config(write_cfg(tmp_path, payload))
        assert cfg["stats"]["depths"] == [0, 10]

    def test_range_limits_are_inclusive(self, tmp_path):
        degrade = {"side_min": 4, "side_max": 4, "sigma_low": 5.0, "sigma_high": 5.0}
        payload = dict(MINIMAL, degrade=degrade, eval=dict(degrade, side_min=0))
        payload["schedule"] = {"T": 10**6}
        # MINIMAL's model has 16 values per row, so 2**20 rows fill the 2**24 cap.
        payload["stats"] = {"v_count": 2**20}
        cfg = load_config(write_cfg(tmp_path, payload))
        assert cfg["degrade"]["side_max"] == 4 and cfg["eval"]["side_min"] == 0
        assert cfg["schedule"]["T"] == 10**6 and cfg["stats"]["v_count"] == 2**20

    def test_row_stream_cap_is_inclusive(self, tmp_path):
        # A 1x1 model fits 2**24 rows; the commands that give each row its own
        # RNG stream take at most MAX_ROW_STREAMS of them.
        one_pixel = dict(MINIMAL["model"], height=1, width=1)
        counts = {"sample": {"count": MAX_ROW_STREAMS},
                  "fuzzy": {"image": "x.fdg", "map": 0.5, "count": MAX_ROW_STREAMS},
                  "eval": {"trials": MAX_ROW_STREAMS}}
        cfg = load_config(write_cfg(tmp_path, dict(MINIMAL, model=one_pixel, **counts)))
        assert cfg["sample"]["count"] == cfg["fuzzy"]["count"] == MAX_ROW_STREAMS
        assert cfg["eval"]["trials"] == MAX_ROW_STREAMS
        for name, key in [("sample", "count"), ("fuzzy", "count"), ("eval", "trials")]:
            over = dict(MINIMAL, model=one_pixel, **{name: dict(counts[name], **{key: 2**20})})
            message = f"'{name}.{key}' must be <= {MAX_ROW_STREAMS}"
            with pytest.raises(ConfigError, match=message):
                load_config(write_cfg(tmp_path, over))

    def test_field_size_cap_is_inclusive_and_field_only(self, tmp_path):
        field = dict(MINIMAL["model"], height=64, width=64)
        gmm = {"type": "gmm_pixel", "height": 100, "width": 100, "weights": [1.0],
               "means": [0.5], "variances": [0.01]}
        for model in (field, gmm):
            cfg = load_config(write_cfg(tmp_path, dict(MINIMAL, model=model)))
            assert cfg["model"]["height"] == model["height"]

    def test_section_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert section(cfg, "sample") == {"count": 1}
        assert section(cfg, "eval")["trials"] == 20
        assert "eval" not in cfg  # defaults are checked, never stored
        with pytest.raises(ConfigError):
            section(cfg, "attend")

    def test_section_checks_the_defaults_it_fills_in(self, tmp_path):
        # 20 default trials of 2**20 values each exceed the 2**24 row cap.
        gmm = {"type": "gmm_pixel", "height": 1024, "width": 1024, "weights": [1.0],
               "means": [0.5], "variances": [0.01]}
        cfg = load_config(write_cfg(tmp_path, dict(MINIMAL, model=gmm)))
        with pytest.raises(ConfigError, match="'eval.trials' times height"):
            section(cfg, "eval")
        with pytest.raises(ConfigError, match="'stats.v_count' times height"):
            section(cfg, "stats")
        assert section(cfg, "sample") == {"count": 1}

    def test_every_model_fits_one_row(self, tmp_path):
        gmm = {"type": "gmm_pixel", "height": 4097, "width": 4096, "weights": [1.0],
               "means": [0.5], "variances": [0.01]}
        with pytest.raises(ConfigError, match=r"must be <= 16777216 for gmm_pixel"):
            load_config(write_cfg(tmp_path, dict(MINIMAL, model=gmm)))
        cfg = load_config(write_cfg(tmp_path, dict(MINIMAL, model=dict(gmm, height=4096))))
        assert cfg["model"]["height"] == 4096

    @pytest.mark.parametrize(
        "section,key",
        [
            ("model", "covariance_file"),
            ("stats", "depths"),
            ("degrade", "image"),
            ("degrade", "side_min"),
            ("degrade", "side_max"),
            ("eval", "depths"),
            ("eval", "baseline_depth"),
            ("eval", "side_min"),
            ("eval", "side_max"),
        ],
    )
    def test_null_accepted_where_the_default_is_null(self, tmp_path, section, key):
        # The depth fields take null too, and resolve it from T = 10 as if absent.
        resolved = {"depths": [3, 4, 5, 6], "baseline_depth": 4}
        payload = dict(MINIMAL, **{section: dict(MINIMAL.get(section, {}), **{key: None})})
        assert load_config(write_cfg(tmp_path, payload))[section][key] == resolved.get(key)

    @pytest.mark.parametrize(
        "T,depths,baseline",
        [
            (1, [1], 1),
            (3, [1, 2], 1),
            (50, [15, 20, 25, 30], 20),
            (1000, [300, 400, 500, 600], 400),
        ],
    )
    def test_depth_defaults_resolve_from_T(self, tmp_path, T, depths, baseline):
        schedule = {"schedule": {"T": T}, "model": MINIMAL["model"]}
        absent = load_config(write_cfg(tmp_path, dict(schedule, stats={}, eval={})))
        nulls = {"stats": {"depths": None}, "eval": {"depths": None, "baseline_depth": None}}
        null = load_config(write_cfg(tmp_path, dict(schedule, **nulls)))
        no_sections = load_config(write_cfg(tmp_path, schedule))
        for cfg in (absent, null):
            assert cfg["stats"]["depths"] == cfg["eval"]["depths"] == depths
            assert cfg["eval"]["baseline_depth"] == baseline
        assert section(no_sections, "stats") == absent["stats"]
        assert section(no_sections, "eval") == absent["eval"]

    def test_stats_manifest_echoes_the_depths_it_used(self, tmp_path):
        gmm = {"type": "gmm_pixel", "height": 2, "width": 2, "weights": [1.0],
               "means": [0.5], "variances": [0.01]}
        path = write_cfg(tmp_path, {"schedule": {"T": 10}, "model": gmm, "stats": {"v_count": 2}})
        out = tmp_path / "out"
        assert entrypoint(["stats", "--config", str(path), "--out", str(out)]) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]["stats"]
        inner = json.loads((out / "stats" / "manifest.json").read_text())
        assert echo["depths"] == inner["depths"] == [3, 4, 5, 6]

    @pytest.mark.parametrize(
        "section,values,key,want",
        [
            ("schedule", {"T": None}, "T", INT),
            ("model", dict(MINIMAL["model"], channels=None), "channels", INT),
            ("model", dict(MINIMAL["model"], mean=None), "mean", "a finite number"),
            ("sample", {"count": None}, "count", INT),
            ("fuzzy", {"image": None, "map": 0.5}, "image", "a string"),
            ("fuzzy", {"image": "x", "map": None}, "map", "a finite number or a string"),
            ("fuzzy", {"image": "x", "map": 0.5, "J": None}, "J", INT),
            ("stats", {"v_count": None}, "v_count", INT),
            ("degrade", {"sigma_low": None}, "sigma_low", "a finite number"),
            ("eval", {"sigma_high": None}, "sigma_high", "a finite number"),
            ("eval", {"trials": None}, "trials", INT),
        ],
    )
    def test_null_refused_where_the_default_is_not_null(self, tmp_path, section, values, key, want):
        # The message has no " or null": only a null default makes a field nullable.
        message = f"^'{section}.{key}' must be {want}, got NoneType$"
        with pytest.raises(ConfigError, match=message):
            load_config(write_cfg(tmp_path, dict(MINIMAL, **{section: values})))


class TestBuilders:
    def test_schedule_built_from_fields(self, tmp_path):
        payload = {
            "schedule": {"T": 50, "beta_start": 1.2e-3, "beta_end": 0.24},
            "model": MINIMAL["model"],
        }
        s = build_schedule(load_config(write_cfg(tmp_path, payload)))
        assert s.T == 50
        assert s.beta[1] == pytest.approx(1.2e-3)
        assert s.beta[50] == pytest.approx(0.24)

    def test_bad_schedule_becomes_config_error(self, tmp_path):
        payload = {"schedule": {"T": 4, "beta_end": 1.5}, "model": MINIMAL["model"]}
        with pytest.raises(ConfigError, match="schedule"):
            build_schedule(load_config(write_cfg(tmp_path, payload)))

    def test_field_model_matches_direct_construction(self, tmp_path):
        payload = {
            "schedule": {"T": 5},
            "model": {"type": "gaussian_field", "height": 8, "width": 8},
        }
        model = build_model(load_config(write_cfg(tmp_path, payload)))
        direct = GaussianFieldModel.exponential(8, 8, 1, 0.5, 0.04, 2.0)
        assert model.fingerprint() == direct.fingerprint()

    def test_gmm_model_matches_direct_construction(self, tmp_path):
        payload = {
            "schedule": {"T": 5},
            "model": {
                "type": "gmm_pixel",
                "height": 8,
                "width": 8,
                "weights": [0.5, 0.5],
                "means": [0.25, 0.75],
                "variances": [0.005, 0.005],
            },
        }
        model = build_model(load_config(write_cfg(tmp_path, payload)))
        assert model.fingerprint() == two_mode().fingerprint()

    def test_covariance_file_resolves_relative_to_config(self, tmp_path):
        cov = 0.01 * np.eye(4)
        write_grid(tmp_path / "cov.fdg", Grid(cov.reshape(4, 4, 1)))
        payload = {
            "schedule": {"T": 5},
            "model": {
                "type": "gaussian_field",
                "height": 2,
                "width": 2,
                "mean": 0.1,
                "covariance_file": "cov.fdg",
            },
        }
        path = write_cfg(tmp_path, payload)
        model = build_model(load_config(path), base_dir=path.parent)
        assert model.shape == (2, 2, 1)
        assert np.array_equal(model.moments()[1], cov)

    def test_covariance_file_shape_checked(self, tmp_path):
        write_grid(tmp_path / "cov.fdg", Grid(np.eye(3).reshape(3, 3, 1)))
        payload = {
            "schedule": {"T": 5},
            "model": {
                "type": "gaussian_field",
                "height": 2,
                "width": 2,
                "covariance_file": "cov.fdg",
            },
        }
        path = write_cfg(tmp_path, payload)
        # The shape is checked from the grid file's header, before its payload.
        with pytest.raises(ConfigError, match=r"grid shape \(3, 3, 1\) is not \(4, 4, 1\)"):
            build_model(load_config(path), base_dir=path.parent)

    def test_invalid_model_parameters_become_config_errors(self, tmp_path):
        payload = {
            "schedule": {"T": 5},
            "model": {
                "type": "gmm_pixel",
                "height": 2,
                "width": 2,
                "weights": [0.5, 0.6],
                "means": [0.0, 1.0],
                "variances": [0.01, 0.01],
            },
        }
        with pytest.raises(ConfigError, match="model"):
            build_model(load_config(write_cfg(tmp_path, payload)))
