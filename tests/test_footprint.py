"""What each command imports: run in a fresh interpreter, no command loads
``numpy.ma`` or SciPy beyond what ``import fuzzydiff.cli`` loaded.

Those modules stay resident for the life of the process: ``numpy.ma`` alone,
which ``np.median`` imports on numpy 2.x, holds 1.5-1.9 MiB. Each command runs
on a 2x2 field at T = 4, the console-script config of CI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuzzydiff
from fuzzydiff import Grid, write_grid
from fuzzydiff.cli import EXIT_OK, entrypoint

COMMANDS = ["sample", "fuzzy", "stats", "attend", "degrade", "eval"]

# Prints, on its last line, the modules a command loaded after the CLI's own.
RUN = """import sys
import fuzzydiff.cli
before = set(sys.modules)
code = fuzzydiff.cli.entrypoint(sys.argv[1:])
print(*sorted(set(sys.modules) - before))
sys.exit(code)
"""


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    """The config, with its image and map, and the statistics ``attend`` reads."""
    root = tmp_path_factory.mktemp("footprint")
    write_grid(root / "image.fdg", Grid(np.full((2, 2, 1), 0.5)))
    write_grid(root / "map.fdg", Grid(np.array([[[0.0], [0.5]], [[1.0], [0.25]]])))
    cfg = {"schedule": {"T": 4},
           "model": {"type": "gaussian_field", "height": 2, "width": 2},
           "fuzzy": {"image": str(root / "image.fdg"), "map": str(root / "map.fdg"),
                     "count": 2, "J": 2},
           "stats": {"v_count": 4},
           "attend": {"image": str(root / "image.fdg"), "stats_dir": str(root / "stats")},
           "eval": {"trials": 2, "v_count": 4, "record_artifacts": True}}
    path = root / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert entrypoint(["stats", "--config", str(path), "--out", str(root)]) == EXIT_OK
    return path


def _loaded_by(command: str, config: Path) -> list[str]:
    """The modules a fresh interpreter loads to run ``command``, after the CLI's."""
    src = str(Path(fuzzydiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = config.parent / f"{command}-out"
    proc = subprocess.run(
        [sys.executable, "-c", RUN, command, "--config", str(config), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_loads_no_masked_arrays_or_scipy(config, command):
    loaded = _loaded_by(command, config)
    heavy = [m for m in loaded
             if m == "numpy.ma" or m.startswith("numpy.ma.") or m.split(".")[0] == "scipy"]
    assert not heavy, f"{command} loads {heavy}"
