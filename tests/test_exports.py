"""Every exported name resolves, so a deletion cannot leave a stale export,
and the package loads a submodule only when one of its names is first used."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzydiff

MODULES = sorted(m.name for m in pkgutil.iter_modules(fuzzydiff.__path__, "fuzzydiff."))


@pytest.mark.parametrize("name", ["fuzzydiff", *MODULES])
def test_star_import_binds_every_exported_name(name):
    module = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # a name in __all__ that is gone raises here
    for export in getattr(module, "__all__", []):
        assert namespace[export] is getattr(module, export)


def _loaded_after(statement: str) -> set[str]:
    """The fuzzydiff modules a fresh interpreter holds after ``statement``."""
    src = str(Path(fuzzydiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    listed = "print(*(m for m in sys.modules if m.split('.')[0] == 'fuzzydiff'))"
    code = f"{statement}; import sys; {listed}"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "statement,loaded",
    [
        ("import fuzzydiff", []),
        ("import fuzzydiff.config", ["config", "core", "denoiser", "gridio", "schedule"]),
        ("from fuzzydiff import fuzzy_sample", ["core", "denoiser", "sampler", "schedule"]),
    ],
)
def test_a_submodule_loads_only_when_needed(statement, loaded):
    assert _loaded_after(statement) == {"fuzzydiff", *(f"fuzzydiff.{m}" for m in loaded)}


def test_every_export_is_its_home_modules_object():
    for name in fuzzydiff.__all__:
        value = getattr(fuzzydiff, name)
        assert value.__module__.startswith("fuzzydiff."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert vars(fuzzydiff)[name] is value, name  # bound, so the lookup runs once
    assert set(fuzzydiff.__all__) <= set(dir(fuzzydiff))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        fuzzydiff.no_such_name  # noqa: B018
