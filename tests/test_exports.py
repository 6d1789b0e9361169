"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

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
