import importlib
import pkgutil

import pytest

import dsgd_lab

MODULES = [module for module in (importlib.import_module(f"dsgd_lab.{info.name}")
                                 for info in pkgutil.iter_modules(dsgd_lab.__path__))
           if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_is_defined(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
