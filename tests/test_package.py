import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import dsgd_lab

MODULES = [module for module in (importlib.import_module(f"dsgd_lab.{info.name}")
                                 for info in pkgutil.iter_modules(dsgd_lab.__path__))
           if hasattr(module, "__all__")]

SOURCES = sorted(pathlib.Path(dsgd_lab.__path__[0]).glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_is_defined(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def _imported_roots(source: pathlib.Path):
    """The top-level name of every absolute import in the file, at any depth."""
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.name)
def test_numpy_is_the_only_runtime_dependency(source):
    allowed = {"numpy", "dsgd_lab"} | set(sys.stdlib_module_names)
    foreign = sorted(set(_imported_roots(source)) - allowed)
    assert not foreign, f"{source.name} imports {foreign}"
