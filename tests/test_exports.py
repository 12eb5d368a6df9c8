"""Every exported name resolves, so a deleted function cannot linger as an export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import quditphase

MODULES = sorted(info.name for info in pkgutil.iter_modules(quditphase.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"quditphase.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_are_module_exports():
    """Each name the package re-exports is in its module's ``__all__`` and
    resolves on the package."""
    tree = ast.parse(Path(quditphase.__file__).read_text())
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"quditphase.{node.module}").__all__
            for alias in node.names:
                if alias.name not in exported or not hasattr(quditphase, alias.asname or alias.name):
                    stray.append(f"{node.module}.{alias.name}")
    assert stray == []
