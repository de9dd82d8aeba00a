"""Package surface: every module's ``__all__`` names what it exports."""

import ast
import importlib
import pkgutil

import pytest

import abcertify

MODULES = ["abcertify"] + [f"abcertify.{m.name}" for m in pkgutil.iter_modules(abcertify.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_public_names_imported_from_siblings_are_exported(name):
    # a public name one module takes from another (``from .bounds import
    # radius_table``) is in that module's __all__
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            source = importlib.import_module(f"abcertify.{node.module}")
            exported = getattr(source, "__all__", [])
            missing += [
                (node.module, a.name)
                for a in node.names
                if not a.name.startswith("_") and a.name not in exported
            ]
    assert missing == []
