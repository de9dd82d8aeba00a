"""Package surface: every module's ``__all__`` names what it exports, and README's example runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_library_block_runs_and_prints_its_comment(capsys):
    # README's Library block runs as written, and the headline total it
    # prints is the value its comment gives
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    total_line = next(line for line in block.splitlines() if ".total" in line)
    assert printed[0] == total_line.split("#", 1)[1].strip()
