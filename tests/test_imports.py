"""Static checks on the package source and its metadata, with the stdlib only."""

import ast
import importlib
import tomllib
from pathlib import Path

import pytest

import vanetpos.cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vanetpos"


def unused_imports(source: str):
    """Names a module imports but never reads, as (line, name) pairs."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import List, Optional\n"
        "def f(x: List[int]) -> int:\n"
        "    return os.getpid()\n"
    )
    assert unused_imports(source) == [(3, "Optional")]


def test_console_script_runs_cli_main():
    # the tests import the package from src, so no installed script runs them
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    module, _, attr = scripts["vanetpos"].partition(":")
    assert getattr(importlib.import_module(module), attr) is vanetpos.cli.main
