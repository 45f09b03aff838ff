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
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name,
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


def unread_private_names(sources):
    """Module-level `_name`s that no module of `sources` (module name ->
    source) reads, as sorted (module, name) pairs; dunder names skipped."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [
                    n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            defined += [(module, n) for n in names if n[0] == "_" and n[:2] != "__"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((m, n) for m, n in defined if n not in read)


def test_no_unread_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_unread_private_name_is_found():
    sources = {
        "a": (
            "__all__ = []\n"
            "_USED, _DEAD = 1, 2\n"
            "class _Unused: pass\n"
            "def _helper():\n"
            "    return _USED\n"
        ),
        "b": "from . import a\ndef f():\n    return a._helper()\n",
    }
    assert unread_private_names(sources) == [("a", "_DEAD"), ("a", "_Unused")]


def untold_error_classes(errors_source, sources):
    """Classes of `errors_source` that no source of `sources` names in an
    `except` clause, an `isinstance` call or the `_EXIT_3` tuple, sorted."""
    defined = {
        node.name
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    }
    told = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = node.type
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                named = node.args[1]
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXIT_3" for t in node.targets
            ):
                named = node.value
            else:
                continue
            for n in ast.walk(named):
                if isinstance(n, ast.Name):
                    told.add(n.id)
                elif isinstance(n, ast.Attribute):
                    told.add(n.attr)
    return sorted(defined - told)


def test_every_error_class_is_told_apart():
    # a class that no code tells apart exits as a plain VanetPosError does
    sources = [p.read_text() for p in PACKAGE.glob("*.py")]
    assert untold_error_classes((PACKAGE / "errors.py").read_text(), sources) == []


def test_untold_error_class_is_found():
    errors = (
        "class Base(ValueError): pass\n"
        "class Caught(Base): pass\n"
        "class Exit3(Base): pass\n"
        "class Checked(Base): pass\n"
        "class Raised(Base): pass\n"
    )
    program = (
        "_EXIT_3 = (Exit3,)\n"
        "def f(e):\n"
        "    try:\n"
        "        raise Raised('only raised')\n"
        "    except (errors.Caught, Base):\n"
        "        return isinstance(e, Checked)\n"
    )
    assert untold_error_classes(errors, [program]) == ["Raised"]


def test_console_script_runs_cli_main():
    # the tests import the package from src, so no installed script runs them
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    module, _, attr = scripts["vanetpos"].partition(":")
    assert getattr(importlib.import_module(module), attr) is vanetpos.cli.main
