"""Declared dependencies match what ``src/repro`` imports.

A clean ``pip install .`` must be able to ``import repro``: every
third-party package the source imports has to be listed in
``[project] dependencies`` of ``pyproject.toml``.  The check is static (an
``ast`` walk) and reads the dependency list without ``tomllib``, which only
exists from Python 3.11 on.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Accelerator libraries the engine adapters import lazily, inside
#: functions and only after ``importlib.util.find_spec`` found them; they
#: are optional by design and never imported at module level.
OPTIONAL_IMPORTS = {"torch", "cupy"}

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs sys.stdlib_module_names (3.10+)"
)


def declared_dependencies():
    """Distribution names of ``[project] dependencies`` (normalized)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml declares no [project] dependencies list"
    names = set()
    for requirement in re.findall(r"[\"']([^\"']+)[\"']", block.group(1)):
        name = re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement).group(0)
        names.add(re.sub(r"[-_.]+", "_", name).lower())
    return names


def third_party_imports():
    """``{top-level package: [(file, line, module_level)]}`` over ``src/repro``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_functions = {
            id(inner)
            for outer in ast.walk(tree)
            if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(outer)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                where = (path.relative_to(ROOT).as_posix(), node.lineno, id(node) not in in_functions)
                found.setdefault(top, []).append(where)
    return found


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    undeclared = {
        name: sites
        for name, sites in third_party_imports().items()
        if name not in OPTIONAL_IMPORTS and name.lower() not in declared
    }
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"


def test_every_declared_dependency_is_imported():
    imported = {name.lower() for name in third_party_imports()}
    assert declared_dependencies() <= imported


def test_optional_accelerators_are_never_imported_at_module_level():
    eager = [
        site
        for name, sites in third_party_imports().items()
        if name in OPTIONAL_IMPORTS
        for site in sites
        if site[2]
    ]
    assert not eager, f"optional accelerator imported at module level: {eager}"
