"""Static checks over the package source: every module but the package's
``__init__`` (which imports in order to re-export) uses each name it
imports, and the engine loop is the one caller of ``step_round``."""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "radiolb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == [], path.name


def calls_of(name: str, node: ast.AST, scope: str):
    """``module.Class.function`` scopes of every call of ``name``, by bare
    name or as an attribute, under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                yield inner
        yield from calls_of(name, child, inner)


def test_only_the_engine_loop_plays_rounds():
    # a second loop over step_round would be a second engine, one that
    # could skip the legality rule
    callers = [scope for path in sorted(SRC.glob("*.py"))
               for scope in calls_of("step_round", ast.parse(path.read_text(encoding="utf-8")),
                                     path.stem)]
    assert callers == ["core.Execution.step"]


def test_modules_are_found():
    assert {"adversary.py", "core.py", "prune.py"} <= {p.name for p in MODULES}
