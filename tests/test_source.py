"""Static checks over the package source: every module but the package's
``__init__`` (which imports in order to re-export) uses each name it
imports, the engine loop is the one caller of ``step_round``, only
``core.run`` and ``reductions.middle_tx`` start a run, importing the
package runs no loop, and no module holds a ``functools`` cache."""

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


def callers_of(name: str) -> list[str]:
    return [scope for path in sorted(SRC.glob("*.py"))
            for scope in calls_of(name, ast.parse(path.read_text(encoding="utf-8")), path.stem)]


def test_only_the_engine_loop_plays_rounds():
    # a second loop over step_round would be a second engine, one that
    # could skip the legality rule
    assert callers_of("step_round") == ["core.Execution.step"]


def test_only_two_readers_start_a_run():
    # a whole run, or the middle nodes' transmissions of a component run:
    # a third reader would be a second loop over Execution.step
    assert callers_of("Execution") == ["core.run", "reductions.middle_tx"]


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def import_time_loops(node: ast.AST):
    """Loops under ``node`` that run when its module is imported: a function
    or lambda body runs later, but its decorators and defaults run now."""
    children = ast.iter_child_nodes(node)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        children = [*getattr(node, "decorator_list", ()), *node.args.defaults,
                    *filter(None, node.args.kw_defaults)]
    for child in children:
        if isinstance(child, LOOPS):
            yield f"line {child.lineno}: {type(child).__name__}"
        yield from import_time_loops(child)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_importing_computes_no_table(path):
    # work at import time lands in every process's set-up, CLI calls included
    assert list(import_time_loops(ast.parse(path.read_text(encoding="utf-8")))) == []


FUNCTOOLS_CACHES = {"cache", "cached_property", "lru_cache"}


def functools_caches(tree: ast.AST):
    """Every ``functools`` cache named under ``tree``: imported from
    ``functools``, or read as an attribute of the imported module."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            names = [node.attr]
        else:
            continue
        yield from (f"line {node.lineno}: {name}" for name in names if name in FUNCTOOLS_CACHES)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_cache(path):
    # a cache keeps what it computed past the call, so it can hold a
    # protocol its caller dropped; and the benchmark's passes start from a
    # fresh import's state only because there is no cache to empty
    assert list(functools_caches(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_modules_are_found():
    assert {"adversary.py", "core.py", "prune.py"} <= {p.name for p in MODULES}
