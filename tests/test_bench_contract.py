"""The benchmark harness's view of the package still resolves.

``bench/`` imports names from ``repro`` inside the functions it runs, so
a rename or a dropped keyword there surfaces only when a benchmark runs.
These tests read ``bench/*.py`` with :mod:`ast` (never importing or
changing them) and check every ``repro`` import and every keyword the
harness passes to a ``repro`` callable it imported by name.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES = sorted(BENCH.glob("*.py"))


def _is_repro(module):
    return module == "repro" or (module or "").startswith("repro.")


def _repro_imports(tree):
    """``(module, name)`` for every ``import repro…`` / ``from repro… import``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_repro(node.module):
            out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names if _is_repro(alias.name))
    return out


def _resolve(module, name):
    target = importlib.import_module(module)
    if name is None:
        return target
    if hasattr(target, name):
        return getattr(target, name)
    return importlib.import_module(f"{module}.{name}")


def _keyword_calls(tree):
    """``(module, name, keyword)`` for calls of by-name ``repro`` imports."""
    imported = {}
    for module, name in _repro_imports(tree):
        if name is not None:
            imported[name] = module
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            module = imported.get(node.func.id)
            if module is not None:
                out.extend(
                    (module, node.func.id, kw.arg)
                    for kw in node.keywords
                    if kw.arg is not None
                )
    return out


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_repro_imports_resolve(path):
    for module, name in _repro_imports(_parse(path)):
        _resolve(module, name)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_keywords_match_signatures(path):
    for module, name, keyword in _keyword_calls(_parse(path)):
        params = inspect.signature(_resolve(module, name)).parameters
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
        assert keyword in params or takes_any, (
            f"{path.name} passes {keyword}= to {module}.{name}, "
            "which no longer accepts it"
        )


def test_walker_sees_bench_imports_and_calls():
    """Guards a vacuous pass if the sources move or change shape."""
    trees = [_parse(path) for path in SOURCES]
    assert any(_repro_imports(tree) for tree in trees), f"nothing under {BENCH}"
    assert any(_keyword_calls(tree) for tree in trees)
