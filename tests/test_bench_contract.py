"""The benchmark harness's view of the package still resolves.

``bench/`` imports names from ``repro`` inside the functions it runs, so
a rename or a dropped keyword there surfaces only when a benchmark runs.
These tests read ``bench/*.py`` with :mod:`ast` (never importing or
changing them) and check every ``repro`` import, every keyword the
harness passes to a ``repro`` callable it imported by name (also through
attributes, ``PassPipeline.from_names(...)``), and every keyword it sends
to ``Session`` through ``harness.make_session``.
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


def _by_name(tree):
    """Name -> module for every ``from repro… import name``."""
    return {name: module for module, name in _repro_imports(tree) if name is not None}


def _keyword_calls(tree):
    """``(module, name, keyword)`` for calls of by-name ``repro`` imports."""
    imported = _by_name(tree)
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


def _attribute_calls(tree):
    """``(module, name, attrs, keywords)`` for calls ``root.a.b(...)``.

    ``root`` is a by-name ``repro`` import or ``__import__("repro…")``
    (which returns the top-level package, so ``name`` is then ``None``).
    """
    imported = _by_name(tree)
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attrs, root = [], node.func
        while isinstance(root, ast.Attribute):
            attrs.insert(0, root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in imported:
            base = (imported[root.id], root.id)
        elif (
            isinstance(root, ast.Call)
            and isinstance(root.func, ast.Name)
            and root.func.id == "__import__"
            and root.args
            and isinstance(root.args[0], ast.Constant)
            and _is_repro(root.args[0].value)
        ):
            base = (root.args[0].value.split(".")[0], None)
        else:
            continue
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        out.append((*base, attrs, keywords))
    return out


def _literal_keys(value):
    """Keys of a ``dict(k=...)`` call or ``{"k": ...}`` literal, else None."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id == "dict" and not value.args:
            return [kw.arg for kw in value.keywords if kw.arg is not None]
    if isinstance(value, ast.Dict):
        return [k.value for k in value.keys if isinstance(k, ast.Constant)]
    return None


def _session_keywords(tree):
    """Keywords a module passes to ``make_session``, splatted literals included.

    ``make_session(backend, False, **options)`` contributes the keys of the
    ``options = dict(...)`` assignment in the same module; a splat of
    anything else raises, so the walker never silently skips one.
    """
    literals = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, keys = node.targets[0], _literal_keys(node.value)
            if isinstance(target, ast.Name) and keys is not None:
                literals[target.id] = keys
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "make_session"
        ):
            for kw in node.keywords:
                if kw.arg is not None:
                    out.append(kw.arg)
                else:
                    out.extend(literals[kw.value.id])
    return out


def _make_session_def():
    """``harness.make_session``'s own parameters and the keywords its body
    passes to the ``Session`` it builds."""
    tree = _parse(BENCH / "harness.py")
    func = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "make_session"
    )
    own = {arg.arg for arg in func.args.args + func.args.kwonlyargs}
    sent = [
        kw.arg
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg is not None
        and any(
            isinstance(name, ast.Name) and name.id == "Session"
            for name in ast.walk(node.func)
        )
    ]
    return own, sent


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_attribute_calls_resolve(path):
    for module, name, attrs, keywords in _attribute_calls(_parse(path)):
        target = _resolve(module, name)
        for attr in attrs:
            assert hasattr(target, attr), (
                f"{path.name} calls {name or module}.{'.'.join(attrs)}, "
                f"but {attr!r} is gone"
            )
            target = getattr(target, attr)
        params = inspect.signature(target).parameters
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
        for keyword in keywords:
            assert keyword in params or takes_any, (
                f"{path.name} passes {keyword}= to {name or module}."
                f"{'.'.join(attrs)}, which no longer accepts it"
            )


def test_session_accepts_make_session_keywords():
    from repro import Session

    own, sent = _make_session_def()
    forwarded = set(sent)
    for path in SOURCES:
        forwarded.update(k for k in _session_keywords(_parse(path)) if k not in own)
    params = inspect.signature(Session).parameters
    missing = sorted(k for k in forwarded if k not in params)
    assert not missing, f"bench sends {missing} to Session, which rejects them"
    # Guards a vacuous pass: the splatted layers.py options are seen.
    assert {"backend", "disk_cache", "machine", "pipeline", "hierarchy"} <= forwarded


def test_walker_sees_attribute_calls():
    calls = {
        (name, tuple(attrs))
        for path in SOURCES
        for _module, name, attrs, _kw in _attribute_calls(_parse(path))
    }
    assert ("PassPipeline", ("from_names",)) in calls
    assert (None, ("PassPipeline", "default")) in calls
