"""What ``pip install .`` promises matches what ``import repro`` needs."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _declared_dependencies():
    # A regex, not tomllib: requires-python still admits 3.10.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S)
    return {
        re.split(r"[<>=!~\[; ]", spec, maxsplit=1)[0].lower()
        for spec in re.findall(r"[\"']([^\"']+)[\"']", listed.group(1))
    }


def test_every_third_party_import_is_a_declared_dependency():
    imported = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    third_party = {
        name: where
        for name, where in imported.items()
        if name not in sys.stdlib_module_names and name != "repro"
    }
    declared = _declared_dependencies()
    undeclared = {
        name: where
        for name, where in third_party.items()
        if name.lower() not in declared
    }
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"
    assert "numpy" in third_party  # the scan sees something
