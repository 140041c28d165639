"""The environment surface of ``src/repro`` is an inventory, not a habit.

A new ``FUSEFLOW_*`` switch, or a new module reading the environment, has
to be added here and to the "Environment switches" table in
``docs/backends.md`` on purpose.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

SWITCHES = {
    "FUSEFLOW_DEBUG_STREAMS",
    "FUSEFLOW_FAULTS",
    "FUSEFLOW_CACHE_DIR",
}
ENV_READERS = {
    "comal/functional.py",
    "driver/session.py",
    "serve/app.py",
    "reliability/faults.py",
}


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text(encoding="utf-8")


def test_switch_inventory_is_exact():
    named = set()
    for _, text in _sources():
        named.update(re.findall(r"FUSEFLOW_[A-Z_]+", text))
    assert named == SWITCHES


def test_environment_readers_are_exact():
    readers = {
        name
        for name, text in _sources()
        if re.search(r"os\.environ|os\.getenv|from os import", text)
    }
    assert readers == ENV_READERS


def test_every_switch_is_a_row_of_the_docs_table():
    text = (ROOT / "docs" / "backends.md").read_text(encoding="utf-8")
    table = text.split("## Environment switches", 1)[1]
    rows = set(re.findall(r"^\| `(FUSEFLOW_[A-Z_]+)` \|", table, re.M))
    assert rows == SWITCHES

