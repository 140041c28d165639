"""The paper's claims, checked: every scorecard row passes and
REPRODUCTION.md is the scorecard's current output, byte for byte.

Regenerate the committed file after an intended change with::

    PYTHONPATH=src python -m repro.reproduce > REPRODUCTION.md
"""

from pathlib import Path

import pytest

from repro import reproduce

COMMITTED = Path(__file__).resolve().parents[1] / "REPRODUCTION.md"


@pytest.fixture(scope="module")
def rows():
    return reproduce.scorecard()


def test_every_row_passes(rows):
    failed = [r for r in rows if not r.passed]
    assert not failed, "\n".join(f"{r.id}: {r.ours} (needs {r.check})" for r in failed)


def test_every_row_names_its_substitution(rows):
    assert all(r.substitution for r in rows)
    assert len({r.id for r in rows}) == len(rows)


def test_committed_table_is_current(rows):
    assert COMMITTED.read_text(encoding="utf-8") == reproduce.render(rows), (
        "REPRODUCTION.md is stale; regenerate it with "
        "`PYTHONPATH=src python -m repro.reproduce > REPRODUCTION.md`"
    )
