"""The paper's claims, checked: every scorecard row passes and
REPRODUCTION.md is the scorecard's current output, byte for byte.

Regenerate the committed file after an intended change with::

    PYTHONPATH=src python -m repro.reproduce > REPRODUCTION.md

The grid rows read only sweep records, so a point that fails, or whose
output disagrees with the dense reference, must make its row raise
rather than render a number.
"""

from pathlib import Path

import pytest

from repro import reproduce
from repro.comal import MACHINES
from repro.reliability import FaultPlan, injected_faults
from repro.sweep import SweepPoint, SweepSpec, bundle_for, runner, spec

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


def test_specs_are_keyed_by_row_id(rows):
    assert set(reproduce.SPECS) < {r.id for r in rows}


def test_scorecard_leaves_the_sweep_caches_empty(rows):
    assert not reproduce._GRIDS
    assert not (runner._SESSIONS or runner._STAGE or spec._BUNDLES)
    assert runner._STORE._table is None


@pytest.mark.parametrize("row", sorted(reproduce.SPECS))
def test_spec_survives_save_and_load(row, tmp_path):
    original = reproduce.SPECS[row]
    path = str(tmp_path / f"{row}.json")
    original.save(path)
    loaded = SweepSpec.load(path)
    assert loaded.fingerprint() == original.fingerprint()
    assert [p.point_id for p in loaded.points()] == [p.point_id for p in original.points()]
    assert {p.machine for p in original.points()} <= set(MACHINES)


@pytest.fixture
def no_grids(monkeypatch):
    """No metrics from an earlier row run, no worker caches left behind."""
    monkeypatch.setattr(reproduce, "_GRIDS", {})
    runner.clear_worker_caches()
    yield
    runner.clear_worker_caches()


def test_a_failed_point_makes_its_row_raise(no_grids):
    plan = FaultPlan.parse("sweep.point:raise@match=graphsage/synthetic/partial")
    with injected_faults(plan):
        with pytest.raises(RuntimeError, match=r"ours-fabric: 1 point\(s\) not ok.*InjectedFault"):
            reproduce.ours_fabric()


def test_an_unverified_point_makes_its_row_raise(no_grids, monkeypatch):
    bundle = bundle_for(SweepPoint.make("graphsage", model_args=reproduce.FABRIC_ARGS))
    monkeypatch.setattr(bundle, "reference", bundle.reference + 1.0)
    with pytest.raises(RuntimeError, match=r"3 point\(s\) not ok.*verification failed"):
        reproduce.ours_fabric()
