"""Parallel experiment-sweep subsystem.

The paper's evaluation is a sweep — many (model × dataset × schedule ×
machine × hierarchy) points simulated under comal.  This package makes that
a first-class workload instead of shell loops:

* :class:`SweepSpec` / :class:`SweepPoint` — declarative cartesian grids
  and explicit point lists with stable, fingerprint-derived point IDs; a
  point is also what a CLI invocation and a serve body build;
* :func:`bundle_for` — the process's one model-bundle cache;
* :class:`SweepRunner` / :func:`run_sweep` — multiprocessing fan-out with
  per-worker :class:`~repro.driver.session.Session` compile caches;
* :class:`ResultStore` — append-only JSONL results with a spec header and
  resume-from-partial-results;
* :func:`summarize` / :func:`render_summary` / :func:`write_summary_json`
  — best-per-model, speedup-vs-baseline, and utilization aggregation, as
  text or JSON.

A CLI ``run``, ``simulate`` or ``sweep quick`` is a sweep point too: each
runs through :func:`run_point`, and :func:`~repro.sweep.runner.run_record`
verifies and reports every run, ``/v1/simulate``'s included.

CLI: ``fuseflow sweep run|resume|report|quick``.
"""

from .report import render_summary, summarize, write_summary_json
from .runner import (
    SweepOutcome,
    SweepRunner,
    run_point,
    run_sweep,
)
from .spec import (
    SYNTHETIC,
    SweepPoint,
    SweepSpec,
    SweepSpecError,
    build_bundle,
    bundle_for,
    compatible_datasets,
)
from .store import ResultStore, ResultStoreError

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "SweepSpecError",
    "SYNTHETIC",
    "compatible_datasets",
    "build_bundle",
    "bundle_for",
    "SweepRunner",
    "SweepOutcome",
    "run_sweep",
    "run_point",
    "ResultStore",
    "ResultStoreError",
    "summarize",
    "render_summary",
    "write_summary_json",
]
