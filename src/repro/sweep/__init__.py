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

One program under several schedules in-process is
``Session.compare_schedules``.

CLI: ``fuseflow sweep run|resume|report|quick``.
"""

from .report import render_summary, summarize, write_summary_json
from .runner import (
    SweepOutcome,
    SweepRunner,
    run_point,
    run_sweep,
    set_worker_cache_dir,
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
    "set_worker_cache_dir",
    "ResultStore",
    "ResultStoreError",
    "summarize",
    "render_summary",
    "write_summary_json",
]
