"""Sweep aggregation: summaries, text tables, and machine-readable output.

Turns a pile of per-point result records into the quantities the paper's
figures report: best configuration per model, speedup of each schedule over
the baseline schedule among points that differ only in schedule, and
utilization tables per machine.  The same summary renders as fixed-width
text (``fuseflow sweep report``) and as a JSON document for downstream
tooling.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from ..comal.metrics import format_table
from .spec import SweepPoint, _filtered_args

#: A speedup group's fields: every point field but the schedule.
_GROUP_FIELDS = (
    "model", "dataset", "machine", "hierarchy", "model_args", "par", "splits", "backend",
)


def _group_key(record: Dict[str, object]) -> Tuple[str, ...]:
    """Speedup grouping: every point field but the schedule must match.

    Points that differ in builder arguments (those the model reads),
    ``par``, splits or hierarchy share schedule names, so leaving any of
    them out would let them overwrite each other's cycles in the speedup
    table.  Records from before a field existed load it at its default.
    """
    point = SweepPoint.from_record(record["point"])

    def render(items) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(dict(items).items()))

    return (
        point.model,
        point.dataset,
        point.machine,
        point.hierarchy,
        render(_filtered_args(point.model, dict(point.model_args))),
        render(point.par),
        render(point.splits),
        point.backend,
    )


def _ok(records: List[Dict[str, object]]) -> List[Dict[str, object]]:
    return [r for r in records if r.get("status") == "ok"]


def summarize(
    records: List[Dict[str, object]],
    baseline_schedule: str = "unfused",
    name: str = "sweep",
) -> Dict[str, object]:
    """Aggregate result records into the report/JSON summary structure.

    Parameters
    ----------
    records:
        Per-point result records (:func:`~repro.sweep.runner.run_point`
        output / :meth:`~repro.sweep.store.ResultStore.records`).
    baseline_schedule:
        The schedule speedups are computed against, within each group of
        points that differ only in schedule.
    name:
        Sweep name echoed into the summary.

    Returns
    -------
    dict
        ``points_ok``/``points_failed``/``verified``, ``best_per_model``,
        per-group ``speedups``, ``utilization`` rows, ``failures``, and
        the ok ``results``.
    """
    ok = _ok(records)
    failed = [r for r in records if r.get("status") != "ok"]

    # Best configuration (minimum cycles) per model.
    best_per_model: Dict[str, Dict[str, object]] = {}
    for record in ok:
        model = record["point"]["model"]
        cycles = record["metrics"]["cycles"]
        best = best_per_model.get(model)
        if best is None or cycles < best["cycles"]:
            best_per_model[model] = {
                "point_id": record["point_id"],
                "label": record["label"],
                "cycles": cycles,
                "schedule": record["point"]["schedule"],
                "dataset": record["point"]["dataset"],
                "machine": record["point"]["machine"],
            }

    # Speedup of each schedule over the baseline schedule, among points
    # that differ only in schedule.
    groups: Dict[Tuple[str, ...], Dict[str, float]] = {}
    for record in ok:
        key = _group_key(record)
        groups.setdefault(key, {})[record["point"]["schedule"]] = record[
            "metrics"
        ]["cycles"]
    speedups: List[Dict[str, object]] = []
    for key, cycles_by_schedule in sorted(groups.items()):
        base = cycles_by_schedule.get(baseline_schedule)
        entry: Dict[str, object] = dict(zip(_GROUP_FIELDS, key))
        entry.update(
            cycles=cycles_by_schedule,
            baseline=baseline_schedule,
            speedup={
                schedule: (base / cycles if base and cycles > 0 else None)
                for schedule, cycles in cycles_by_schedule.items()
            }
            if base is not None
            else {},
        )
        speedups.append(entry)

    utilization = [
        {
            "label": record["label"],
            "machine": record["point"]["machine"],
            "compute_utilization": record["metrics"]["compute_utilization"],
            "memory_utilization": record["metrics"]["memory_utilization"],
            "operational_intensity": record["metrics"]["operational_intensity"],
        }
        for record in ok
    ]

    return {
        "name": name,
        "points_ok": len(ok),
        "points_failed": len(failed),
        "verified": all(r.get("verified", False) for r in ok) if ok else False,
        "baseline_schedule": baseline_schedule,
        "best_per_model": best_per_model,
        "speedups": speedups,
        "utilization": utilization,
        "failures": [
            {"label": r.get("label"), "error": r.get("error")} for r in failed
        ],
        "results": [
            {
                "point_id": r["point_id"],
                "label": r["label"],
                "point": r["point"],
                "metrics": r["metrics"],
                "max_abs_err": r["max_abs_err"],
            }
            for r in ok
        ],
    }


def render_summary(summary: Dict[str, object]) -> str:
    """Fixed-width text rendering of a sweep summary."""
    lines: List[str] = [
        f"sweep {summary['name']}: {summary['points_ok']} point(s) ok, "
        f"{summary['points_failed']} failed, baseline "
        f"{summary['baseline_schedule']!r}"
    ]

    if summary["results"]:
        rows = [
            [
                r["label"],
                f"{r['metrics']['cycles']:.0f}",
                f"{r['metrics']['flops']}",
                f"{r['metrics']['dram_bytes']}",
                f"{r['max_abs_err']:.2e}",
            ]
            for r in summary["results"]
        ]
        lines += ["", format_table(rows, ["point", "cycles", "flops", "bytes", "max|err|"])]

    if summary["speedups"]:
        rows = []
        for entry in summary["speedups"]:
            group = f"{entry['model']}/{entry['dataset']}/{entry['machine']}"
            if entry.get("hierarchy", "flat") != "flat":
                group += f"/{entry['hierarchy']}"
            for field, prefix in (
                ("model_args", ""), ("par", ""), ("splits", "split:"), ("backend", "backend:")
            ):
                if entry.get(field):
                    group += f"/{prefix}{entry[field]}"
            for schedule, speedup in sorted(entry["speedup"].items()):
                rows.append(
                    [
                        group,
                        schedule,
                        f"{entry['cycles'][schedule]:.0f}",
                        "-" if speedup is None else f"{speedup:.2f}x",
                    ]
                )
        lines += ["", format_table(rows, ["group", "schedule", "cycles", "speedup"])]

    if summary["best_per_model"]:
        rows = [
            [model, best["label"], f"{best['cycles']:.0f}"]
            for model, best in sorted(summary["best_per_model"].items())
        ]
        lines += ["", format_table(rows, ["model", "best point", "cycles"])]

    if summary["failures"]:
        lines += [""] + [
            f"FAILED {f['label']}: {f['error']}" for f in summary["failures"]
        ]
    return "\n".join(lines)


def write_summary_json(summary: Dict[str, object], path: str) -> None:
    """Write a :func:`summarize` result to ``path`` as pretty JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
