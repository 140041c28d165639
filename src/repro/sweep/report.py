"""Sweep aggregation: summaries, text tables, and machine-readable output.

Turns a pile of per-point result records into the quantities the paper's
figures report: best configuration per model, speedup of each schedule over
the baseline schedule within its (model, dataset, machine, hierarchy,
splits) group,
and utilization tables per machine.  The same summary renders as fixed-width
text (``fuseflow sweep report``) and as a JSON document for downstream
tooling.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from ..comal.metrics import format_table

GroupKey = Tuple[str, str, str, str, str]


def _group_key(record: Dict[str, object]) -> GroupKey:
    """Speedup grouping: everything but the schedule must match.

    The splits axis is part of the key (like the hierarchy axis): a tiled
    and an untiled point share a schedule name, so omitting it would let
    them overwrite each other's cycles in the speedup table.  Pre-splitting
    records have no ``splits`` field and group under the empty config.
    """
    point = record["point"]
    splits = point.get("splits") or {}
    return (
        point["model"],
        point["dataset"],
        point["machine"],
        point.get("hierarchy", "flat"),
        ",".join(f"{k}={v}" for k, v in sorted(splits.items())),
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
        The schedule speedups are computed against, within each
        (model, dataset, machine, hierarchy, splits) group.
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

    # Speedup of each schedule over the baseline schedule, grouped by
    # (model, dataset, machine, hierarchy, splits).
    groups: Dict[GroupKey, Dict[str, float]] = {}
    for record in ok:
        key = _group_key(record)
        groups.setdefault(key, {})[record["point"]["schedule"]] = record[
            "metrics"
        ]["cycles"]
    speedups: List[Dict[str, object]] = []
    for key, cycles_by_schedule in sorted(groups.items()):
        base = cycles_by_schedule.get(baseline_schedule)
        entry: Dict[str, object] = {
            "model": key[0],
            "dataset": key[1],
            "machine": key[2],
            "hierarchy": key[3],
            "splits": key[4],
            "cycles": cycles_by_schedule,
            "baseline": baseline_schedule,
            "speedup": {
                schedule: (base / cycles if base and cycles > 0 else None)
                for schedule, cycles in cycles_by_schedule.items()
            }
            if base is not None
            else {},
        }
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
            if entry.get("splits"):
                group += f"/split:{entry['splits']}"
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
