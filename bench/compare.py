#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change.  For every workload and
end-to-end metric it prints both medians, the ratio B/A with its base, the
run-to-run spread of each side and a verdict:

``better``       B's median is better than A's by more than A's own spread
``within bound`` B is no worse than A by more than the metric's bound
``worse``        B is worse than A by more than the bound
``unresolved``   B looks worse by more than the bound, but A's spread is
                 wider than the bound, so the figure cannot tell — unless
                 every run of B reads worse than every run of A (``worse``)

Bounds come from ``BENCHMARK.json``.  When both files ran the same seeds
the simulated figures must agree exactly, and any difference is ``worse``
or ``better`` outright.  Exit status is 1 on any ``worse`` or on a higher
failed share, else 0.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

from harness import ROOT, median, spread

#: Figures that repeat exactly for a seed: compared without a noise margin
#: when both sides ran the same seeds.
EXACT_PER_SEED = ("sim_cycles_gmean", "sim_dram_bytes_gmean", "codegen_loc_total")


def load_runs(path: str) -> Dict[str, List[dict]]:
    """workload -> its untraced runs."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    runs: Dict[str, List[dict]] = {}
    for run in data["runs"]:
        if not run.get("trace"):
            runs.setdefault(run["workload"], []).append(run)
    return runs


def series(runs: List[dict], name: str) -> List[float]:
    return [run["metrics"][name]["value"] for run in runs]


def verdict(a: List[float], b: List[float], better: str, bound: float, exact: bool) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = median(a)
    worse_by = sign * (median(b) - base) / base if base else 0.0
    if exact:
        return "worse" if worse_by > 0 else "better" if worse_by < 0 else "within bound"
    if worse_by > bound:
        all_worse = min(sign * v for v in b) > max(sign * v for v in a)
        return "worse" if spread(a) <= bound or all_worse else "unresolved"
    if -worse_by > spread(a) and worse_by < 0:
        return "better"
    return "within bound"


def compare(path_a: str, path_b: str, benchmark: dict) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    status = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        a, b = runs_a.get(workload), runs_b.get(workload)
        if not a or not b:
            print(f"\n{workload}: missing from {'A' if not a else 'B'}; not compared")
            continue
        same_seeds = sorted(r["seed"] for r in a) == sorted(r["seed"] for r in b)
        print(f"\n{workload}  (A: {len(a)} run(s), B: {len(b)} run(s)"
              f"{', same seeds' if same_seeds else ''})")
        print(f"  {'metric':22s} {'A median':>14s} {'B median':>14s} "
              f"{'B/A':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            va, vb = series(a, name), series(b, name)
            word = verdict(
                va, vb, metric["better"], metric["bound"],
                same_seeds and name in EXACT_PER_SEED,
            )
            ratio = median(vb) / median(va) if median(va) else float("nan")
            print(
                f"  {name:22s} {median(va):14.4f} {median(vb):14.4f} "
                f"{ratio:8.4f} {spread(va):9.4f} {spread(vb):9.4f} "
                f"{metric['bound']:6.3f}  {word} (base {median(va):.4g} {metric['unit']})"
            )
            if word == "worse":
                status = 1
        failed_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        failed_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print(f"  failed share: A {failed_a:.4f}, B {failed_b:.4f}")
        if failed_b > failed_a:
            print("  -> worse: B fails more requests than A")
            status = 1
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[0] + "\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    return compare(argv[0], argv[1], benchmark)


if __name__ == "__main__":
    raise SystemExit(main())
