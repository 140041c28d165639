#!/usr/bin/env python3
"""The one end-to-end benchmark of this repository.

    python bench/run.py                         all six workloads, untraced
    python bench/run.py --trace                 ... then a traced pass each
    python bench/run.py --workload W --seed S   one workload
    python bench/run.py --quick                 smoke: one round, two classes
    python bench/run.py --aa N                  N back-to-back runs, spreads

With ``--workload`` this is also the command ``BENCHMARK.json`` names: the
last line of standard output is one JSON object holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  See
``bench/README.md`` for the catalogue and how to read the output.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys

import catalogue
from harness import (
    OUT,
    ROOT,
    GuardError,
    Layers,
    Tracer,
    assert_clean_env,
    by_class,
    end_to_end,
    gmean,
    median,
    peak_rss_mb,
    quartiles,
    require_program,
    scrub_env,
    spread,
)

SETUPS = 3


def workload_classes() -> dict:
    from wl_codegen import ColdCodegen, SteadyCodegen, WarmDiskCodegen
    from wl_serve import ServeMix
    from wl_sweep import SweepGrid
    from wl_tune import TuneSearch

    found = {
        cls.name: cls
        for cls in (
            ColdCodegen, WarmDiskCodegen, SteadyCodegen,
            SweepGrid, TuneSearch, ServeMix,
        )
    }
    assert list(found) == list(catalogue.WORKLOADS), "catalogue out of step"
    return found


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    require_program()
    scrub_env()
    assert_clean_env()
    import numpy  # noqa: F401 - part of what set-up pays
    import repro  # noqa: F401
    import repro.backend.codegen  # noqa: F401
    import repro.core.schedule.search  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sweep  # noqa: F401

    import_s = time.perf_counter() - _PROCESS_START
    tracer = Tracer()
    workload = workload_classes()[args.workload](args.seed, args.quick, tracer)

    setups = []
    for attempt in range(1 if args.quick else SETUPS):
        if attempt:
            workload.teardown()
        workload.calibrate()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    setup_speed = median(workload.speeds)
    workload.calibration_s = 0.0

    samples, traced_samples = [], []
    layers = Layers()
    window = 0.0
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            if args.trace and workload.traced_first:
                traced_samples += traced_pass(workload, tracer, rounds, layers)
            started = time.perf_counter()
            calibrating = workload.calibration_s
            fresh = workload.run_round(rounds)
            wall = time.perf_counter() - started
            wall -= workload.calibration_s - calibrating
            window += wall * median(s.speed for s in fresh)
            samples += fresh
            if args.trace and not workload.traced_first:
                traced_samples += traced_pass(workload, tracer, rounds, layers)
            rounds += 1
            if args.rounds:
                done = rounds >= args.rounds
            else:
                done = time.perf_counter() >= deadline
            if done:
                break
        extra = workload.after_window()
    finally:
        workload.teardown()

    everything = samples + traced_samples
    failed = [s for s in everything if not s.ok]
    if args.trace:
        values = layer_metrics(workload, tracer, layers, samples, traced_samples)
        table = catalogue.PER_LAYER
        write_trace(args.trace_out, tracer)
    else:
        values = end_to_end(samples, window, workload.equal_classes)
        values.update(extra)
        values["setup_s"] = (import_s + median(setups)) * setup_speed
        values["peak_rss_mb"] = peak_rss_mb(workload.rss_children)
        table = catalogue.END_TO_END

    print(
        f"# {args.workload}: seed {args.seed}, {rounds} round(s), "
        f"{len(everything)} request(s), {len(failed)} failed, "
        f"window {window:.2f} s, set-up x{len(setups)}"
    )
    print(
        f"# host speed {median(workload.speeds):.3f} of reference (times are "
        "reported at reference speed; serve_mix requests are not scaled)"
    )
    for name in table:
        print(f"{name:42s} {values[name]:16.4f} {table[name][0]}")
    if not args.trace:
        print(f"# {'class':34s} {'requests':>8s} {'request ms':>12s} {'compile ms':>12s} {'cycles':>14s}")
        per = {a: by_class(samples, a) for a in ("ms", "compile_ms", "cycles")}
        for cls in sorted(per["ms"]):
            count = sum(1 for s in samples if s.cls == cls and s.ok)
            print(
                f"# {cls[:34]:34s} {count:8d} {per['ms'][cls]:12.3f} "
                f"{per['compile_ms'].get(cls, 0.0):12.3f} {per['cycles'].get(cls, 0.0):14.1f}"
            )
    for sample in failed[:5]:
        print(f"FAILED {sample.cls}: {sample.why}")
    if args.trace:
        for name in ("trace.layer_sum_share", "trace.pass_sum_share"):
            verdict = "ok" if abs(values[name] - 1.0) <= 0.10 else "OFF: attribution is wrong"
            print(f"# {name} {values[name]:.3f} (must be within 10 % of 1): {verdict}")
        print(f"# tracing overhead {values['trace.overhead_ms']:+.3f} ms on request_ms_gmean")
        print("# self time by span name (ms, whole traced pass):")
        for name, ms in self_time_by_name(tracer)[:10]:
            print(f"#   {name:40s} {ms:12.2f}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(everything),
                "failed": len(failed),
                "metrics": {
                    name: {"value": values[name], "unit": table[name][0]}
                    for name in table
                },
            }
        )
    )
    return 1 if failed else 0


def traced_pass(workload, tracer, index, layers) -> list:
    tracer.enabled = True
    try:
        return workload.traced_round(index, layers)
    finally:
        tracer.enabled = False


def layer_metrics(workload, tracer, layers, samples, traced_samples) -> dict:
    values = {
        name: layers.combined(name, how)
        for name, (_unit, _better, how) in catalogue.PER_LAYER.items()
    }
    traced = by_class(traced_samples, "ms")
    plain = by_class(samples, "ms")
    both = sorted(set(traced) & set(plain))
    values["trace.request_ms_gmean"] = gmean(traced.values())
    values["trace.overhead_ms"] = gmean(traced[c] for c in both) - gmean(
        plain[c] for c in both
    )
    values["trace.layer_sum_share"] = gmean(
        median(sums) / traced[cls]
        for cls, sums in workload.layer_sums.items()
        if traced.get(cls)
    )
    runs = layers.per_class("driver.pipeline.run_ms")
    values["trace.pass_sum_share"] = gmean(
        sum(
            layers.per_class(f"driver.pass_ms.{name}").get(cls, 0.0)
            for name in catalogue.PASS_NAMES
        )
        / run_ms
        for cls, run_ms in runs.items()
        if run_ms > 0
    )
    values["trace.spans"] = float(len(tracer.spans))
    return values


def self_time_by_name(tracer: Tracer) -> list:
    """(span name, summed self ms), largest first."""
    own = tracer.self_ms()
    totals: dict = {}
    for sp in tracer.spans:
        totals[sp.name] = totals.get(sp.name, 0.0) + own[id(sp)]
    return sorted(totals.items(), key=lambda item: -item[1])


def write_trace(path: str, tracer: Tracer) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": tracer.chrome_events()}, fh)


# ----------------------------------------------------------------------
# Several runs, each in its own process
# ----------------------------------------------------------------------
def spawn(args, workload: str, seed: int, trace: int, trace_out: str = ""):
    """Run one workload in a fresh process; returns (result dict, text)."""
    argv = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.rounds:
        argv += ["--rounds", str(args.rounds)]
    if args.quick:
        argv.append("--quick")
    if trace_out:
        argv += ["--trace-out", trace_out]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        raise SystemExit(f"{workload}: no result line (exit {proc.returncode})\n{proc.stdout}")
    result.update(workload=workload, seed=seed, trace=trace)
    for line in lines:
        if line.startswith("# host speed "):
            result["host_speed"] = float(line.split()[3])
    return result, "\n".join(lines[:-1])


def environment(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": args.rounds or "by --seconds",
        "quick": args.quick,
    }


def save(path: str, env: dict, runs: list) -> None:
    env["loadavg_end"] = os.getloadavg()
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "env": env, "runs": runs}, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {os.path.relpath(path, ROOT)}")


def selected(args) -> list:
    return [args.workload] if args.workload else list(catalogue.WORKLOADS)


def run_all(args) -> int:
    require_program()
    env = environment(args)
    runs, events = [], []
    for workload in selected(args):
        result, text = spawn(args, workload, args.seed, 0)
        print(text + "\n")
        runs.append(result)
        if args.trace:
            part = os.path.join(OUT, f"trace-{workload}.json")
            result, text = spawn(args, workload, args.seed, 1, part)
            print(text + "\n")
            runs.append(result)
            with open(part, encoding="utf-8") as fh:
                events += json.load(fh)["traceEvents"]
            os.unlink(part)
    if args.trace:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)
        print(f"wrote {os.path.relpath(args.trace_out, ROOT)} ({len(events)} spans)")
    save(args.out or os.path.join(OUT, "results.json"), env, runs)
    bad = [r["workload"] for r in runs if not r["correct"]]
    if bad:
        print(f"UNVERIFIED OUTPUT on: {', '.join(sorted(set(bad)))}")
    return 1 if bad else 0


def run_aa(args) -> int:
    """A/A: the same tree N times; what the bounds are derived from."""
    require_program()
    env = environment(args)
    env["aa_runs"] = args.aa
    runs = []
    for workload in selected(args):
        for i in range(args.aa):
            result, _text = spawn(args, workload, args.seed + i, 0)
            runs.append(result)
            print(
                f"{workload} run {i + 1}/{args.aa} seed {args.seed + i}: "
                f"{result['attempted']} request(s), {result['failed']} failed",
                flush=True,
            )
    print(
        f"\n{'workload':18s} {'metric':22s} {'median':>14s} {'q1':>14s} "
        f"{'q3':>14s} {'spread':>8s} {'bound':>7s}"
    )
    for workload in selected(args):
        mine = [r for r in runs if r["workload"] == workload]
        for name, (unit, _better, bound) in catalogue.END_TO_END.items():
            series = [r["metrics"][name]["value"] for r in mine]
            q1, q2, q3 = quartiles(series)
            flag = "" if spread(series) * 3 <= bound or name == "setup_s" else "  > bound/3"
            print(
                f"{workload:18s} {name:22s} {q2:14.4f} {q1:14.4f} {q3:14.4f} "
                f"{spread(series):8.4f} {bound:7.3f}{flag}"
            )
    save(args.out or os.path.join(OUT, "aa.json"), env, runs)
    return 1 if any(not r["correct"] for r in runs) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalogue.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="drives data seeds and request order")
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS,
                        help="measured window: whole rounds until it is used")
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds instead")
    parser.add_argument("--trace", type=int, nargs="?", const=2, default=None,
                        choices=(0, 1, 2),
                        help="bare: an untraced then a traced pass; 0 or 1 "
                        "with --workload: that one pass, result on the last line")
    parser.add_argument("--trace-out", default=os.path.join(OUT, "trace.json"))
    parser.add_argument("--quick", action="store_true",
                        help="one round, the two smallest classes per workload")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="N back-to-back untraced runs; prints spreads")
    parser.add_argument("--out", default="", help="results file")
    args = parser.parse_args(argv)
    if args.quick and not args.rounds:
        args.rounds = 1
    if args.aa:
        return run_aa(args)
    if args.workload and args.trace in (0, 1):
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except GuardError as exc:
        sys.stderr.write(f"bench: guard tripped: {exc}\n")
        raise SystemExit(3)
