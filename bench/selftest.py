#!/usr/bin/env python3
"""Self-tests of the benchmark: ``python bench/selftest.py [name ...]``.

Each honesty guard gets a test that drives the very mistake the guard
exists for and checks the harness refuses it, so removing a guard turns a
test red.  The rest pin the contract: ``BENCHMARK.json`` mirrors the
catalogue, ``compare.py`` reaches the right verdicts, ``--quick`` stays a
smoke test, and ``bench/`` alone (no program beside it) fails loudly.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import catalogue
import compare
from harness import (
    OUT,
    ROOT,
    GuardError,
    Tracer,
    assert_clean_env,
    make_session,
    require_program,
    scratch_dir,
    scrub_env,
)

require_program()
scrub_env()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def expect_guard(fn, *args) -> None:
    try:
        fn(*args)
    except GuardError:
        return
    raise AssertionError(f"{fn.__name__} did not trip its guard")


# ----------------------------------------------------------------------
# Contract
# ----------------------------------------------------------------------
def test_benchmark_json_mirrors_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == catalogue.benchmark_json()
    spec = catalogue.benchmark_json()
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert catalogue.PASS_NAMES == tuple(__import__("repro").PassPipeline.default().names())


def test_fails_without_the_program():
    """bench/ and BENCHMARK.json alone: non-zero exit, no result line."""
    bare = scratch_dir("bare")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cold.codegen",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.returncode != 0
        assert "{" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def test_quick_is_a_smoke_test():
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--quick",
         "--out", os.path.join(OUT, "selftest-quick.json")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert wall < 20.0, f"--quick took {wall:.1f} s"
    with open(os.path.join(OUT, "selftest-quick.json"), encoding="utf-8") as fh:
        saved = json.load(fh)
    assert [r["workload"] for r in saved["runs"]] == list(catalogue.WORKLOADS)
    assert {"python", "numpy", "nproc", "loadavg_start", "loadavg_end",
            "git_commit", "seed", "rounds"} <= set(saved["env"])


# ----------------------------------------------------------------------
# Honesty guards
# ----------------------------------------------------------------------
def test_guard_environment_is_scrubbed_and_options_explicit():
    os.environ["FUSEFLOW_BACKEND"] = "interp"
    try:
        expect_guard(assert_clean_env)
        # Even with the variable leaking, a harness session is what it says.
        from repro import parse_program, unfused

        program = parse_program("tensor A(4, 4): csr\nB(i, j) = relu(A(i, j))\n", "p")
        session = make_session("codegen", False)
        assert session.cache_key(program, unfused(program))[3] == "codegen"
        assert scrub_env() == ["FUSEFLOW_BACKEND"]
        assert_clean_env()
    finally:
        os.environ.pop("FUSEFLOW_BACKEND", None)
    expect_guard(make_session, None, False)
    expect_guard(make_session, "codegen", None)


def test_guard_cache_source_mismatch_is_a_failed_request():
    from wl_codegen import ColdCodegen

    class Careless(ColdCodegen):
        """Forgets to start cold: one shared session, caches kept."""

        shared = None

        def session(self):
            if Careless.shared is None:
                Careless.shared = make_session("codegen", False)
            return Careless.shared

    honest = ColdCodegen(1, True, Tracer())
    honest.setup()
    assert all(s.ok for s in honest.run_round(0) + honest.run_round(1))
    careless = Careless(1, True, Tracer())
    careless.setup()
    assert all(s.ok for s in careless.run_round(0))
    again = careless.run_round(1)
    assert not any(s.ok for s in again) and "'memory'" in again[0].why, again


def test_guard_sweep_never_measures_the_memo_path():
    from repro.sweep import run_sweep
    from wl_sweep import SweepGrid, record_fault

    grid = SweepGrid(1, True, Tracer())
    grid.setup()
    try:
        # The mistake: the same grid inline, twice, in this process.
        run_sweep(grid.spec, workers=1)
        memo = run_sweep(grid.spec, workers=1)
        assert memo.failed == 0
        assert all(record_fault(r, os.getpid()) for r in memo.records)
        # This process now holds warm worker caches; a harness round must
        # still hand its forked workers empty ones.
        assert all(s.ok for s in grid.run_round(0)), "sweep() did not clear caches"
    finally:
        grid.teardown()


def test_guard_steady_request_is_not_a_memo_hit():
    from wl_codegen import SteadyCodegen

    steady = SteadyCodegen(1, True, Tracer())
    steady.setup()
    cls = steady.order[0]
    assert steady.request(cls, 0).ok
    repeat = steady.request(cls, 0, same_binding=True)
    assert not repeat.ok and "memo" in repeat.why, repeat


def test_guard_serve_client_stays_on_persistent_connections():
    from wl_serve import ServeMix, check_persistent

    serve = ServeMix(1, True, Tracer())
    serve.setup()
    try:
        assert all(s.ok for s in serve.run_round(0))
        # The mistake: a connection per request.
        serve.connections[0].close()
        serve.send(serve.connections[0], serve.plan_round(1)[0], "x", [])
        expect_guard(check_persistent, serve.connections)
    finally:
        serve.teardown()


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _results(path: str, scale: dict, failed: int = 0, jitter: float = 0.01) -> str:
    spec = catalogue.benchmark_json()
    runs = []
    for i in range(5):
        wobble = 1.0 + jitter * (i - 2)
        runs.append(
            {
                "workload": "cold.codegen", "seed": i, "trace": 0,
                "correct": not failed, "attempted": 100, "failed": failed,
                "metrics": {
                    m["name"]: {
                        "value": 100.0 * scale.get(m["name"], 1.0)
                        * (wobble if m["bound"] > 1e-6 else 1.0),
                        "unit": m["unit"],
                    }
                    for m in spec["end_to_end"]
                },
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "env": {}, "runs": runs}, fh)
    return path


def test_compare_verdicts_and_exit_status():
    spec = catalogue.benchmark_json()
    work = scratch_dir("compare")
    try:
        base = _results(os.path.join(work, "a.json"), {})
        same = _results(os.path.join(work, "b.json"), {})
        slow = _results(os.path.join(work, "c.json"), {"request_ms_gmean": 1.5})
        fast = _results(os.path.join(work, "d.json"), {"request_ms_gmean": 0.5})
        cycles = _results(os.path.join(work, "e.json"), {"sim_cycles_gmean": 1.001})
        flaky = _results(os.path.join(work, "f.json"), {}, failed=1)
        noisy = _results(os.path.join(work, "g.json"), {}, jitter=0.2)
        drift = _results(os.path.join(work, "h.json"), {"request_ms_gmean": 1.15}, jitter=0.2)
        assert compare.compare(base, same, spec) == 0
        assert compare.compare(base, slow, spec) == 1
        assert compare.compare(base, fast, spec) == 0
        assert compare.compare(base, cycles, spec) == 1, "same seeds: cycles are exact"
        assert compare.compare(base, flaky, spec) == 1
        a = compare.series(compare.load_runs(noisy)["cold.codegen"], "request_ms_gmean")
        b = compare.series(compare.load_runs(drift)["cold.codegen"], "request_ms_gmean")
        assert compare.verdict(a, b, "lower", 0.10, False) == "unresolved"
        # Every run of the change worse than every run of the base: worse
        # even though the base is too noisy for its medians to tell.
        assert compare.verdict(a, [v * 3 for v in a], "lower", 0.10, False) == "worse"
        assert compare.verdict(a, [v / 3 for v in a], "lower", 0.10, False) == "better"
        assert compare.verdict(a, [v * 0.9 for v in a], "lower", 0.10, False) == "within bound"
    finally:
        shutil.rmtree(work)


def main(argv) -> int:
    tests = {
        name: fn for name, fn in globals().items()
        if name.startswith("test_") and callable(fn)
    }
    failures = 0
    for name in argv or tests:
        started = time.perf_counter()
        try:
            tests[name]()
            word = "ok"
        except Exception as exc:  # report every test, then fail the run
            failures += 1
            word = f"FAILED: {type(exc).__name__}: {exc}"
        print(f"{name} ({time.perf_counter() - started:.1f} s) ... {word}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
