"""The benchmark's catalogue: workloads, end-to-end metrics, per-layer metrics.

This is the single source ``BENCHMARK.json`` mirrors (``selftest.py`` checks
the two agree) and ``run.py`` prints from.  ``bench/README.md`` gives the
reason behind every pinned size and the layer -> end-to-end predictions.
"""

from __future__ import annotations

#: Measured seconds per run the driver asks for (``run_seconds``).
RUN_SECONDS = 10

WORKLOADS = {
    "cold.codegen": "Fresh codegen session per request, caches cleared: "
    "emission-dominated cost side of the codegen trade; no cache can help.",
    "warm_disk.codegen": "Forked cold process over a warm disk-cache "
    "directory: what a restarted server or a new sweep worker pays; shows "
    "whether a disk hit skips work.",
    "steady.codegen": "Long-lived session, memory-hit compile, run on "
    "rotating bindings (never a memo hit): kernel-run-dominated benefit "
    "side of codegen.",
    "sweep_grid": "One 48-point run_sweep on 2 workers, default backend: "
    "the paper's evaluation shape plus runner, IPC and JSONL overhead; "
    "throughput, not latency.",
    "tune_search": "autotune beam/evolutionary searches on the default "
    "backend: cost-model, compile and simulation work per search step; "
    "winner cycles measure search quality.",
    "serve_mix": "Keep-alive HTTP mix against a fuseflow serve subprocess: "
    "front-end-dominated (protocol, single-flight, JSON, sockets); a "
    "transport fix shows here and nowhere else.",
}

#: name -> (unit, better, bound).  Each bound is about three times the worst
#: A/A spread any workload showed for that metric (bench/README.md has the
#: table); 10 % was the aim, the sandbox's noise and the seed-to-seed
#: movement of the generated data decided.  The sim_* bounds cover only
#: that movement (the same seed repeats exactly); EXACT marks figures that
#: never move at all.
EXACT = 1e-9
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "request_ms_gmean": ("ms", "lower", 0.20),
    "request_ms_p50": ("ms", "lower", 0.25),
    "request_ms_p95": ("ms", "lower", 0.25),
    "throughput_rps": ("1/s", "higher", 0.15),
    "compile_ms_gmean": ("ms", "lower", 0.25),
    "sim_cycles_gmean": ("cycles", "lower", 0.06),
    "sim_dram_bytes_gmean": ("bytes", "lower", 0.03),
    "codegen_loc_total": ("lines", "lower", EXACT),
    "peak_rss_mb": ("MiB", "lower", 0.15),
    "verified_share": ("ratio", "higher", EXACT),
}

PASS_NAMES = (
    "fuse-regions",
    "fold-masks",
    "merge-contractions",
    "split-indices",
    "lower-region",
    "place-memory",
    "parallelize",
)

#: name -> (unit, better, how per-class values combine).  ``gmean`` is the
#: geometric mean over the classes the layer ran on of the per-class
#: median; ``sum`` adds the per-class medians (counts); ``value`` is one
#: number for the whole run.  A layer a workload never enters reads 0.
_MS = ("ms", "lower", "gmean")
_COUNT = ("count", "lower", "sum")
PER_LAYER = {
    "frontend.build_bundle_ms": _MS,
    "core.einsum.parse_ms": _MS,
    "core.einsum.fingerprint_ms": _MS,
    "driver.pipeline.run_ms": _MS,
    "driver.pipeline.nodes": _COUNT,
    "driver.pipeline.regions": _COUNT,
    "driver.pipeline.order_fallbacks": _COUNT,
    **{f"driver.pass_ms.{name}": _MS for name in PASS_NAMES},
    "driver.session.compile_miss_ms": _MS,
    "driver.session.memory_hit_ms": _MS,
    "driver.session.disk_hit_ms": _MS,
    "driver.diskcache.get_ms": _MS,
    "driver.diskcache.put_ms": _MS,
    "driver.diskcache.entry_bytes": ("bytes", "lower", "sum"),
    "backend.codegen.emit_ms.columnar": _MS,
    "backend.codegen.emit_ms.token": _MS,
    "backend.codegen.pycompile_ms": _MS,
    "backend.codegen.loc": ("lines", "lower", "sum"),
    "backend.codegen.fallback_regions": _COUNT,
    "backend.codegen.token_dispatches": _COUNT,
    "backend.codegen.code_cache_hits": ("count", "higher", "sum"),
    "backend.first_run_ms.codegen": _MS,
    "backend.run_ms.codegen": _MS,
    "backend.run_ms.columnar": _MS,
    "backend.ktokens_per_s.codegen": ("ktok/s", "higher", "gmean"),
    "backend.ktokens_per_s.columnar": ("ktok/s", "higher", "gmean"),
    "comal.functional.tokens": ("tokens", "lower", "sum"),
    "comal.engine.timed_ms": _MS,
    "comal.hierarchy.sram_bytes": ("bytes", "higher", "sum"),
    "comal.hierarchy.spill_bytes": ("bytes", "lower", "sum"),
    "models.verify_ms": _MS,
    "sweep.point_ms_gmean": _MS,
    "sweep.runner.overhead_ms_per_point": ("ms", "lower", "value"),
    "sweep.runner.worker_busy_share": ("ratio", "higher", "value"),
    "sweep.store.append_ms": _MS,
    "sweep.compile_cache_hits": ("count", "higher", "value"),
    "sweep.retries": ("count", "lower", "value"),
    "sweep.respawns": ("count", "lower", "value"),
    "core.schedule.search.steps": _COUNT,
    "core.schedule.search.simulations": _COUNT,
    "core.schedule.search.compiles": _COUNT,
    "core.schedule.search.compile_hits": ("count", "higher", "sum"),
    "core.schedule.search.ms_per_step": _MS,
    "core.heuristic.predict_ms": _MS,
    "serve.protocol.parse_ms": _MS,
    "serve.request_ms.memory": _MS,
    "serve.request_ms.disk": _MS,
    "serve.request_ms.compiled": _MS,
    "serve.server_ms.memory": _MS,
    "serve.server_ms.disk": _MS,
    "serve.server_ms.compiled": _MS,
    "serve.transport_ms": _MS,
    "serve.dedup.followers": ("count", "lower", "value"),
    "serve.shed": ("count", "lower", "value"),
    "serve.errors": ("count", "lower", "value"),
    "cli.import_ms": ("ms", "lower", "value"),
    "cli.run_ms": ("ms", "lower", "value"),
    # The harness's own checks on the attribution (see README, "How to
    # read the output"): both shares must sit within 10 % of 1.
    "trace.request_ms_gmean": ("ms", "lower", "value"),
    "trace.overhead_ms": ("ms", "lower", "value"),
    "trace.layer_sum_share": ("ratio", "higher", "value"),
    "trace.pass_sum_share": ("ratio", "higher", "value"),
    "trace.spans": ("count", "higher", "value"),
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this catalogue describes."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _agg) in PER_LAYER.items()
        ],
    }
