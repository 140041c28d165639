"""Command-line scheduling interface (paper Section 7).

FuseFlow exposes its optimization knobs through a CLI: users pick a model
and any of the six schedule axes — fusion granularity, dataflow ordering,
parallelization, index splitting, mask folding, and the global-iteration
rewrite — and the tool compiles, simulates, and reports
cycles/FLOPs/bytes.  Beyond single runs there are two search entry
points: ``estimate`` ranks schedules with the analytical heuristic, and
``tune`` searches the joint space under a simulation budget —
``exhaustive`` enumerates and simulates the fusion × split space,
``beam``/``evolutionary`` run guided search steered by the same
heuristic.  Every verb describes its experiment as one
:class:`~repro.sweep.spec.SweepPoint` (the record a sweep spec and a serve
body also build), and all compilation goes through one driver
:class:`~repro.driver.Session` per invocation, so sweeps and search steps
reuse compiled executables instead of re-lowering.

Examples::

    fuseflow run --model gcn --fusion partial
    fuseflow run --model gpt3 --fusion full --block 8 --par x1=4
    fuseflow run --model gcn --fusion unfused --hierarchy fpga-small --split x1=8
    fuseflow simulate --model gcn --fusion partial --profile --top 8
    fuseflow simulate --model gcn --fusion unfused --hierarchy fpga-small
    fuseflow sweep run --models gpt3 --hierarchies fpga-small \
        --splits none --splits x16=8
    fuseflow sweep quick --model graphsage
    fuseflow sweep run --models gcn,sae --machines rda,fpga --out sweep.jsonl
    fuseflow sweep run --models gcn,gpt3 --hierarchies flat,fpga-small,asic-large
    fuseflow sweep resume --out sweep.jsonl
    fuseflow sweep report --out sweep.jsonl --json report.json
    fuseflow estimate --model gcn
    fuseflow tune --model sae --nodes 16 --strategy exhaustive --budget 3
    fuseflow tune --model gcn --hierarchy fpga-small --strategy exhaustive \
        --split x1=4 --split x1=8
    fuseflow tune --model gcn --strategy beam --budget 6 --seed 0
    fuseflow tune --model gpt3 --strategy evolutionary --budget 4
    fuseflow compile --model sae --fusion full --show-graph --diagnostics
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from .backend import BACKEND_NAMES
from .comal.hierarchy import HIERARCHIES
from .comal.machines import MACHINES
from .core.heuristic.model import stats_from_binding
from .core.heuristic.prune import rank_schedules
from .core.schedule.autotune import autotune
from .core.schedule.search import STRATEGIES as SEARCH_STRATEGIES
from .driver import Session
from .models.common import VERIFY_TOLERANCE
from .sweep import (
    ResultStore,
    SweepPoint,
    SweepSpec,
    SweepSpecError,
    build_bundle,
    render_summary,
    run_sweep,
    summarize,
    write_summary_json,
)

#: Builder arguments every model verb passes explicitly, defaults included,
#: so a CLI run and ``run_point`` of the point it builds are one experiment.
_MODEL_ARG_FLAGS = ("nodes", "density", "seq_len", "d_model", "block")


def _factors(specs: Optional[List[str]], flag: str) -> Dict[str, int]:
    """Merge ``--par`` / ``--split`` / ``--splits`` texts
    (``INDEX=N[,INDEX=N]`` or ``none``); the point validates the values."""
    unit = "factor" if flag == "--par" else "tiles"
    merged: Dict[str, int] = {}
    for text in specs or []:
        if text.strip().lower() in ("", "none"):
            continue
        for part in text.split(","):
            index, sep, value = part.strip().partition("=")
            try:
                number = int(value) if sep else None
            except ValueError:
                number = None
            if number is None:
                raise SystemExit(
                    f"{flag} expects index={unit}[,index={unit}], "
                    f"got {part.strip()!r}"
                )
            merged[index.strip()] = number
    return merged


def _point(args, par=None, splits=None) -> SweepPoint:
    """The experiment a model verb's flags describe; exits if it is invalid."""
    point = SweepPoint.make(
        args.model,
        schedule=getattr(args, "fusion", "partial"),
        machine=args.machine,
        model_args={name: getattr(args, name) for name in _MODEL_ARG_FLAGS},
        par=par,
        splits=splits,
        hierarchy=args.hierarchy or "flat",
        backend=args.backend or "",
    )
    try:
        point.validate()
    except SweepSpecError as exc:
        raise SystemExit(str(exc)) from None
    return point


def _session(args, point: SweepPoint) -> Session:
    return Session(
        machine=MACHINES[point.machine],
        hierarchy=point.hierarchy,
        backend=point.backend or None,
        disk_cache=args.cache_dir,
        debug_streams=True if getattr(args, "debug_streams", False) else None,
        sim_cache=not getattr(args, "no_sim_cache", False),
    )


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", required=True, choices=["gcn", "graphsage", "sae", "gpt3"]
    )
    parser.add_argument("--nodes", type=int, default=120, help="graph nodes / SAE dim")
    parser.add_argument("--density", type=float, default=0.04, help="graph density")
    parser.add_argument("--seq-len", type=int, default=32, help="GPT-3 sequence length")
    parser.add_argument("--d-model", type=int, default=8, help="GPT-3 model width")
    parser.add_argument("--block", type=int, default=8, help="GPT-3 attention block size")
    parser.add_argument(
        "--machine", default="rda", choices=sorted(MACHINES), help="timing model"
    )
    parser.add_argument(
        "--hierarchy",
        default=None,
        help=(
            "memory hierarchy preset: "
            + ", ".join(sorted(HIERARCHIES))
            + "; append @bytes to override the SRAM capacity "
            "(e.g. fpga-small@16384)"
        ),
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_NAMES),
        help=(
            "execution backend: 'columnar' (vectorized interpreter, the "
            "default), 'interp' (per-token reference interpreter), or "
            "'codegen' (per-region compiled kernels; bit-exact, faster "
            "on deep regions).  Default follows FUSEFLOW_BACKEND."
        ),
    )
    parser.add_argument(
        "--split",
        action="append",
        metavar="INDEX=TILES",
        help=(
            "index splitting (tiling): iterate INDEX in TILES sequential "
            "tiles, e.g. --split x1=8 or --split x1=8,x7=8; repeatable "
            "(merged into one schedule — sweep quick applies it to every "
            "granularity; for tune each flag is one candidate "
            "configuration co-optimized against fusion; estimate's "
            "analytical heuristic ignores it)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persistent compile-cache directory: compiles are served from "
            "it when warm and written back when cold (default follows "
            "FUSEFLOW_CACHE_DIR; unset = in-memory cache only)"
        ),
    )


def cmd_run(args) -> int:
    point = _point(args, _factors(args.par, "--par"), _factors(args.split, "--split"))
    bundle = build_bundle(point)
    schedule = point.schedule_for(bundle)
    exe = _session(args, point).compile(bundle.program, schedule)
    result = exe(bundle.binding)
    err = bundle.max_abs_err(result)
    m = result.metrics
    print(f"model      : {bundle.name}")
    print(f"schedule   : {schedule.name} ({len(schedule.regions)} regions)")
    print(f"cycles     : {m.cycles:.0f}")
    print(f"flops      : {m.flops}")
    print(f"dram bytes : {m.dram_bytes}")
    if m.sram_bytes or m.spill_bytes or m.fill_bytes:
        print(f"sram bytes : {m.sram_bytes}")
        print(f"spill/fill : {m.spill_bytes} / {m.fill_bytes}")
    print(f"op intensity: {m.operational_intensity():.3f} flops/byte")
    print(f"max |err|  : {err:.3e} (vs dense reference)")
    return 0 if err < VERIFY_TOLERANCE else 1


def cmd_simulate(args) -> int:
    """Simulate one schedule; ``--profile`` prints the busiest nodes."""
    point = _point(args, _factors(args.par, "--par"), _factors(args.split, "--split"))
    bundle = build_bundle(point)
    schedule = point.schedule_for(bundle)
    session = _session(args, point)
    exe = session.compile(bundle.program, schedule)
    result = exe(bundle.binding)
    m = result.metrics
    print(f"model      : {bundle.name}")
    print(f"schedule   : {schedule.name} ({len(schedule.regions)} regions)")
    print(f"machine    : {args.machine}")
    print(f"backend    : {exe.diagnostics.backend}")
    print(f"hierarchy  : {session.machine.hierarchy.describe()}")
    print(f"cycles     : {m.cycles:.0f}")
    print(f"flops      : {m.flops}")
    print(f"dram bytes : {m.dram_bytes}")
    print(f"sram bytes : {m.sram_bytes}")
    print(f"spill/fill : {m.spill_bytes} / {m.fill_bytes}")
    print(f"tokens     : {m.tokens}")
    if args.profile:
        rows = []
        for region, sim in zip(exe.regions, result.region_results):
            graph = region.graph
            for node_id, busy in sim.node_busy.items():
                node = graph.nodes[node_id]
                rows.append(
                    (
                        busy,
                        sim.node_finish.get(node_id, 0.0),
                        graph.name,
                        node_id,
                        node.prim.describe(),
                    )
                )
        rows.sort(key=lambda r: r[0], reverse=True)
        total = max(m.cycles, 1e-9)
        print()
        print(f"top {args.top} busiest nodes (of {len(rows)}):")
        print(f"{'busy':>10s} {'finish':>10s} {'util%':>6s}  node")
        for busy, finish, gname, node_id, desc in rows[: args.top]:
            print(
                f"{busy:10.1f} {finish:10.1f} {100 * busy / total:6.1f}  "
                f"{gname}/{node_id} ({desc})"
            )
        print()
        print("memory traffic per region (bytes):")
        print(f"{'region':24s} {'dram':>10s} {'sram':>10s} {'spill':>9s} {'fill':>9s}")
        for region, sim in zip(exe.regions, result.region_results):
            print(
                f"{region.graph.name:24s} {sim.dram_bytes:10d} "
                f"{sim.sram_bytes:10d} {sim.spill_bytes:9d} {sim.fill_bytes:9d}"
            )
        levels = m.traffic_by_level()
        print(
            f"{'total':24s} {levels['dram']:10d} {levels['sram']:10d} "
            f"{levels['spill']:9d} {levels['fill']:9d}"
        )
        if exe.diagnostics.backend == "codegen":
            from .backend import codegen_cache_info
            from .backend.codegen import cached_artifacts

            print()
            print("codegen backend per region (emit cost vs amortization):")
            print(exe.diagnostics.codegen_summary())
            print(
                f"{'region':24s} {'tier':>8s} {'LoC':>6s} {'emit':>10s} "
                f"{'runs':>5s} {'run ms':>8s} {'emit/run':>9s}  status"
            )
            for region in exe.regions:
                # One row per emitted tier: a region whose streams turn
                # out short at run time lands on the token tier although
                # the declarations had it emit the columnar one.
                arts = cached_artifacts(region.graph)
                for tier in sorted(arts):
                    art = arts[tier]
                    emit_ms = (art.emit_seconds + art.compile_seconds) * 1e3
                    if art.runs:
                        run_ms = art.run_seconds * 1e3 / art.runs
                        amort = f"{emit_ms / art.runs:7.2f}ms"
                        status = (
                            "amortized" if emit_ms < art.run_seconds * 1e3
                            else "paying off"
                        )
                        run_col = f"{run_ms:8.3f}"
                    else:
                        amort = f"{'-':>9s}"
                        run_col = f"{'-':>8s}"
                        status = "unused tier"
                    if art.origin == "memory":
                        # No compile() in the emit column: an identical
                        # kernel was already compiled for another region.
                        status += f", shared kernel {art.sha[:12]}"
                    elif art.origin == "disk":
                        # The emit column holds emission + the disk load.
                        status += f", kernel {art.sha[:12]} from disk"
                    print(
                        f"{region.graph.name:24s} {tier:>8s} {art.loc:6d} "
                        f"{emit_ms:8.2f}ms {art.runs:5d} {run_col} "
                        f"{amort}  {status}"
                    )
            info = codegen_cache_info()
            print(
                f"artifact cache: {info['artifact_hits']} hit(s), "
                f"{info['artifact_misses']} miss(es); source cache: "
                f"{info['code_hits']} hit(s), {info['code_misses']} "
                f"miss(es), {info['code_disk_hits']} loaded from disk, "
                f"{info['code_disk_writes']} written to disk; "
                f"{info['token_dispatches']} run(s) sent to the token tier"
            )
    return 0


def cmd_sweep_quick(args) -> int:
    """Single-model fusion-granularity comparison (the original sweep).

    One point per granularity (unfused/partial/full); any ``--split``
    flags apply to every granularity rather than forming a grid axis.
    For the full seven-axis grid (model × dataset × schedule × machine ×
    hierarchy × splits × backend) use ``sweep run``; for guided search
    over the six schedule knobs — fusion granularity, dataflow order,
    parallelization, index splitting, mask folding, global rewrite —
    under a simulation budget, use ``tune``.
    """
    point = _point(args, splits=_factors(args.split, "--split"))
    bundle = build_bundle(point)
    granularities = ("unfused", "partial", "full")
    schedules = [
        replace(point, schedule=gran).schedule_for(bundle) for gran in granularities
    ]
    results = _session(args, point).compare_schedules(
        bundle.program, bundle.binding, schedules
    ).values()
    baseline = next(iter(results)).metrics.cycles
    print(f"{'granularity':12s} {'cycles':>12s} {'speedup':>8s} {'flops':>12s} {'bytes':>12s}")
    for gran, result in zip(granularities, results):
        m = result.metrics
        print(
            f"{gran:12s} {m.cycles:12.0f} {baseline / m.cycles:8.2f} "
            f"{m.flops:12d} {m.dram_bytes:12d}"
        )
    return 0


def _split_csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _sweep_spec_from_args(args) -> SweepSpec:
    if args.spec:
        return SweepSpec.load(args.spec)
    model_args: Dict[str, object] = {}
    for key in ("nodes", "density", "hidden", "seq_len", "d_model", "block", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            model_args[key] = value
    splits_axis = None
    if getattr(args, "splits", None):
        splits_axis = [_factors([spec], "--splits") for spec in args.splits]
    backends_axis = None
    if getattr(args, "backends", None):
        # "default" names the session-default baseline (the empty string
        # internally, which CSV parsing would otherwise drop).
        backends_axis = [
            "" if name == "default" else name
            for name in _split_csv(args.backends)
        ]
    return SweepSpec(
        name=args.name,
        models=_split_csv(args.models),
        datasets=_split_csv(args.datasets) if args.datasets else None,
        schedules=_split_csv(args.schedules),
        machines=_split_csv(args.machines),
        hierarchies=_split_csv(args.hierarchies) if args.hierarchies else None,
        model_args=model_args,
        par=_factors(args.par, "--par"),
        splits=splits_axis,
        backends=backends_axis,
        baseline_schedule=args.baseline,
    )


def _sweep_progress():
    state = {"done": 0}

    def report(record: Dict[str, object]) -> None:
        state["done"] += 1
        status = record.get("status")
        if status == "ok":
            detail = f"{record['metrics']['cycles']:.0f} cycles"
        else:
            detail = record.get("error", "unknown error")
        print(f"[{state['done']}] {status:5s} {record['label']}: {detail}")

    return report


def cmd_sweep_run(args, resume: bool = False) -> int:
    if resume and args.out is None:
        raise SystemExit("sweep resume needs --out pointing at a results file")
    # On resume no spec is passed: the store header is the spec (a spec
    # passed alongside resume would be fingerprint-checked, and the CLI
    # flags default-construct one that would spuriously mismatch).
    spec = None if resume else _sweep_spec_from_args(args)
    try:
        outcome = run_sweep(
            spec,
            store_path=args.out,
            workers=args.workers,
            resume=resume,
            force=getattr(args, "force", False),
            progress=None if args.quiet else _sweep_progress(),
            cache_dir=getattr(args, "cache_dir", None),
            point_timeout=getattr(args, "point_timeout", None),
            max_attempts=getattr(args, "max_attempts", None),
        )
    except Exception as exc:
        raise SystemExit(f"sweep failed: {exc}")
    print(outcome.describe())
    # Summarize everything known for this sweep: the store when persisted
    # (covers resumed points), else just this run's records.
    if args.out:
        store = ResultStore.open(args.out)
        records = store.records()
        spec = store.spec() or spec
    else:
        records = outcome.records
    summary = summarize(records, spec.baseline_schedule, spec.name)
    print()
    print(render_summary(summary))
    return 1 if outcome.failed else 0


def cmd_sweep_resume(args) -> int:
    return cmd_sweep_run(args, resume=True)


def cmd_sweep_report(args) -> int:
    try:
        store = ResultStore.open(args.out)
        spec = store.spec()
    except Exception as exc:
        raise SystemExit(str(exc))
    if spec is None:
        raise SystemExit(
            f"{args.out!r} has no spec header; not a sweep results file?"
        )
    baseline = args.baseline or spec.baseline_schedule
    summary = summarize(store.records(), baseline, spec.name)
    print(render_summary(summary))
    if args.json:
        write_summary_json(summary, args.json)
        print(f"\nwrote JSON summary to {args.json}")
    return 1 if summary["points_failed"] else 0


def cmd_estimate(args) -> int:
    point = _point(args)
    bundle = build_bundle(point)
    if args.split:
        print(
            "note: the analytical heuristic does not model index splitting; "
            "--split is ignored by `estimate` (use `run`/`simulate` to "
            "measure a tiled schedule)",
            file=sys.stderr,
        )
    stats = stats_from_binding(bundle.binding)
    schedules = bundle.schedules()
    # The heuristic sees the hierarchy through the machine's (pinned)
    # operand budget; it does not model intermediate placement.
    machine = MACHINES[point.machine].with_hierarchy(point.hierarchy)
    ranked = rank_schedules(bundle.program, schedules, stats, machine)
    print(f"{'rank':>4s} {'schedule':14s} {'est cycles':>12s} {'est flops':>14s} {'est bytes':>14s}")
    for i, entry in enumerate(ranked):
        print(
            f"{i + 1:4d} {entry.schedule.name:14s} {entry.score:12.0f} "
            f"{entry.estimate.flops:14.0f} {entry.estimate.dram_bytes:14.0f}"
        )
    return 0


def cmd_tune(args) -> int:
    """Schedule search over the joint space (see docs/scheduling.md).

    ``--strategy`` picks a search strategy — ``exhaustive``
    enumerates fusion partitions × ``--split`` candidates, ranks them with
    the cost model and simulates the best ``--budget``; ``beam`` and
    ``evolutionary`` search by local moves.  ``--budget`` caps successful
    simulations; ``--seed`` makes stochastic strategies reproducible
    (identical invocations print identical traces).  A ``--budget``
    below 1 or a ``--max-candidates`` below 2 exits with a usage message.
    """
    point = _point(args)
    bundle = build_bundle(point)
    session = _session(args, point)
    stats = stats_from_binding(bundle.binding)
    # Each --split / --par flag is one candidate configuration the search
    # may pick (the unsplit, unparallelized baseline is always a candidate);
    # each passes the check a point's own factors do.
    split_axis = [_factors([s], "--split") for s in args.split or []]
    par_axis = [_factors([p], "--par") for p in args.par or []]
    for config in split_axis:
        _point(args, splits=config)
    for config in par_axis:
        _point(args, par=config)
    try:
        tuned = autotune(
            bundle.program,
            bundle.binding,
            stats,
            session=session,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            max_candidates=args.max_candidates,
            splits=split_axis or None,
            par_options=par_axis or None,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    except (RuntimeError, KeyError) as exc:
        print(f"tune failed: {exc}", file=sys.stderr)
        return 1
    print(f"model      : {bundle.name}")
    print(f"strategy   : {tuned.strategy} (seed {args.seed})")
    if tuned.search_trace:
        print(f"backend    : {tuned.search_trace[0]['backend']} "
              f"(simulation backend; recorded per trace step)")
    print(f"evaluated  : {tuned.evaluations} simulation(s) of "
          f"{tuned.candidates_considered} candidate point(s) "
          f"(budget {args.budget})")
    if tuned.partitions_dropped:
        print(f"truncated  : {tuned.partitions_dropped} of "
              f"{tuned.partition_space} contiguous partitions dropped by "
              f"--max-candidates {args.max_candidates} (kept subset is "
              "deterministic, taken from both granularity ends; the "
              "fully-fused and fully-unfused baselines always survive)")
    for name, cycles in tuned.ranking:
        marker = " <- best" if name == tuned.best.name else ""
        print(f"  {name:28s} {cycles:12.0f} cycles{marker}")
    print(f"winner     : {tuned.best.name} at {tuned.measured_cycles:.0f} cycles")
    before = session.cache_info()
    exe = session.compile(bundle.program, tuned.best)
    after = session.cache_info()
    served = "cache hit" if after.hits > before.hits else "cache miss"
    print(f"cache      : {after} (winner recompile: {served})")
    if args.trace_out:
        import json as _json

        with open(args.trace_out, "w", encoding="utf-8") as fh:
            _json.dump(tuned.search_trace, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"trace      : {len(tuned.search_trace)} step(s) written to "
              f"{args.trace_out}")
    if args.verify:
        err = bundle.max_abs_err(exe(bundle.binding))
        print(f"max |err|  : {err:.3e} (vs dense reference)")
        return 0 if err < VERIFY_TOLERANCE else 1
    return 0


def cmd_serve(args) -> int:
    """Run the HTTP compile/simulate front end (see docs/serving.md).

    SIGTERM and SIGINT trigger a graceful drain: stop admitting new
    requests (503, ``/healthz`` reports ``draining``), let in-flight ones
    finish up to ``--drain-timeout`` seconds, then exit.
    """
    import signal
    import threading

    from .serve import make_server

    server = make_server(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        quiet=args.quiet,
        deadline=args.deadline,
        max_inflight=args.max_inflight,
    )
    host, port = server.server_address[:2]
    cache = server.state.disk_cache
    where = cache.root if cache is not None else "none (in-memory only)"
    print(f"fuseflow serve listening on http://{host}:{port}")
    print(f"persistent compile cache: {where}")

    def _drain(signum, frame):  # noqa: ARG001 - signal API
        # Drain from a helper thread: shutdown() must not be called from
        # the thread running serve_forever(), and a signal handler runs
        # on exactly that (main) thread.
        print(
            f"\nreceived {signal.Signals(signum).name}; draining "
            f"(up to {args.drain_timeout:g}s for in-flight requests)"
        )
        threading.Thread(
            target=server.drain, args=(args.drain_timeout,), daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        server.serve_forever()
        print("drained; shutting down")
    finally:
        server.server_close()
    return 0


def cmd_compile(args) -> int:
    point = _point(args, splits=_factors(args.split, "--split"))
    bundle = build_bundle(point)
    exe, source = _session(args, point).compile_detailed(
        bundle.program, point.schedule_for(bundle)
    )
    print(exe.compiled.describe())
    if args.diagnostics:
        print()
        print(f"compile source: {source}")
        print(exe.diagnostics.describe())
    if args.show_graph:
        for region in exe.regions:
            print()
            print(region.graph.describe())
    if args.show_table:
        for region in exe.regions:
            print()
            print(region.table_text)
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fuseflow",
        description="FuseFlow reproduction: compile sparse DL models to dataflow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile, simulate, and verify one schedule")
    _add_model_args(p_run)
    p_run.add_argument("--fusion", default="partial", choices=["unfused", "partial", "full", "cs"])
    p_run.add_argument("--par", action="append", help="index=factor parallelization")
    p_run.set_defaults(fn=cmd_run)

    p_sim = sub.add_parser(
        "simulate", help="simulate one schedule (--profile for hot-spot triage)"
    )
    _add_model_args(p_sim)
    p_sim.add_argument("--fusion", default="partial", choices=["unfused", "partial", "full", "cs"])
    p_sim.add_argument("--par", action="append", help="index=factor parallelization")
    p_sim.add_argument("--profile", action="store_true",
                       help="print the top-k busiest nodes (node_busy/node_finish)")
    p_sim.add_argument("--top", type=int, default=8, help="rows shown by --profile")
    p_sim.add_argument("--debug-streams", action="store_true",
                       help="validate the token protocol on every stream")
    p_sim.add_argument("--no-sim-cache", action="store_true",
                       help="disable functional/timed result memoization")
    p_sim.set_defaults(fn=cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep", help="parallel experiment sweeps over the design space"
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    p_sw_run = sweep_sub.add_parser(
        "run",
        help="execute a (model x dataset x schedule x machine x hierarchy "
             "x splits x backend) grid",
    )
    p_sw_run.add_argument("--name", default="grid", help="sweep name for reports")
    p_sw_run.add_argument("--spec", help="JSON SweepSpec file (overrides grid flags)")
    p_sw_run.add_argument("--models", default="gcn,sae",
                          help="comma-separated models")
    p_sw_run.add_argument("--datasets", default=None,
                          help="comma-separated Table-2 dataset names (default: synthetic)")
    p_sw_run.add_argument("--schedules", default="unfused,partial,full",
                          help="comma-separated fusion granularities")
    p_sw_run.add_argument("--machines", default="rda,fpga",
                          help="comma-separated timing models")
    p_sw_run.add_argument("--hierarchies", default=None,
                          help="comma-separated memory-hierarchy presets "
                               "(default: flat; preset@bytes overrides SRAM "
                               "capacity)")
    p_sw_run.add_argument("--splits", action="append", metavar="CONFIG",
                          help="index-splitting axis: each flag is one "
                               "config ('x1=8' or 'x1=8,x7=8'; 'none' for "
                               "the unsplit baseline), gridded against "
                               "every other axis; repeatable")
    p_sw_run.add_argument("--backends", default=None,
                          help="comma-separated execution backends "
                               "(interp, columnar, codegen; 'default' for "
                               "the session default), gridded against "
                               "every other axis")
    p_sw_run.add_argument("--baseline", default="unfused",
                          help="schedule speedups are reported against")
    p_sw_run.add_argument("--nodes", type=int, default=None, help="graph nodes / SAE dim")
    p_sw_run.add_argument("--density", type=float, default=None, help="graph density")
    p_sw_run.add_argument("--hidden", type=int, default=None, help="hidden width")
    p_sw_run.add_argument("--seq-len", type=int, default=None, help="GPT-3 sequence length")
    p_sw_run.add_argument("--d-model", type=int, default=None, help="GPT-3 model width")
    p_sw_run.add_argument("--block", type=int, default=None, help="GPT-3 attention block")
    p_sw_run.add_argument("--seed", type=int, default=None, help="synthetic data seed")
    p_sw_run.add_argument("--par", action="append", help="index=factor parallelization")
    p_sw_run.add_argument("--workers", type=int, default=None,
                          help="worker processes (default: cpu-based)")
    p_sw_run.add_argument("--out", default=None, help="JSONL results file")
    p_sw_run.add_argument("--force", action="store_true",
                          help="overwrite an existing results file")
    p_sw_run.add_argument("--quiet", action="store_true", help="no per-point progress")
    p_sw_run.add_argument("--cache-dir", default=None,
                          help="persistent compile-cache directory shared by "
                               "all workers (default: $FUSEFLOW_CACHE_DIR)")
    p_sw_run.add_argument("--point-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="per-point wall-clock timeout; a hung worker "
                               "is killed and the point retried, then "
                               "quarantined as a 'timeout' record (parallel "
                               "runs only; default: none)")
    p_sw_run.add_argument("--max-attempts", type=int, default=None,
                          metavar="N",
                          help="attempts per point before a crashing/hanging/"
                               "transiently-failing point is quarantined "
                               "with a terminal record (default: 3)")
    p_sw_run.set_defaults(fn=cmd_sweep_run)

    p_sw_resume = sweep_sub.add_parser(
        "resume", help="continue a sweep, skipping completed points"
    )
    p_sw_resume.add_argument("--out", required=True, help="JSONL results file")
    p_sw_resume.add_argument("--workers", type=int, default=None)
    p_sw_resume.add_argument("--quiet", action="store_true")
    p_sw_resume.add_argument("--cache-dir", default=None,
                             help="persistent compile-cache directory shared "
                                  "by all workers")
    p_sw_resume.add_argument("--point-timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="per-point wall-clock timeout (see sweep run)")
    p_sw_resume.add_argument("--max-attempts", type=int, default=None,
                             metavar="N",
                             help="attempts per point before quarantine")
    p_sw_resume.set_defaults(fn=cmd_sweep_resume)

    p_sw_report = sweep_sub.add_parser(
        "report", help="summarize a results file (text / JSON)"
    )
    p_sw_report.add_argument("--out", required=True, help="JSONL results file")
    p_sw_report.add_argument("--baseline", default=None,
                             help="override the baseline schedule")
    p_sw_report.add_argument("--json", default=None, help="write JSON summary here")
    p_sw_report.set_defaults(fn=cmd_sweep_report)

    p_sw_quick = sweep_sub.add_parser(
        "quick",
        help="compare fusion granularities for one model (one point per "
             "granularity; --split applies to all — see `sweep run` for "
             "the full grid and `tune` for guided search)",
    )
    _add_model_args(p_sw_quick)
    p_sw_quick.set_defaults(fn=cmd_sweep_quick)

    p_serve = sub.add_parser(
        "serve", help="HTTP compile/simulate service over a shared session"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8177,
                         help="bind port (0 picks an ephemeral port)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="persistent compile-cache directory "
                              "(default: $FUSEFLOW_CACHE_DIR)")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress per-request access logs")
    p_serve.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-request response deadline; requests not "
                              "answered in time get HTTP 504 (the compile "
                              "keeps running and warms the cache; default: "
                              "no deadline)")
    p_serve.add_argument("--max-inflight", type=int, default=None,
                         metavar="N",
                         help="cap on concurrent POSTs; excess requests are "
                              "shed with HTTP 503 + Retry-After instead of "
                              "queueing (default: unbounded)")
    p_serve.add_argument("--drain-timeout", type=float, default=10.0,
                         metavar="SECONDS",
                         help="on SIGTERM/SIGINT, wait up to this long for "
                              "in-flight requests before exiting "
                              "(default: 10)")
    p_serve.set_defaults(fn=cmd_serve)

    p_est = sub.add_parser("estimate", help="rank schedules with the heuristic")
    _add_model_args(p_est)
    p_est.set_defaults(fn=cmd_estimate)

    p_guided = sub.add_parser(
        "tune",
        help="schedule search (exhaustive enumeration, or guided "
             "beam/evolutionary) under a simulation budget",
    )
    _add_model_args(p_guided)
    p_guided.add_argument("--strategy", default="beam",
                          choices=sorted(SEARCH_STRATEGIES),
                          help="search strategy (default: beam)")
    p_guided.add_argument("--budget", type=int, default=6,
                          help="cap on *successful* simulations — infeasible "
                               "candidates are skipped without consuming it "
                               "(default: 6)")
    p_guided.add_argument("--seed", type=int, default=0,
                          help="search seed; identical invocations produce "
                               "identical traces (default: 0)")
    p_guided.add_argument("--max-candidates", type=int, default=64,
                          help="enumeration cap for the exhaustive strategy "
                               "(fusion partitions x split candidates)")
    p_guided.add_argument("--par", action="append", metavar="INDEX=FACTOR",
                          help="candidate parallelization configuration; "
                               "repeatable (each flag is one config the "
                               "search may toggle)")
    p_guided.add_argument("--trace-out", default=None, metavar="PATH",
                          help="write the JSON search trace here")
    p_guided.add_argument("--verify", action="store_true",
                          help="run the winner and check against the dense "
                               "reference")
    p_guided.set_defaults(fn=cmd_tune)

    p_compile = sub.add_parser("compile", help="compile and show graphs/tables")
    _add_model_args(p_compile)
    p_compile.add_argument("--fusion", default="partial", choices=["unfused", "partial", "full", "cs"])
    p_compile.add_argument("--show-graph", action="store_true")
    p_compile.add_argument("--show-table", action="store_true")
    p_compile.add_argument("--diagnostics", action="store_true",
                           help="print per-pass timings and region stats")
    p_compile.set_defaults(fn=cmd_compile)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
