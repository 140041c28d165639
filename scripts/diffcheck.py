"""Dev harness: compare the tier rule against the token tier on the golden models.

One rule picks each region's tier: the token tier when the region reads a
blocked tensor, the columnar tier otherwise.  Region by region, the rule
must reproduce the token tier forced onto every region (by patching the
rule, as the tests' ``force_tier`` fixture does): streams, per-node
stats, result tensors and timed cycles, exactly.  Each
model's line reports how many regions the rule ran on the token and on the
columnar tier (read off the stream type): gpt3's regions read blocked
tensors and run the token tier, so the check fails when the rule ran no
region on the columnar tier for a scalar model (gcn, graphsage, sae),
where that would leave the columnar kernels unchecked.

A second pass checks the simulator memo on each model: under the
``unfused`` and ``partial`` schedules on the ``flat`` and ``fpga-small``
hierarchies, a repeated ``exe(binding)`` must return the identical
result object, whose metrics and per-region stats must equal, bit for
bit, both ``exe.time(exe.functional(binding))`` and a memo-off session's
result.

A third pass checks the region store: each model's ``unfused``,
``partial`` and ``full`` schedules and every search-space neighbour of
``partial`` (merges, region splits, order swaps, a split and a par
configuration), compiled on the ``flat`` and the ``fpga-small``
hierarchies by sessions that share one store (as a sweep worker's do, so
a region lowered for one schedule or hierarchy is served to every other
compile that gives it the same lowering context, under that compile's
region names), must equal fresh sessions' compiles bit for bit: region
graphs, placement maps, metrics and tensors, or the same lowering error.

Usage: PYTHONPATH=src python scripts/diffcheck.py [model ...]
"""

import sys
from contextlib import nullcontext
from unittest import mock

import numpy as np

from repro.comal import functional
from repro.comal.engine import run_timed
from repro.comal.functional import run_functional
from repro.comal.machines import RDA_MACHINE
from repro.driver import Session
from repro.core.schedule.search import SearchPoint, SearchSpace
from repro.driver.pipeline import RegionStore
from repro.sam.token import TokenStream, as_token_list, streams_equal
from repro.sweep import SweepPoint, build_bundle

POINTS = {
    "gcn": {"nodes": 30, "density": 0.1, "seed": 0},
    "graphsage": {"nodes": 30, "density": 0.1, "seed": 0},
    "sae": {"nodes": 16, "seed": 0},
    "gpt3": {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1, "seed": 0},
}

#: Models with scalar payloads only: the rule must run some of their
#: regions on the columnar tier.
SCALAR_MODELS = ("gcn", "graphsage", "sae")

#: The memo parity pass's schedules and hierarchies.
MEMO_SCHEDULES = ("unfused", "partial")
MEMO_HIERARCHIES = ("flat", "fpga-small")

#: The store pass's hierarchies, compiled in this order.
STORE_HIERARCHIES = ("flat", "fpga-small")

#: A region's timed figures; with its node stats, what the memo must keep.
REGION_FIELDS = (
    "cycles", "flops", "dram_bytes", "tokens", "sram_bytes", "spill_bytes", "fill_bytes"
)

#: The reference (the token tier forced onto every region), then the rule.
RUNS = {
    "token": lambda: mock.patch.object(functional, "_reads_blocked", lambda *_: True),
    "rule": nullcontext,
}


def compare(where, label, fl, fc):
    """First difference between the token-tier result ``fl`` and ``fc``."""
    if set(fl.streams) != set(fc.streams):
        return f"STREAM SET MISMATCH {where} ({label})"
    for key in fl.streams:
        sl, sc = fl.streams[key], fc.streams[key]
        if not streams_equal(sc, sl):
            return (
                f"STREAM MISMATCH {where} {key}\n"
                f"  token   : {as_token_list(sl)[:20]}\n"
                f"  {label}: {as_token_list(sc)[:20]}"
            )
    for nid in fl.stats:
        a, b = fl.stats[nid], fc.stats[nid]
        for f in ("tokens_in", "tokens_out", "ops", "dram_reads", "dram_writes"):
            if getattr(a, f) != getattr(b, f):
                return (
                    f"STATS MISMATCH {where} {nid}.{f}: "
                    f"token {getattr(a, f)} {label} {getattr(b, f)}"
                )
    for name in fl.results:
        if not np.array_equal(fl.results[name].to_dense(), fc.results[name].to_dense()):
            return f"RESULT MISMATCH {where} {name} ({label})"
    return None


def tier_of(result):
    """The tier a region ran on, read off its streams' representation."""
    columnar = any(isinstance(s, TokenStream) for s in result.streams.values())
    return "columnar" if columnar else "token"


def check_model(model):
    """The rule's ``{tier: regions}`` counts, or None on a mismatch."""
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    session = Session(machine=RDA_MACHINE)
    tiers = {"token": 0, "columnar": 0}
    for gran in ("unfused", "partial", "full"):
        exe = session.compile(bundle.program, bundle.schedule(gran))
        binds = {label: dict(bundle.binding) for label in RUNS}
        for region in exe.regions:
            for orig, new_name, mode_order in region.transposes:
                for bind in binds.values():
                    if new_name not in bind:
                        bind[new_name] = bind[orig].permuted_copy(
                            mode_order, name=new_name
                        )
            g = region.graph
            where = f"{model}/{gran}/{g.name}"
            runs = {}
            for label, forced in RUNS.items():
                with forced():
                    runs[label] = run_functional(
                        g, binds[label], RDA_MACHINE.scratchpad_bytes
                    )
            fl, fc = runs["token"], runs["rule"]
            problem = compare(where, "rule", fl, fc)
            if problem is None:
                rl = run_timed(
                    g, binds["token"], RDA_MACHINE, functional=fl,
                    placement=region.placement,
                )
                rc = run_timed(
                    g, binds["rule"], RDA_MACHINE, functional=fc,
                    placement=region.placement,
                )
                if rl.cycles != rc.cycles:
                    problem = (
                        f"CYCLES MISMATCH {where}: token {rl.cycles} rule {rc.cycles}"
                    )
            if problem is not None:
                print(problem)
                return None
            for label, f in runs.items():
                binds[label].update(f.results)
            tiers[tier_of(fc)] += 1
    print(
        f"{model}: OK (rule agrees with the token tier); rule regions: "
        f"{tiers['token']} token / {tiers['columnar']} columnar"
    )
    return tiers


def result_difference(want, have):
    """First difference between two ProgramResults' metrics and region
    stats, or None when they agree bit for bit."""
    if want.metrics != have.metrics:
        return f"metrics {want.metrics} != {have.metrics}"
    for a, b in zip(want.region_results, have.region_results, strict=True):
        for f in REGION_FIELDS:
            if getattr(a, f) != getattr(b, f):
                return f"region {f}: {getattr(a, f)} != {getattr(b, f)}"
        if a.functional.stats != b.functional.stats:
            return "region node stats differ"
    return None


def check_memo(model):
    """Memo parity on ``model``: True, or False after printing the first
    mismatch."""
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    for hierarchy in MEMO_HIERARCHIES:
        memo = Session(machine=RDA_MACHINE, hierarchy=hierarchy)
        cold = Session(machine=RDA_MACHINE, hierarchy=hierarchy, sim_cache=False)
        for gran in MEMO_SCHEDULES:
            where = f"{model}/{gran}/{hierarchy}"
            schedule = bundle.schedule(gran)
            exe = memo.compile(bundle.program, schedule)
            result = exe(bundle.binding)
            if exe(bundle.binding) is not result:
                print(f"MEMO MISS {where}: a repeated call was not a hit")
                return False
            others = {
                "staged": exe.time(exe.functional(bundle.binding)),
                "memo off": cold.compile(bundle.program, schedule)(bundle.binding),
            }
            for label, other in others.items():
                problem = result_difference(other, result)
                if problem is not None:
                    print(f"MEMO MISMATCH {where} ({label}): {problem}")
                    return False
    print(f"{model}: memo OK (hit, staged and memo-off results agree)")
    return True


def tensors_difference(want, have):
    """First materialized tensor two ProgramResults disagree on, or None."""
    if set(want.tensors) != set(have.tensors):
        return f"tensor sets {sorted(want.tensors)} != {sorted(have.tensors)}"
    for name, tensor in want.tensors.items():
        if not np.array_equal(tensor.to_dense(), have.tensors[name].to_dense()):
            return f"tensor {name}"
    return None


def store_schedules(bundle):
    """The granularities, then every search-space neighbour of ``partial``
    (a split and a par configuration on its first region's outer index)."""
    program = bundle.program
    partial = bundle.schedule("partial")
    index = Session().compile(program, partial).regions[0].order[0]
    space = SearchSpace(program, split_configs=[{index: 2}], par_configs=[{index: 2}])
    edges = [len(sids) for sids in partial.regions]
    cuts = tuple(sum(edges[:i]) for i in range(1, len(edges)))
    point = SearchPoint(cuts=cuts, order_choice=(0,) * len(partial.regions))
    assert space.schedule_for(point).regions == partial.regions
    return [bundle.schedule(g) for g in ("unfused", "partial", "full")] + [
        space.schedule_for(neighbor) for _, neighbor in space.neighbors(point)
    ]


def call_or_error(function, *args):
    """``function(*args)``, or the text of the error it raised."""
    try:
        return function(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def check_store(model):
    """Region store parity on ``model``: True, or False after printing the
    first mismatch."""
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    store = RegionStore()
    sessions = {}
    for hierarchy in STORE_HIERARCHIES:
        sessions[hierarchy] = Session(machine=RDA_MACHINE, hierarchy=hierarchy)
        sessions[hierarchy].pipeline.store = store
    schedules = store_schedules(bundle)
    # Every compile first, every check after: a compile that disturbed a
    # graph another executable shares shows up in that executable.
    compiled = {
        (schedule.name, hierarchy): call_or_error(
            session.compile, bundle.program, schedule
        )
        for schedule in schedules
        for hierarchy, session in sessions.items()
    }
    failed = 0
    for schedule in schedules:
        for hierarchy in STORE_HIERARCHIES:
            have = compiled[schedule.name, hierarchy]
            where = f"{model}/{schedule.name}/{hierarchy}"
            fresh = Session(machine=RDA_MACHINE, hierarchy=hierarchy)
            want = call_or_error(fresh.compile, bundle.program, schedule)
            if isinstance(want, str) or isinstance(have, str):
                if want != have:
                    print(f"STORE ERROR MISMATCH {where}: {want!r} != {have!r}")
                    return False
                failed += 1
                continue
            for a, b in zip(want.regions, have.regions, strict=True):
                if a.graph.describe() != b.graph.describe():
                    print(f"STORE GRAPH MISMATCH {where}/{a.graph.name}")
                    return False
                if a.placement != b.placement:
                    print(f"STORE PLACEMENT MISMATCH {where}/{a.graph.name}")
                    return False
            want_result = call_or_error(want, bundle.binding)
            have_result = call_or_error(have, bundle.binding)
            if isinstance(want_result, str) or isinstance(have_result, str):
                if want_result != have_result:
                    print(f"STORE RUN MISMATCH {where}: {want_result!r} != {have_result!r}")
                    return False
                failed += 1
                continue
            problem = result_difference(want_result, have_result) or (
                tensors_difference(want_result, have_result)
            )
            if problem is not None:
                print(f"STORE MISMATCH {where}: {problem}")
                return False
    if not store.hits:
        print(f"{model}: the region store served no region")
        return False
    print(
        f"{model}: region store OK ({len(schedules)} schedules x "
        f"{len(STORE_HIERARCHIES)} hierarchies, {failed} failing alike; "
        f"{store.lowered} region(s) lowered, {store.hits} served)"
    )
    return True


def main(models):
    ok = True
    for model in models:
        tiers = check_model(model)
        if tiers is None or not check_memo(model) or not check_store(model):
            ok = False
        elif model in SCALAR_MODELS and not tiers["columnar"]:
            print(f"{model}: the rule ran no region on the columnar tier")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(POINTS)))
