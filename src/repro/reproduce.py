"""The paper's claims as one scorecard: ``python -m repro.reproduce``.

Each row is one claim of the evaluation (Figs. 1, 4, 12-18, Tables 2-4,
the Section 8.1 compile-time bound) or one claim this reproduction adds
(ids starting ``ours-``).  A row carries the paper's statement, our
number, the inequality that decides pass/fail, and the substitution made
to get the number here: synthetic graphs for Table 2's datasets, machine
timing tables for Comal, the GPU and the FPGA.

Every number is simulated cycles, bytes or a count.  Those repeat exactly
for fixed seeds and do not depend on the execution backend, so the printed
table is deterministic: ``REPRODUCTION.md`` is this module's output,
committed, and ``tests/test_reproduction.py`` checks that every row passes
and that the file is current.  The one host-timed claim (Section 8.1)
prints its verdict, never its milliseconds.

Absolute numbers differ from the paper, whose substrate is Comal at full
dataset scale.  The inequalities check its *shape*: who wins, by roughly
what factor, and where the crossovers fall.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .comal import FPGA_MACHINE, GPU_MACHINE, RDA_MACHINE
from .core.einsum import EinsumProgram, parse_program
from .core.fusion import (
    enumerate_orders,
    fuse_region,
    merge_contractions,
    program_order_space,
)
from .core.heuristic import FusionHeuristic, stats_from_binding
from .core.schedule import autotune, cs_rewrite, fully_fused, intermediate_row_splits
from .data import (
    GRAPH_DATASETS,
    SAE_DATASETS,
    bigbird_mask,
    graph_dataset,
    mask_sparsity,
    node_features,
    sae_dataset,
    synthetic_graph,
    table2_rows,
    weighted_adjacency,
)
from .driver import Session
from .ftree import Format, LevelKind, SparseTensor, csr, dense
from .models import (
    build_gcn,
    build_gpt3,
    build_graphsage,
    build_sae,
    gcn_on_synthetic,
    graphsage_on_synthetic,
)
from .sweep import SweepPoint, build_bundle

#: One compile cache for every experiment: a row that revisits another
#: row's (program, schedule) pays no compile.  Executables are
#: machine-independent; each run names its machine.
SESSION = Session(cache_size=1024)

#: Bandwidth-dominated configuration (large graphs against fixed HBM):
#: 16x vector compute, 4 B/cycle DRAM.
MEMORY_BOUND_MACHINE = RDA_MACHINE.scaled(
    dram_bandwidth=4.0,
    default_ii=1 / 16,
    ii={k: v / 16 for k, v in RDA_MACHINE.ii.items()},
)

#: Fusion-granularity configuration: 8x vector compute against 8 B/cycle,
#: so both recomputation FLOPs and data movement matter.
BALANCED_MACHINE = RDA_MACHINE.scaled(
    dram_bandwidth=8.0,
    default_ii=1 / 8,
    ii={k: v / 8 for k, v in RDA_MACHINE.ii.items()},
)

#: Parallelization configuration: DRAM never binds.
COMPUTE_BOUND_MACHINE = RDA_MACHINE.scaled(dram_bandwidth=1e9, dram_latency=1.0)

GRAPHS = "synthetic graphs (Table 2 sparsity class, 90-160 nodes) for the datasets"
SCALED_RDA = "RDA_MACHINE scaled to {} for Comal"
GRANULARITIES = ("unfused", "partial", "full")


@dataclass(frozen=True)
class Row:
    """One claim: what the paper says, what we measure, and how it is judged."""

    id: str
    claim: str
    ours: str
    check: str
    passed: bool
    substitution: str


def verified_run(bundle, schedule, machine=RDA_MACHINE):
    """Run a model bundle and assert it matches the dense reference."""
    result = SESSION.compile(bundle.program, schedule)(bundle.binding, machine=machine)
    bundle.verify(result)
    return result


def fusion_sweep(bundle, machine=RDA_MACHINE, granularities=GRANULARITIES):
    """Speedup over the first granularity, per granularity, all verified."""
    results = SESSION.compare_schedules(
        bundle.program, bundle.binding, bundle.schedules(granularities), machine
    )
    cycles = {}
    for granularity, result in zip(granularities, results.values()):
        bundle.verify(result)
        cycles[granularity] = result.metrics.cycles
    return {g: cycles[granularities[0]] / c for g, c in cycles.items()}


@functools.cache
def graph_bundle(model: str, dataset: str):
    """The gcn/graphsage bundle on one Table 2 stand-in graph (shared)."""
    builder = build_gcn if model == "gcn" else build_graphsage
    entry, adj, feats = graph_dataset(dataset)
    return builder(adj, feats, hidden=8, classes=4, seed=entry.seed)


def _x(value: float) -> str:
    return f"{value:.2f}x"


def _span(values) -> str:
    values = list(values)
    return f"{_x(min(values))}-{_x(max(values))}"


# ----------------------------------------------------------------------
# The paper's rows
# ----------------------------------------------------------------------


def fig01() -> Row:
    sm_util, mem_util = [], []
    for name in GRAPH_DATASETS:
        bundle = graph_bundle("gcn", name)
        result = verified_run(bundle, bundle.schedule("unfused"), GPU_MACHINE)
        cycles = result.metrics.cycles
        regions = result.region_results
        sm_util.append(
            100.0 * sum(r.compute_utilization(GPU_MACHINE) * r.cycles for r in regions) / cycles
        )
        mem_util.append(
            100.0 * sum(r.memory_utilization(GPU_MACHINE) * r.cycles for r in regions) / cycles
        )
    return Row(
        "fig1",
        "Unfused sparse GCN leaves a GPU idle: 16.7% SM, ~1% memory utilization",
        f"SM {min(sm_util):.1f}-{max(sm_util):.1f}%, memory "
        f"{min(mem_util):.2f}-{max(mem_util):.2f}%",
        "SM < 30% and memory < 30% on all 5 graphs; memory < 5% on one",
        max(sm_util) < 30.0 and max(mem_util) < 30.0 and min(mem_util) < 5.0,
        "GPU_MACHINE timing table for the RTX 5090 running PyG; " + GRAPHS,
    )


def fig04() -> Row:
    bundle = graph_bundle("gcn", "collab")
    speedups = fusion_sweep(bundle, MEMORY_BOUND_MACHINE, ("unfused", "cs", "partial"))
    cs, ours = speedups["cs"], speedups["partial"]
    return Row(
        "fig4",
        "GCN on OGB-Collab: Custard+Stardust rewrite 1.97x, FuseFlow 2.63x over unfused",
        f"C+S {_x(cs)}, FuseFlow {_x(ours)}",
        "1.1 < C+S < FuseFlow; 1.8 < FuseFlow < 5",
        1.1 < cs < ours and 1.8 < ours < 5.0,
        "C+S = the `cs` global-Einsum schedule; collab-like 140-node graph; "
        + SCALED_RDA.format("4 B/cycle DRAM, 16x lanes"),
    )


def fig12_graph_series(model: str) -> Dict[str, Dict[str, float]]:
    return {
        name: fusion_sweep(graph_bundle(model, name), BALANCED_MACHINE)
        for name in GRAPH_DATASETS
    }


def _fig12_graph(model: str, label: str, paper: str) -> Row:
    series = fig12_graph_series(model)
    partial = [s["partial"] for s in series.values()]
    full = [s["full"] for s in series.values()]
    degraded = sum(s["full"] < s["partial"] for s in series.values())
    return Row(
        f"fig12-{model}",
        f"{label}: partial fusion is best ({paper}); full fusion degrades",
        f"partial {_span(partial)}, full {_span(full)}; "
        f"full < partial on {degraded}/{len(series)}",
        "partial > 1.3x on every graph; full < partial on >= 3; full < 1x on >= 1",
        min(partial) > 1.3 and degraded >= 3 and min(full) < 1.0,
        GRAPHS + "; " + SCALED_RDA.format("8 B/cycle DRAM, 8x lanes"),
    )


def fig12_sae() -> Row:
    series = {}
    for name in SAE_DATASETS:
        entry, x = sae_dataset(name)
        series[name] = fusion_sweep(build_sae(x, seed=entry.seed), BALANCED_MACHINE)
    full = [s["full"] for s in series.values()]
    partial = [s["partial"] for s in series.values()]
    return Row(
        "fig12-sae",
        "SAE: full fusion ~1.94x, partial ~1.01x",
        f"full {_span(full)}, partial {_span(partial)}",
        "full > 1.2x and full > partial on all 3 datasets",
        all(s["full"] > 1.2 and s["full"] > s["partial"] for s in series.values()),
        "uniform random inputs at 32-48 features for the image sets; "
        + SCALED_RDA.format("8 B/cycle DRAM, 8x lanes"),
    )


def fig12_gcn() -> Row:
    return _fig12_graph("gcn", "GCN", "up to 2.6x on collab")


def fig12_graphsage() -> Row:
    return _fig12_graph("graphsage", "GraphSAGE", "up to 3.9x on mag")


def fig12_gpt3() -> Row:
    series = {
        block: fusion_sweep(
            build_gpt3(seq_len=64, d_model=16, block=block, n_layers=2, seed=31),
            BALANCED_MACHINE,
        )
        for block in (4, 8, 16)
    }
    full = [s["full"] for s in series.values()]
    return Row(
        "fig12-gpt3",
        "GPT-3 with BigBird: full fusion is best, ~2.7x",
        "full " + ", ".join(f"{_x(s['full'])} (block {b})" for b, s in series.items()),
        "full > 1.2x and full >= 0.95 x partial at blocks 4, 8, 16",
        min(full) > 1.2
        and all(s["full"] >= 0.95 * s["partial"] for s in series.values()),
        "2-layer, seq 64, d_model 16 decoder on a BigBird mask; "
        + SCALED_RDA.format("8 B/cycle DRAM, 8x lanes"),
    )


def fig13() -> Row:
    rng = np.random.default_rng(0)
    adj = weighted_adjacency(synthetic_graph(34, 0.12, "powerlaw", 42), rng)
    feats = node_features(34, 6, seed=43)
    bundles = (
        build_gcn(adj, feats, hidden=6, classes=3, seed=1),
        build_graphsage(adj, feats, hidden=6, classes=3, seed=2),
        build_gpt3(seq_len=16, d_model=8, block=4, n_layers=1, seed=3),
    )
    sim, fpga = [], []
    for bundle in bundles:
        exe = SESSION.compile(bundle.program, bundle.schedule("unfused"))
        sim += [r.cycles for r in exe(bundle.binding, machine=RDA_MACHINE).region_results]
        fpga += [r.cycles for r in exe(bundle.binding, machine=FPGA_MACHINE).region_results]
    r_squared = float(np.corrcoef(np.log10(sim), np.log10(fpga))[0, 1] ** 2)
    return Row(
        "fig13",
        "Comal's per-kernel latency tracks FPGA RTL simulation, R^2 = 0.991",
        f"R^2 = {r_squared:.3f} over {len(sim)} kernels",
        "R^2 > 0.9 over >= 20 kernels (log-log)",
        r_squared > 0.9 and len(sim) >= 20,
        "FPGA_MACHINE, an independently parameterised timing table, for VU9P RTL; "
        "KarateClub-like 34-node synthetic graph",
    )


def fig14() -> Row:
    checks, bytes_norm, flops_norm = [], [], []
    for name in ("cora", "dblp", "collab"):
        bundle = graph_bundle("gcn", name)
        m = {
            g: verified_run(bundle, bundle.schedule(g), BALANCED_MACHINE).metrics
            for g in GRANULARITIES
        }
        unfused, partial, full = (m[g] for g in GRANULARITIES)
        oi = {g: m[g].operational_intensity() for g in GRANULARITIES}
        checks.append(
            partial.flops == unfused.flops
            and partial.dram_bytes < unfused.dram_bytes
            and oi["partial"] > oi["unfused"]
            and full.flops > partial.flops
            and oi["full"] > oi["partial"]
        )
        bytes_norm.append(partial.dram_bytes / unfused.dram_bytes)
        flops_norm.append(full.flops / unfused.flops)
    return Row(
        "fig14",
        "Partial fusion cuts bytes at equal FLOPs; full fusion's recompute "
        "raises FLOPs and operational intensity",
        f"partial bytes {min(bytes_norm):.2f}-{max(bytes_norm):.2f}x of unfused; "
        f"full FLOPs {min(flops_norm):.2f}-{max(flops_norm):.2f}x",
        "on 3 graphs: partial FLOPs = unfused, bytes and OI better; "
        "full FLOPs and OI > partial",
        all(checks),
        GRAPHS + " (cora, dblp, collab)",
    )


FIG15_SPARSITIES = (0.5, 0.7, 0.9, 0.95)
FIG15_PATTERNS = ("uniform", "powerlaw", "blockdiag")


def fig15() -> Row:
    data = {
        pattern: {
            sparsity: fusion_sweep(
                gcn_on_synthetic(
                    nodes=48, features=8, density=1.0 - sparsity, pattern=pattern, seed=5
                ),
                BALANCED_MACHINE,
            )
            for sparsity in FIG15_SPARSITIES
        }
        for pattern in FIG15_PATTERNS
    }
    dense_end, sparse_end = FIG15_SPARSITIES[0], FIG15_SPARSITIES[-1]
    grows = all(
        s[sparse_end]["partial"] >= 0.9 * s[dense_end]["partial"] for s in data.values()
    )
    helps = all(v["partial"] > 1.0 for s in data.values() for v in s.values())
    slows = [p for p, s in data.items() if s[dense_end]["full"] < s[dense_end]["partial"]]
    return Row(
        "fig15",
        "Partial-fusion speedup grows with sparsity; full fusion can slow down",
        "partial "
        + ", ".join(
            f"{p} {_x(s[dense_end]['partial'])}->{_x(s[sparse_end]['partial'])}"
            for p, s in data.items()
        )
        + f" (50%->95%); full < partial at 50% on {len(slows)}/3",
        "partial > 1x everywhere; partial at 95% >= 0.9 x at 50% per pattern; "
        "full < partial at 50% on >= 1 pattern",
        grows and helps and bool(slows),
        "48-node / 8-feature graphs for the paper's 500 / 128; "
        + SCALED_RDA.format("8 B/cycle DRAM, 8x lanes"),
    )


FIG16_FACTORS = (1, 2, 4, 8, 16, 32, 64)
ATTENTION_REGION = 1  # subset 2 of decoder 0 under the partial schedule


@functools.cache
def fig16_sweeps() -> Tuple[Dict[int, float], Dict[str, float]]:
    bundle = build_gpt3(seq_len=128, d_model=16, block=4, n_layers=1, seed=31)

    def attention_cycles(par):
        schedule = bundle.schedule("partial")
        schedule.par = dict(par)
        result = SESSION.compile(bundle.program, schedule)(
            bundle.binding, machine=COMPUTE_BOUND_MACHINE
        )
        return result.region_results[ATTENTION_REGION].cycles

    exe = SESSION.compile(bundle.program, bundle.schedule("partial"))
    level1, level2 = exe.compiled.regions[ATTENTION_REGION].order[:2]
    factors = {f: attention_cycles({level1: f}) for f in FIG16_FACTORS}
    location = {
        "level 1": attention_cycles({level1: 4}),
        "level 2": attention_cycles({level2: 4}),
        "both": attention_cycles({level1: 4, level2: 4}),
    }
    return factors, location


def fig16a() -> Row:
    factors, _ = fig16_sweeps()
    speedups = [factors[1] / factors[f] for f in FIG16_FACTORS]
    monotone = all(b >= 0.99 * a for a, b in zip(speedups, speedups[1:]))
    return Row(
        "fig16a",
        "BigBird attention speeds up with the parallelization factor",
        f"{_x(speedups[2])} at 4, {_x(speedups[-1])} at 64",
        "monotone in 1..64 (1% slack); > 1.8x at 4; > 3x at 64",
        monotone and speedups[2] > 1.8 and speedups[-1] > 3.0,
        "fused attention region, seq 128; RDA_MACHINE with unbounded DRAM for Comal",
    )


def fig16b() -> Row:
    factors, location = fig16_sweeps()
    base = factors[1]
    both = base / location["both"]
    single = max(base / location["level 1"], base / location["level 2"])
    return Row(
        "fig16b",
        "Parallelizing both loop levels by 4 compounds (15.9x for 4x4)",
        f"both {_x(both)}, best single level {_x(single)}",
        "both >= best single level",
        both >= single,
        "fused attention region, seq 128; RDA_MACHINE with unbounded DRAM for Comal",
    )


def _masked_attention_cycles(block: int, mask: np.ndarray) -> float:
    """S = (Q K^T) * M fused, as block-sparse (block > 0) or unstructured."""
    seq, d_model = mask.shape[0], 8
    rng = np.random.default_rng(17)
    q = rng.standard_normal((seq, d_model))
    k = rng.standard_normal((seq, d_model))
    if block:
        act = Format((LevelKind.DENSE, LevelKind.DENSE), block_shape=(block, d_model))
        mask_fmt = Format(
            (LevelKind.DENSE, LevelKind.COMPRESSED), block_shape=(block, block)
        )
        op = "bmt"
    else:
        act, mask_fmt, op = dense(2), csr(), "mul"
    program = EinsumProgram(f"attention-b{block}")
    program.declare("Q", (seq, d_model), act)
    program.declare("K", (seq, d_model), act)
    program.declare("M", (seq, seq), mask_fmt)
    program.contract("P", ("i", "j"), op, [("Q", ("i", "d")), ("K", ("j", "d"))])
    program.contract("S", ("i", "j"), "mul", [("P", ("i", "j")), ("M", ("i", "j"))])
    binding = {
        "Q": SparseTensor.from_dense(q, act, "Q"),
        "K": SparseTensor.from_dense(k, act, "K"),
        "M": SparseTensor.from_dense(mask, mask_fmt, "M"),
    }
    result = SESSION.compile(program, fully_fused(program))(binding)
    np.testing.assert_allclose(
        result.tensors["S"].to_dense(), (q @ k.T) * mask, atol=1e-9
    )
    return result.metrics.cycles


def fig17() -> Row:
    speedups = {}
    for block in (4, 8, 16):
        mask = bigbird_mask(64, block, seed=7)
        speedups[block] = _masked_attention_cycles(0, mask) / _masked_attention_cycles(
            block, mask
        )
    return Row(
        "fig17",
        "Block-sparse attention beats unstructured, more so at larger blocks",
        ", ".join(f"{_x(s)} (block {b})" for b, s in speedups.items()),
        "> 1.5x at every block; block 16 > block 4",
        min(speedups.values()) > 1.5 and speedups[16] > speedups[4],
        "BigBird mask at seq 64, d_model 8; RDA_MACHINE for Comal",
    )


FIG18_PROGRAM = """
tensor A(34, 34): csr
tensor Xt(8, 34): dense
tensor W(8, 6): dense
E(i, j) = A(i, k) * Xt(j, k)
D(i, l) = E(i, j2) * W(j2, l)
"""


def fig18() -> Row:
    rng = np.random.default_rng(0)
    adj = weighted_adjacency(synthetic_graph(34, 0.12, "powerlaw", 42), rng)
    xt = node_features(8, 34, seed=1)
    w = rng.random((8, 6))
    binding = {
        "A": SparseTensor.from_dense(adj, csr(), "A"),
        "Xt": SparseTensor.from_dense(xt, dense(2), "Xt"),
        "W": SparseTensor.from_dense(w, dense(2), "W"),
    }
    program = parse_program(FIG18_PROGRAM)
    # The fused nested matmul as one global Einsum over (i, k, j, l): order
    # choices move the dense loops inside or outside the sparse iteration.
    fused = merge_contractions(fuse_region(program, [0, 1]))
    cycles = []
    for order in enumerate_orders(fused, limit=16):
        schedule = cs_rewrite(program, [[0, 1]])
        schedule.orders = {0: list(order)}
        result = SESSION.compile(program, schedule)(binding)
        np.testing.assert_allclose(
            result.tensors["D"].to_dense(), adj @ xt.T @ w, atol=1e-9
        )
        cycles.append(result.metrics.cycles)
    spread = max(cycles) / min(cycles)
    return Row(
        "fig18",
        "Suboptimal dataflow orders of a fused nested matmul run up to ~29x slower",
        f"worst/best = {_x(spread)} over {len(cycles)} orders",
        ">= 2 orders; worst/best > 1.3",
        len(cycles) >= 2 and spread > 1.3,
        "KarateClub-like 34-node synthetic graph; RDA_MACHINE for Comal",
    )


def tab02() -> Row:
    rows = table2_rows()
    graph_sparsity = []
    for name in GRAPH_DATASETS:
        _, adj, _ = graph_dataset(name)
        graph_sparsity.append(1.0 - np.count_nonzero(adj) / adj.size)
    masks = [mask_sparsity(bigbird_mask(128, b, seed=7)) for b in (4, 8, 16)]
    return Row(
        "tab2",
        "9 datasets: graphs 99.6-99.9% sparse, BigBird mask 53.9-86.5%",
        f"{len(rows)} rows; graphs >= {100 * min(graph_sparsity):.1f}%, "
        f"mask {100 * min(masks):.1f}-{100 * max(masks):.1f}%",
        "9 rows; graphs > 85% sparse; 20% < mask sparsity < 90%",
        len(rows) == 9
        and min(graph_sparsity) > 0.85
        and min(masks) > 0.2
        and max(masks) < 0.9,
        GRAPHS + "; 128-token synthetic mask for IMDB",
    )


def tab03() -> Row:
    bundles = {
        "GCN": graph_bundle("gcn", "collab"),
        "GraphSAGE": graph_bundle("graphsage", "collab"),
        "GPT-3": build_gpt3(seq_len=64, d_model=16, block=8, n_layers=1, seed=31),
    }
    errors = {}
    for model, bundle in bundles.items():
        heuristic = FusionHeuristic(bundle.program, stats_from_binding(bundle.binding))
        flops_err, bytes_err = [], []
        for granularity in GRANULARITIES:
            schedule = bundle.schedule(granularity)
            estimate = heuristic.estimate(schedule)
            measured = verified_run(bundle, schedule).metrics
            flops_err.append(abs(estimate.flops - measured.flops) / measured.flops)
            bytes_err.append(
                abs(estimate.dram_bytes - measured.dram_bytes) / measured.dram_bytes
            )
        errors[model] = (100 * np.mean(flops_err), 100 * np.mean(bytes_err))
    worst_flops = max(f for f, _ in errors.values())
    worst_bytes = max(b for _, b in errors.values())
    return Row(
        "tab3",
        "Heuristic error: FLOPs 1.8-2.8%, bytes 5.7-11.5%",
        f"worst FLOPs {worst_flops:.1f}%, worst bytes {worst_bytes:.1f}%",
        "mean error per model: FLOPs < 30%, bytes < 60%",
        worst_flops < 30.0 and worst_bytes < 60.0,
        "collab-like 140-node graph and a seq-64 BigBird decoder for OGB-Collab; "
        "simulated counters for measured ones",
    )


TAB04_CAP = 2 * 10**8  # the paper caps its search space at 2x10^8


def tab04() -> Row:
    reductions = {}
    for model in ("gcn", "graphsage"):
        bundle = graph_bundle(model, "collab")
        schedule = bundle.schedule("full")
        # Pin every contraction to its Gustavson order: outer output,
        # reductions, then inner outputs.
        constraints = {
            stmt.sid: tuple(
                [stmt.lhs.indices[0]]
                + list(stmt.reduction_indices())
                + list(stmt.lhs.indices[1:])
            )
            for stmt in bundle.program.statements
            if stmt.kind == "contract" and stmt.reduction_indices()
        }
        unconstrained, _ = program_order_space(bundle.program, schedule, cap=TAB04_CAP)
        _, constrained = program_order_space(
            bundle.program, schedule, cap=TAB04_CAP, best_order_constraints=constraints
        )
        reductions[model] = (unconstrained, constrained)
    shrink = {m: 1 - c / u for m, (u, c) in reductions.items()}
    return Row(
        "tab4",
        "Local order constraints shrink the dataflow-order space by 68.5-99.9%",
        ", ".join(
            f"{m} {u:.1e} -> {c:.1e} ({100 * shrink[m]:.1f}%)"
            for m, (u, c) in reductions.items()
        ),
        "constrained < unconstrained and shrink > 50% per model",
        all(c < u for u, c in reductions.values()) and min(shrink.values()) > 0.5,
        "collab-like 140-node graph for OGB-Collab; fully fused schedules",
    )


def sec81_compile_time() -> Row:
    _, x = sae_dataset("imagenet")
    bundles = (
        graph_bundle("gcn", "collab"),
        graph_bundle("graphsage", "collab"),
        build_sae(x, seed=21),
        build_gpt3(seq_len=64, d_model=16, block=8, n_layers=2, seed=31),
    )
    # A fresh session: a cache hit would time nothing.
    session = Session()
    slowest = max(
        session.compile(bundle.program, bundle.schedule(g)).compiled.compile_seconds
        for bundle in bundles
        for g in GRANULARITIES
    )
    return Row(
        "sec8.1",
        "Every model compiles in < 750 ms",
        "host wall clock (not recorded)",
        "slowest of 4 models x 3 granularities < 750 ms",
        slowest < 0.75,
        "CPython on the running host for the authors' compiler; Table 2 stand-in sizes",
    )


# ----------------------------------------------------------------------
# Rows this reproduction adds
# ----------------------------------------------------------------------

#: The capacity rows' models: gcn at 96 nodes so its intermediates
#: outgrow the small presets, gpt3 at its golden configuration.
CAPACITY_POINTS = {
    "gcn": {"nodes": 96, "density": 0.06, "seed": 0},
    "gpt3": {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1, "seed": 0},
}
#: gcn unfused maximizes capacity pressure; gpt3 partial shows tiling
#: composing with fusion.
TILED_GRANULARITY = {"gcn": "unfused", "gpt3": "partial"}
TILE_COUNTS = (1, 2, 4, 8)
HIERARCHY_ORDER = ("flat", "fpga-small", "asic-small", "asic-large")
SRAM_PRESETS = ("fpga-small", "asic-small")


@functools.cache
def capacity_bundle(model: str):
    return build_bundle(SweepPoint.make(model, model_args=CAPACITY_POINTS[model]))


def ours_tiling() -> Row:
    session = Session(hierarchy="fpga-small")
    ok, ours = True, []
    for model, granularity in TILED_GRANULARITY.items():
        bundle = capacity_bundle(model)
        base = session.compile(bundle.program, bundle.schedule(granularity))
        runs = {}
        for tiles in TILE_COUNTS:
            schedule = bundle.schedule(granularity)
            if tiles > 1:
                schedule.splits = intermediate_row_splits(base.compiled, tiles)
            result = session.compile(bundle.program, schedule)(bundle.binding)
            bundle.verify(result)
            runs[tiles] = result
        out = runs[1].tensors[bundle.output].to_dense()
        spill = [runs[t].metrics.spill_bytes for t in TILE_COUNTS]
        best = min(TILE_COUNTS[1:], key=lambda t: runs[t].metrics.spill_bytes)
        unsplit, tiled = runs[1].metrics, runs[best].metrics
        ok = ok and (
            tiled.spill_bytes < unsplit.spill_bytes
            and tiled.sram_bytes > unsplit.sram_bytes
            and tiled.dram_bytes < unsplit.dram_bytes
            and spill == sorted(spill, reverse=True)
            and all(
                np.array_equal(r.tensors[bundle.output].to_dense(), out)
                for r in runs.values()
            )
        )
        ours.append(f"{model} {unsplit.spill_bytes} -> {tiled.spill_bytes} B ({best} tiles)")
    return Row(
        "ours-tiling",
        "Splitting intermediates' row index turns DRAM spill into on-chip traffic",
        "spill " + ", ".join(ours),
        "best split: less spill and DRAM, more SRAM; spill non-increasing in "
        "tiles 1-8; outputs bit-exact",
        ok,
        "fpga-small (8 KiB SRAM) on RDA_MACHINE; 96-node gcn unfused, gpt3 partial",
    )


@functools.cache
def hierarchy_sweep():
    """Metrics per (model, hierarchy, granularity), all verified."""
    out = {}
    for model in CAPACITY_POINTS:
        bundle = capacity_bundle(model)
        for hierarchy in HIERARCHY_ORDER:
            session = Session(hierarchy=hierarchy)
            for g in GRANULARITIES:
                result = session.compile(bundle.program, bundle.schedule(g))(bundle.binding)
                bundle.verify(result)
                out[model, hierarchy, g] = result.metrics
    return out


def ours_fused_dram() -> Row:
    m = hierarchy_sweep()
    ratios = {
        (model, preset): m[model, preset, "unfused"].dram_bytes
        / min(m[model, preset, g].dram_bytes for g in ("partial", "full"))
        for model in CAPACITY_POINTS
        for preset in SRAM_PRESETS
    }
    absorbed = all(
        any(m[model, h, "unfused"].sram_bytes > 0 for h in SRAM_PRESETS)
        for model in CAPACITY_POINTS
    )
    flat = all(
        m[model, "flat", g].sram_bytes == 0
        and m[model, "flat", g].spill_bytes <= m[model, "flat", g].dram_bytes
        for model in CAPACITY_POINTS
        for g in GRANULARITIES
    )
    return Row(
        "ours-fused-dram",
        "The best fused schedule moves less DRAM than unfused under every SRAM preset",
        "unfused / best fused DRAM: "
        + ", ".join(f"{model} {p} {_x(r)}" for (model, p), r in ratios.items()),
        "ratio > 1 per model and preset; unfused uses SRAM on some preset; "
        "flat: no SRAM, spill <= DRAM",
        min(ratios.values()) > 1.0 and absorbed and flat,
        "fpga-small / asic-small presets on RDA_MACHINE; 96-node gcn, seq-16 gpt3",
    )


def ours_spill_capacity() -> Row:
    m = hierarchy_sweep()
    spills = {
        model: [m[model, h, "unfused"].spill_bytes for h in HIERARCHY_ORDER]
        for model in CAPACITY_POINTS
    }
    return Row(
        "ours-spill-capacity",
        "Unfused spill traffic never grows with on-chip capacity",
        "; ".join(f"{model} " + " >= ".join(map(str, s)) + " B" for model, s in spills.items()),
        "spill non-increasing over " + " < ".join(HIERARCHY_ORDER),
        all(s == sorted(s, reverse=True) for s in spills.values()),
        "hierarchy presets in capacity order on RDA_MACHINE; 96-node gcn, seq-16 gpt3",
    )


#: Guided-search simulation budget per model, sized against the
#: exhaustive arm (64 enumerated candidates, all simulated).
SEARCH_BUDGETS = {"gcn": 6, "graphsage": 6, "sae": 3, "gpt3": 2}
SEARCH_STRATEGIES = ("beam", "evolutionary")


@functools.cache
def search_bundles():
    """Small-n search models: the exhaustive oracle finishes in seconds."""
    rng = np.random.default_rng(0)
    return {
        "gcn": gcn_on_synthetic(nodes=24, density=0.1, seed=0),
        "graphsage": graphsage_on_synthetic(nodes=20, density=0.15, seed=0),
        "sae": build_sae(rng.standard_normal((8, 16)), weight_density=0.4, seed=0),
        "gpt3": build_gpt3(seq_len=16, d_model=8, block=4, n_layers=1),
    }


@functools.cache
def search_parity():
    """Exhaustive and guided autotune results per model.

    Returns ``{model: (exhaustive, {strategy: guided})}``; one session per
    model, so the guided arms reuse the oracle's compiles.
    """
    results = {}
    for model, bundle in search_bundles().items():
        stats = stats_from_binding(bundle.binding)
        session = Session(cache_size=1024)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exhaustive = autotune(
                bundle.program,
                bundle.binding,
                stats,
                session=session,
                budget=64,
                max_candidates=64,
            )
        guided = {
            strategy: autotune(
                bundle.program,
                bundle.binding,
                stats,
                session=session,
                strategy=strategy,
                budget=SEARCH_BUDGETS[model],
                seed=0,
            )
            for strategy in SEARCH_STRATEGIES
        }
        results[model] = (exhaustive, guided)
    return results


def ours_search() -> Row:
    cycle_ratio, sim_ratio = [], []
    for exhaustive, guided in search_parity().values():
        for result in guided.values():
            cycle_ratio.append(result.measured_cycles / exhaustive.measured_cycles)
            sim_ratio.append(exhaustive.evaluations / result.evaluations)
    return Row(
        "ours-search",
        "Guided search matches exhaustive search at a fraction of the simulations",
        f"worst cycles {max(cycle_ratio):.4f}x of exhaustive at >= "
        f"{min(sim_ratio):.1f}x fewer simulations",
        "beam and evolutionary on 4 models: cycles <= 1.01x, simulations >= 10x fewer",
        max(cycle_ratio) <= 1.01 and min(sim_ratio) >= 10.0,
        "small-n models (gcn 24, graphsage 20 nodes, sae 8x16, gpt3 seq 16) "
        "so the exhaustive oracle is tractable; RDA_MACHINE",
    )


FABRIC_ARGS = {"nodes": 96, "density": 0.08, "seed": 7}


def ours_fabric() -> Row:
    cycles = {}
    for model in ("gcn", "graphsage"):
        bundle = build_bundle(SweepPoint.make(model, model_args=FABRIC_ARGS))
        for g in GRANULARITIES:
            cycles[model, g] = verified_run(bundle, bundle.schedule(g)).metrics.cycles
    same_fused = all(cycles["gcn", g] == cycles["graphsage", g] for g in ("partial", "full"))
    return Row(
        "ours-fabric",
        "A parallel branch costs no time: Machine counts no compute or memory "
        "units, so equal fused graphs time equally",
        ", ".join(
            f"{g} {cycles['gcn', g]:.0f} / {cycles['graphsage', g]:.0f}" for g in GRANULARITIES
        )
        + " cycles (gcn / graphsage)",
        "fused cycles equal; unfused cycles differ",
        same_fused and cycles["gcn", "unfused"] != cycles["graphsage", "unfused"],
        "the intended spatial model (every SAM node its own unit) on RDA_MACHINE; "
        "96-node synthetic graph",
    )


ROWS: Tuple[Callable[[], Row], ...] = (
    fig01,
    fig04,
    fig12_sae,
    fig12_gcn,
    fig12_graphsage,
    fig12_gpt3,
    fig13,
    fig14,
    fig15,
    fig16a,
    fig16b,
    fig17,
    fig18,
    tab02,
    tab03,
    tab04,
    sec81_compile_time,
    ours_tiling,
    ours_fused_dram,
    ours_spill_capacity,
    ours_search,
    ours_fabric,
)


def scorecard() -> List[Row]:
    """Run every experiment and return its row, in table order."""
    return [row() for row in ROWS]


HEADER = """\
# Reproduction scorecard

One row per claim of the FuseFlow paper's evaluation, plus the claims this
reproduction adds (`ours-*`).  Generated by `python -m repro.reproduce`;
`tests/test_reproduction.py` fails if a row fails or this file is stale.
Numbers are simulated and repeat exactly; the `sec8.1` row is host wall
clock and shows only its verdict.
"""


def _cell(text: str) -> str:
    return text.replace("|", "\\|")


def render(rows: List[Row]) -> str:
    """The scorecard as the markdown document committed as REPRODUCTION.md."""
    lines = [
        HEADER,
        "| id | paper's statement | ours | check | pass | substitution |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        cells = (r.id, r.claim, r.ours, r.check, "pass" if r.passed else "FAIL", r.substitution)
        lines.append("| " + " | ".join(_cell(c) for c in cells) + " |")
    passed = sum(r.passed for r in rows)
    lines += ["", f"{passed}/{len(rows)} rows pass."]
    return "\n".join(lines) + "\n"


def main() -> int:
    rows = scorecard()
    print(render(rows), end="")
    return 0 if all(r.passed for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
