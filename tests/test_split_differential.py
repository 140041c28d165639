"""Differential tests: split vs unsplit schedules are functionally bit-exact.

Index splitting iterates the same coordinate space in the same order, just
in ``T`` contiguous tiles, so it must not perturb the functional execution
at all: for every golden model at its canonical configuration, a schedule
tiling every cross-region intermediate's row index must reproduce the
unsplit schedule's streams token for token, per-node statistics exactly,
and output tensors bit for bit — under the flat hierarchy *and* under the
tightest on-chip preset (where the split actually changes placement).
What splitting is allowed to change is timing (tile-boundary fill/drain
bubbles) and which memory level serves each intermediate.

This mirrors ``tests/test_columnar_differential.py``, which pins the same
contract across the stream-representation axis.
"""

import numpy as np
import pytest

from repro.comal.functional import run_functional
from repro.comal.machines import RDA_MACHINE
from repro.core.schedule.split import intermediate_row_splits
from repro.driver import Session
from repro.sam.token import streams_equal
from repro.sweep import SweepPoint, build_bundle

#: The canonical golden configurations (tests/test_golden_traces.py).
POINTS = {
    "gcn": {"nodes": 30, "density": 0.1, "seed": 0},
    "graphsage": {"nodes": 30, "density": 0.1, "seed": 0},
    "sae": {"nodes": 16, "seed": 0},
    "gpt3": {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1, "seed": 0},
}

GRANULARITIES = ("unfused", "partial")
HIERARCHIES = ("flat", "fpga-small")
TILES = 4

STAT_FIELDS = ("tokens_in", "tokens_out", "ops", "dram_reads", "dram_writes")


def _compile_pair(model, granularity, hierarchy):
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    session = Session(machine=RDA_MACHINE, hierarchy=hierarchy)
    base = session.compile(bundle.program, bundle.schedule(granularity))
    split_schedule = bundle.schedule(granularity)
    split_schedule.splits = intermediate_row_splits(base.compiled, TILES)
    split = session.compile(bundle.program, split_schedule)
    return bundle, base, split


@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_streams_and_stats_match(model, granularity, hierarchy):
    """Region-by-region: identical streams, stats, and materializations."""
    bundle, base, split = _compile_pair(model, granularity, hierarchy)
    assert len(base.regions) == len(split.regions)
    bind_a = dict(bundle.binding)
    bind_b = dict(bundle.binding)
    scratch = base.machine.scratchpad_bytes
    for region_a, region_b in zip(base.regions, split.regions):
        for orig, new_name, mode_order in region_a.transposes:
            for bind in (bind_a, bind_b):
                if new_name not in bind:
                    bind[new_name] = bind[orig].permuted_copy(
                        mode_order, name=new_name
                    )
        func_a = run_functional(region_a.graph, bind_a, scratch)
        func_b = run_functional(region_b.graph, bind_b, scratch)

        assert set(func_a.streams) == set(func_b.streams)
        for key in func_a.streams:
            got = func_b.streams[key]
            # Both executions run under the session default backend, so
            # their representations agree (columnar TokenStream under the
            # default; tuple lists under interp; either under codegen's
            # tier rule, which sizes both runs alike) — the contract
            # here is split-vs-unsplit equivalence, not representation.
            assert type(got) is type(func_a.streams[key]), key
            assert streams_equal(got, func_a.streams[key]), (
                f"{model}/{granularity}/{hierarchy} stream {key} diverged"
            )
        for node_id, want in func_a.stats.items():
            have = func_b.stats[node_id]
            for fieldname in STAT_FIELDS:
                assert getattr(have, fieldname) == getattr(want, fieldname), (
                    f"{model}/{granularity}/{hierarchy} {node_id}.{fieldname}"
                )
        for name, tensor in func_a.results.items():
            assert np.array_equal(
                tensor.to_dense(), func_b.results[name].to_dense()
            ), f"{model}/{granularity}/{hierarchy} result {name} diverged"

        bind_a.update(func_a.results)
        bind_b.update(func_b.results)


@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_end_to_end_results_bit_exact(model, hierarchy):
    """Full executions agree on every materialized tensor, bit for bit."""
    bundle, base, split = _compile_pair(model, "unfused", hierarchy)
    result_a = base(bundle.binding)
    result_b = split(bundle.binding)
    assert set(result_a.tensors) == set(result_b.tensors)
    for name, tensor in result_a.tensors.items():
        assert np.array_equal(
            tensor.to_dense(), result_b.tensors[name].to_dense()
        ), f"{model}/{hierarchy} tensor {name}"
    # Work is identical; only pacing and placement may differ.
    assert result_b.metrics.flops == result_a.metrics.flops
    assert result_b.metrics.tokens == result_a.metrics.tokens
    total_a = result_a.metrics.dram_bytes + result_a.metrics.sram_bytes
    total_b = result_b.metrics.dram_bytes + result_b.metrics.sram_bytes
    assert total_a == total_b
    assert bundle.max_abs_err(result_b) < 1e-6
