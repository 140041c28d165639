"""Differential tests: the tier rule against the forced token tier.

One node loop runs every region on the token tier (per-token ``process``,
the executable specification) or the columnar tier (vectorized
``process_columnar``).  The rule sends a region that reads blocked
payloads to the token tier and every other region to the columnar one.
For every golden model at its canonical configuration and every fusion
granularity, the rule must reproduce the token tier forced onto every
region (the ``force_tier`` fixture of ``conftest.py``, which patches the
rule) *exactly*: same streams token for token, same
per-node statistics, same output tensors bit for bit, and the same timed
metrics.  This is the contract that lets the golden traces in
``tests/golden/`` stand unregenerated.

gpt3 reads blocked tensors in every region: its cases pin that the rule
keeps it on the token tier.  The helpers here are shared with
``tests/test_codegen_differential.py``, which runs the same checks on
whole executions end to end and over memory hierarchies, lean runs,
disk-loaded compiles and random graphs.
"""

import numpy as np
import pytest

from repro.comal.engine import run_timed
from repro.comal.functional import run_functional
from repro.comal.machines import RDA_MACHINE
from repro.driver import Session
from repro.driver.compiled import functional_stage, time_stage
from repro.sam.token import TokenStream, streams_equal
from repro.sweep import SweepPoint, build_bundle

#: The canonical golden configurations (tests/test_golden_traces.py).
POINTS = {
    "gcn": {"nodes": 30, "density": 0.1, "seed": 0},
    "graphsage": {"nodes": 30, "density": 0.1, "seed": 0},
    "sae": {"nodes": 16, "seed": 0},
    "gpt3": {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1, "seed": 0},
}

GRANULARITIES = ("unfused", "partial", "full")

#: Models whose every region reads a blocked tensor (the token tier).
BLOCKED_MODELS = ("gpt3",)


def bundle_of(model, **overrides):
    args = dict(POINTS[model], **overrides)
    return build_bundle(SweepPoint.make(model, model_args=args))


def bind_transposes(region, *bindings):
    for orig, new_name, mode_order in region.transposes:
        for bind in bindings:
            if new_name not in bind:
                bind[new_name] = bind[orig].permuted_copy(mode_order, name=new_name)


def assert_regions_match(where, want, have):
    """Functional results of one region: streams, full stats, tensors."""
    assert set(have.streams) == set(want.streams), where
    for key in want.streams:
        assert streams_equal(have.streams[key], want.streams[key]), (
            f"{where} stream {key} diverged"
        )
    assert have.stats == want.stats, where
    assert set(have.results) == set(want.results), where
    for name, tensor in want.results.items():
        assert np.array_equal(
            tensor.to_dense(), have.results[name].to_dense()
        ), f"{where} result {name} diverged"


def ran_columnar(result) -> bool:
    """Which tier a run took, read off its streams' representation."""
    kinds = {isinstance(s, TokenStream) for s in result.streams.values()}
    assert len(kinds) == 1, "a region ran on both tiers"
    return kinds.pop()


def check_regions(
    force,
    model,
    granularity,
    hierarchy="flat",
    *,
    tier=None,
    loaded=None,
    engine=False,
    debug_streams=None,
):
    """``tier`` (``None``: the rule) against the forced token tier, region
    by region: streams, stats, tensors and timed figures.  ``force`` is the
    ``force_tier`` fixture.

    ``loaded`` is the executable under test (a disk-loaded compile, say),
    checked against a fresh compile; ``engine`` lets the timed engine run
    each region itself instead of timing a functional result.
    """
    bundle = bundle_of(model)
    session = Session(machine=RDA_MACHINE, hierarchy=hierarchy)
    fresh = session.compile(bundle.program, bundle.schedule(granularity))
    machine = session.machine

    def timed(region, bind, run_tier):
        graph, placement = region.graph, region.placement
        with force(run_tier):
            if engine:
                return run_timed(
                    graph,
                    bind,
                    machine,
                    debug_streams=debug_streams,
                    placement=placement,
                )
            func = run_functional(
                graph, bind, machine.scratchpad_bytes, debug_streams=debug_streams
            )
        return run_timed(graph, bind, machine, functional=func, placement=placement)

    bind_want, bind_have = dict(bundle.binding), dict(bundle.binding)
    for ref, region in zip(fresh.regions, (loaded or fresh).regions, strict=True):
        bind_transposes(ref, bind_want)
        bind_transposes(region, bind_have)
        where = f"{model}/{granularity}/{hierarchy}/{region.graph.name}"
        want = timed(ref, bind_want, "token")
        have = timed(region, bind_have, tier)
        columnar = tier == "columnar" or (tier is None and model not in BLOCKED_MODELS)
        assert ran_columnar(have.functional) is columnar, where
        assert_regions_match(where, want.functional, have.functional)
        for name in ("flops", "dram_bytes", "sram_bytes", "tokens", "cycles", "node_busy"):
            assert getattr(have, name) == getattr(want, name), f"{where} {name}"
        bind_want.update(want.results)
        bind_have.update(have.results)


def check_end_to_end(
    force,
    model,
    granularity,
    hierarchy="flat",
    *,
    tier=None,
    debug_streams=True,
    bundle=None,
):
    """A whole execution under ``tier`` (``None``: ``exe(binding)``, the
    rule) against the staged forced token tier: metrics, per-level traffic
    and tensors, bit for bit.  ``force`` is the ``force_tier`` fixture."""
    bundle = bundle or bundle_of(model)
    session = Session(
        machine=RDA_MACHINE,
        hierarchy=hierarchy,
        sim_cache=False,
        debug_streams=debug_streams,
    )
    exe = session.compile(bundle.program, bundle.schedule(granularity))

    def staged(run_tier):
        with force(run_tier):
            run = functional_stage(
                exe.compiled, bundle.binding, debug_streams=debug_streams
            )
        return time_stage(exe.compiled, run, exe.machine)

    want = staged("token")
    have = exe(bundle.binding) if tier is None else staged(tier)
    where = f"{model}/{granularity}/{hierarchy}: {tier or 'rule'} vs token"
    assert have.metrics == want.metrics, where
    assert have.metrics.traffic_by_level() == want.metrics.traffic_by_level(), where
    assert set(have.tensors) == set(want.tensors), where
    for name, tensor in want.tensors.items():
        assert np.array_equal(
            tensor.to_dense(), have.tensors[name].to_dense()
        ), f"{where} tensor {name} diverged"


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_streams_stats_and_timing_match(force_tier, model, granularity):
    check_regions(force_tier, model, granularity)


def test_memoized_executions_reuse_results():
    """Repeated executions of a cached executable hit the simulator memo."""
    bundle = bundle_of("sae")
    session = Session(machine=RDA_MACHINE, sim_cache=True)
    exe = session.compile(bundle.program, bundle.schedule("partial"))
    first = exe(bundle.binding)
    second = exe(bundle.binding)
    assert second.metrics.cycles == first.metrics.cycles
    assert second.metrics.flops == first.metrics.flops
    # The underlying SimResults are shared objects on the hot path.
    assert [id(r) for r in second.region_results] == [
        id(r) for r in first.region_results
    ]
    # Fresh tensors (same values, new objects) miss the memo but agree.
    third = exe(bundle_of("sae").binding)
    assert third.metrics.cycles == first.metrics.cycles
