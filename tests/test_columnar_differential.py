"""Differential tests: columnar kernels vs the legacy token interpreter.

For every golden model at its canonical configuration and every fusion
granularity, the columnar (vectorized) execution must reproduce the legacy
per-token execution *exactly*: same streams token for token, same per-node
statistics (tokens/ops/DRAM bytes), same output tensors bit for bit, and
the same timed metrics.  This is the contract that lets the golden traces
in ``tests/golden/`` stand unregenerated across the representation change.
"""

import numpy as np
import pytest

from repro.comal.engine import run_timed
from repro.comal.functional import run_functional
from repro.comal.machines import RDA_MACHINE
from repro.driver import Session
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

STAT_FIELDS = ("tokens_in", "tokens_out", "ops", "dram_reads", "dram_writes")


@pytest.fixture(scope="module")
def session():
    return Session(machine=RDA_MACHINE)


def _regions(session, model, granularity):
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    exe = session.compile(bundle.program, bundle.schedule(granularity))
    return bundle, exe


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_streams_stats_and_timing_match(model, granularity, session):
    bundle, exe = _regions(session, model, granularity)
    bind_l = dict(bundle.binding)
    bind_c = dict(bundle.binding)
    for region in exe.regions:
        for orig, new_name, mode_order in region.transposes:
            for bind in (bind_l, bind_c):
                if new_name not in bind:
                    bind[new_name] = bind[orig].permuted_copy(
                        mode_order, name=new_name
                    )
        graph = region.graph
        legacy = run_functional(
            graph, bind_l, RDA_MACHINE.scratchpad_bytes, backend="interp"
        )
        columnar = run_functional(
            graph, bind_c, RDA_MACHINE.scratchpad_bytes, backend="columnar"
        )

        assert set(legacy.streams) == set(columnar.streams)
        for key in legacy.streams:
            got = columnar.streams[key]
            assert isinstance(got, TokenStream), key
            assert streams_equal(got, legacy.streams[key]), (
                f"{model}/{granularity}/{graph.name} stream {key} diverged"
            )
        for node_id, want in legacy.stats.items():
            have = columnar.stats[node_id]
            for fieldname in STAT_FIELDS:
                assert getattr(have, fieldname) == getattr(want, fieldname), (
                    f"{model}/{granularity}/{graph.name} {node_id}.{fieldname}"
                )
        for name, tensor in legacy.results.items():
            assert np.array_equal(
                tensor.to_dense(), columnar.results[name].to_dense()
            ), f"{model}/{granularity} result {name} diverged"

        timed_l = run_timed(graph, bind_l, RDA_MACHINE, functional=legacy)
        timed_c = run_timed(graph, bind_c, RDA_MACHINE, functional=columnar)
        assert timed_c.flops == timed_l.flops
        assert timed_c.dram_bytes == timed_l.dram_bytes
        assert timed_c.tokens == timed_l.tokens
        assert timed_c.cycles == pytest.approx(timed_l.cycles, rel=1e-9)
        for node_id, busy in timed_l.node_busy.items():
            assert timed_c.node_busy[node_id] == pytest.approx(busy, rel=1e-9)

        bind_l.update(legacy.results)
        bind_c.update(columnar.results)


@pytest.mark.parametrize("model", sorted(POINTS))
def test_end_to_end_metrics_match(model):
    """Full executable runs agree between representations (memo off)."""
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    res = {}
    for label, backend in (("legacy", "interp"), ("columnar", "columnar")):
        sess = Session(machine=RDA_MACHINE, backend=backend, sim_cache=False)
        exe = sess.compile(bundle.program, bundle.schedule("partial"))
        res[label] = exe(bundle.binding).metrics
    legacy, columnar = res["legacy"], res["columnar"]
    assert columnar.flops == legacy.flops
    assert columnar.dram_bytes == legacy.dram_bytes
    assert columnar.tokens == legacy.tokens
    assert columnar.cycles == pytest.approx(legacy.cycles, rel=1e-9)
    assert columnar.kernel_cycles == pytest.approx(
        legacy.kernel_cycles, rel=1e-9
    )


def test_memoized_executions_reuse_results():
    """Repeated executions of a cached executable hit the simulator memo."""
    bundle = build_bundle(SweepPoint.make("sae", model_args=POINTS["sae"]))
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
    rebuilt = build_bundle(SweepPoint.make("sae", model_args=POINTS["sae"]))
    third = exe(rebuilt.binding)
    assert third.metrics.cycles == first.metrics.cycles
