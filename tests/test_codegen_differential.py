"""Differential tests across the backend names: interp, columnar, codegen.

The ``interp`` interpreter is the executable specification; the other
two backends must reproduce it *exactly* for every golden model at its
canonical configuration, across fusion granularities and memory
hierarchies: same streams token for token, same per-node statistics, same
output tensors bit for bit, the same timed metrics, and the same
per-level memory traffic.  This is the contract that lets any backend
substitute for another without regenerating a golden trace.

All three run one node loop and differ only in the tier each region runs
on: ``interp`` is the token tier, ``columnar`` the columnar tier, and
``codegen`` the per-region tier rule choosing between them.  The cases
named for the token tier check ``interp`` against ``columnar``, the ones
named for the columnar tier check ``columnar`` against ``interp``, and the
rest check ``codegen`` against ``interp`` — so every pair is pinned and a
divergence in one tier cannot hide behind the rule's choice of the other.

Mirrors ``tests/test_columnar_differential.py`` (the representation axis)
and ``tests/test_split_differential.py`` (the tiling axis) for the backend
axis, plus hypothesis round-trips of random single-region graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import BACKEND_NAMES
from repro.comal.engine import run_timed
from repro.comal.functional import run_functional
from repro.comal.machines import RDA_MACHINE
from repro.core.einsum.parser import parse_program
from repro.core.schedule.schedule import unfused
from repro.driver import Session
from repro.ftree import SparseTensor
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

#: The backend that runs each tier on its own.
TIER_BACKEND = {"token": "interp", "columnar": "columnar"}


def _bind_transposes(region, *bindings):
    for orig, new_name, mode_order in region.transposes:
        for bind in bindings:
            if new_name not in bind:
                bind[new_name] = bind[orig].permuted_copy(
                    mode_order, name=new_name
                )


def _assert_regions_match(where, want, have):
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


def _region_by_region(model, granularity, hierarchy, backend, reference):
    """``backend`` against ``reference``, region by region, timing included."""
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    session = Session(machine=RDA_MACHINE, hierarchy=hierarchy)
    exe = session.compile(bundle.program, bundle.schedule(granularity))
    machine = session.machine
    bind_r = dict(bundle.binding)
    bind_b = dict(bundle.binding)
    for region in exe.regions:
        _bind_transposes(region, bind_r, bind_b)
        graph = region.graph
        where = f"{model}/{granularity}/{hierarchy}/{graph.name}"
        want = run_functional(
            graph, bind_r, machine.scratchpad_bytes, backend=reference
        )
        have = run_functional(
            graph, bind_b, machine.scratchpad_bytes, backend=backend
        )
        _assert_regions_match(where, want, have)

        timed_r = run_timed(graph, bind_r, machine, functional=want)
        timed_b = run_timed(graph, bind_b, machine, functional=have)
        assert timed_b.flops == timed_r.flops
        assert timed_b.dram_bytes == timed_r.dram_bytes
        assert timed_b.sram_bytes == timed_r.sram_bytes
        assert timed_b.tokens == timed_r.tokens
        assert timed_b.cycles == timed_r.cycles, where
        assert timed_b.node_busy == timed_r.node_busy, where

        bind_r.update(want.results)
        bind_b.update(have.results)


def _end_to_end(model, granularity, hierarchy, backend, reference):
    """Full executions agree on metrics incl. per-level memory traffic."""
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    res = {}
    for name in (reference, backend):
        sess = Session(
            machine=RDA_MACHINE,
            hierarchy=hierarchy,
            backend=name,
            sim_cache=False,
            debug_streams=True,
        )
        exe = sess.compile(bundle.program, bundle.schedule(granularity))
        res[name] = exe(bundle.binding)
    want, have = res[reference].metrics, res[backend].metrics
    where = f"{model}/{granularity}/{hierarchy}: {backend} vs {reference}"
    assert have.flops == want.flops, where
    assert have.tokens == want.tokens, where
    assert have.traffic_by_level() == want.traffic_by_level(), where
    assert have.cycles == want.cycles, where
    assert have.kernel_cycles == want.kernel_cycles, where
    assert set(res[backend].tensors) == set(res[reference].tensors), where
    for name, tensor in res[reference].tensors.items():
        assert np.array_equal(
            tensor.to_dense(), res[backend].tensors[name].to_dense()
        ), f"{where} tensor {name} diverged"


@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_streams_stats_and_timing_match(model, granularity, hierarchy):
    """The tier rule, region by region: streams, stats, tensors, cycles."""
    _region_by_region(model, granularity, hierarchy, "codegen", "interp")


@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_end_to_end_metrics_and_traffic_match(model, hierarchy):
    """The tier rule end to end, per-level memory traffic included."""
    _end_to_end(model, "partial", hierarchy, "codegen", "interp")


@pytest.mark.parametrize("model", sorted(POINTS))
def test_columnar_tier_forced_matches(model):
    """The columnar tier on every region is bit-exact on its own.

    gpt3's blocked payloads exercise the per-node ``objs`` escape hatch
    on the same path.
    """
    _end_to_end(model, "partial", "flat", TIER_BACKEND["columnar"], "interp")


@pytest.mark.parametrize("granularity", ("unfused", "partial", "full"))
@pytest.mark.parametrize("model", sorted(POINTS))
def test_token_tier_forced_matches(model, granularity):
    """The token tier on every region, at every granularity."""
    _end_to_end(model, granularity, "flat", TIER_BACKEND["token"], "columnar")


@pytest.mark.parametrize("tier", ("token", "columnar"))
@pytest.mark.parametrize("granularity", ("unfused", "partial", "full"))
@pytest.mark.parametrize("model", sorted(POINTS))
def test_disk_loaded_kernels_match_interp(model, granularity, tier, tmp_path):
    """What a restarted process unpickles runs as what it compiled.

    A first session fills the directory; a second one, under the backend
    that runs ``tier``, is served the compiled program from disk and must
    reproduce ``interp`` on a fresh compile region by region: streams
    token for token, per-node statistics, output tensors, with stream
    checking on.
    """
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    schedule = bundle.schedule(granularity)
    backend = TIER_BACKEND[tier]
    Session(
        machine=RDA_MACHINE, backend=backend, disk_cache=str(tmp_path)
    ).compile(bundle.program, schedule)
    exe, source = Session(
        machine=RDA_MACHINE, backend=backend, disk_cache=str(tmp_path)
    ).compile_detailed(bundle.program, schedule)
    assert source == "disk"
    fresh = Session(machine=RDA_MACHINE, backend="interp").compile(
        bundle.program, schedule
    )
    bind_i = dict(bundle.binding)
    bind_d = dict(bundle.binding)
    for ref_region, region in zip(fresh.regions, exe.regions, strict=True):
        _bind_transposes(ref_region, bind_i)
        _bind_transposes(region, bind_d)
        where = f"{model}/{granularity}/{tier}/{region.graph.name}"
        interp = run_functional(
            ref_region.graph, bind_i, backend="interp", debug_streams=True,
            cache=False,
        )
        loaded = run_functional(
            region.graph, bind_d, backend=backend, debug_streams=True,
            cache=False,
        )
        _assert_regions_match(where, interp, loaded)
        bind_i.update(interp.results)
        bind_d.update(loaded.results)


def test_shared_kernels_match_every_backend(reference="interp"):
    """The layers of a stack compute their own results under every backend.

    gpt3's decoder blocks are structurally identical regions told apart
    only by the tensors they touch.  Outputs and metrics must stay
    bit-exact against ``reference`` with stream checking on.
    """
    args = dict(POINTS["gpt3"], n_layers=2)
    bundle = build_bundle(SweepPoint.make("gpt3", model_args=args))
    res = {}
    for backend in BACKEND_NAMES:
        sess = Session(
            machine=RDA_MACHINE,
            backend=backend,
            sim_cache=False,
            debug_streams=True,
        )
        exe = sess.compile(bundle.program, bundle.schedule("unfused"))
        res[backend] = exe(bundle.binding)
    want = res[reference]
    for backend, have in res.items():
        assert have.metrics.flops == want.metrics.flops
        assert have.metrics.tokens == want.metrics.tokens
        assert have.metrics.traffic_by_level() == (
            want.metrics.traffic_by_level()
        )
        assert have.metrics.cycles == want.metrics.cycles
        assert set(have.tensors) == set(want.tensors)
        for name, tensor in want.tensors.items():
            assert np.array_equal(
                tensor.to_dense(), have.tensors[name].to_dense()
            ), f"tensor {name}: {backend} diverged from {reference}"


# The token tier checked against the columnar one, over the same cases.


@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_streams_stats_and_timing_match_on_token_tier(
    model, granularity, hierarchy
):
    _region_by_region(
        model, granularity, hierarchy, TIER_BACKEND["token"], "columnar"
    )


@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_end_to_end_metrics_and_traffic_match_on_token_tier(model, hierarchy):
    _end_to_end(model, "partial", hierarchy, TIER_BACKEND["token"], "columnar")


def test_shared_kernels_match_every_backend_on_token_tier():
    test_shared_kernels_match_every_backend(reference=TIER_BACKEND["token"])


# ----------------------------------------------------------------------
# Hypothesis round-trips: random single-region graphs
# ----------------------------------------------------------------------

_UNARY = ("relu", "abs", "exp")


def _single_region_graphs(kind, density, unary, seed):
    """Compile one random statement and yield its lowered region graphs."""
    if kind == "spmm":
        text = (
            "tensor A(6, 7): csr\ntensor X(7, 4): dense\n"
            "T(i, j) = A(i, k) * X(k, j)"
        )
    elif kind == "add":
        text = (
            "tensor A(6, 7): csr\ntensor B(6, 7): csr\n"
            "T(i, j) = A(i, j) + B(i, j)"
        )
    else:  # unary
        text = f"tensor A(6, 7): csr\nT(i, j) = {unary}(A(i, j))"
    program = parse_program(text)
    rng = np.random.default_rng(seed)
    binding = {}
    for name, decl in program.decls.items():
        data = rng.random(decl.shape)
        if decl.fmt.name() == "csr":
            data = data * (rng.random(decl.shape) < density)
        binding[name] = SparseTensor.from_dense(data, decl.fmt, name)
    session = Session(machine=RDA_MACHINE)
    exe = session.compile(program, unfused(program))
    return exe, binding


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["spmm", "add", "unary"]),
    density=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    unary=st.sampled_from(_UNARY),
    seed=st.integers(0, 10_000),
)
def test_random_single_region_round_trip(kind, density, unary, seed):
    """Random single-region graphs run bit-exactly under every backend."""
    exe, binding = _single_region_graphs(kind, density, unary, seed)
    assert len(exe.regions) == 1
    graph = exe.regions[0].graph
    want = run_functional(
        graph, binding, RDA_MACHINE.scratchpad_bytes, backend="interp",
        cache=False,
    )
    for backend in ("columnar", "codegen"):
        have = run_functional(
            graph, binding, RDA_MACHINE.scratchpad_bytes, backend=backend,
            cache=False,
        )
        _assert_regions_match(backend, want, have)
