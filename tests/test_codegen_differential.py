"""Differential tests: the codegen backend vs the columnar interpreter.

The interpreter is the executable specification; the codegen backend must
reproduce it *exactly* for every golden model at its canonical
configuration, across fusion granularities and memory hierarchies: same
streams token for token, same per-node statistics (tokens/ops/DRAM bytes),
same output tensors bit for bit, the same timed metrics, and the same
per-level memory traffic.  This is the contract that lets ``--backend
codegen`` substitute for the interpreter without regenerating any golden
trace.

Mirrors ``tests/test_columnar_differential.py`` (the representation axis)
and ``tests/test_split_differential.py`` (the tiling axis) for the backend
axis, plus hypothesis round-trips of random single-region graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import codegen_cache_info
from repro.backend.codegen import cached_artifacts, clear_codegen_caches
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

STAT_FIELDS = ("tokens_in", "tokens_out", "ops", "dram_reads", "dram_writes")


@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_streams_stats_and_timing_match(model, granularity, hierarchy):
    """Region-by-region bit-exactness: streams, stats, tensors, cycles."""
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    session = Session(machine=RDA_MACHINE, hierarchy=hierarchy)
    exe = session.compile(bundle.program, bundle.schedule(granularity))
    machine = session.machine
    bind_c = dict(bundle.binding)
    bind_g = dict(bundle.binding)
    for region in exe.regions:
        for orig, new_name, mode_order in region.transposes:
            for bind in (bind_c, bind_g):
                if new_name not in bind:
                    bind[new_name] = bind[orig].permuted_copy(
                        mode_order, name=new_name
                    )
        graph = region.graph
        columnar = run_functional(
            graph, bind_c, machine.scratchpad_bytes, backend="columnar"
        )
        codegen = run_functional(
            graph, bind_g, machine.scratchpad_bytes, backend="codegen"
        )

        assert set(columnar.streams) == set(codegen.streams)
        for key in columnar.streams:
            assert streams_equal(codegen.streams[key], columnar.streams[key]), (
                f"{model}/{granularity}/{hierarchy}/{graph.name} "
                f"stream {key} diverged"
            )
        for node_id, want in columnar.stats.items():
            have = codegen.stats[node_id]
            for fieldname in STAT_FIELDS:
                assert getattr(have, fieldname) == getattr(want, fieldname), (
                    f"{model}/{granularity}/{hierarchy}/{graph.name} "
                    f"{node_id}.{fieldname}"
                )
        for name, tensor in columnar.results.items():
            assert np.array_equal(
                tensor.to_dense(), codegen.results[name].to_dense()
            ), f"{model}/{granularity}/{hierarchy} result {name} diverged"

        timed_c = run_timed(graph, bind_c, machine, functional=columnar)
        timed_g = run_timed(graph, bind_g, machine, functional=codegen)
        assert timed_g.flops == timed_c.flops
        assert timed_g.dram_bytes == timed_c.dram_bytes
        assert timed_g.sram_bytes == timed_c.sram_bytes
        assert timed_g.tokens == timed_c.tokens
        assert timed_g.cycles == pytest.approx(timed_c.cycles, rel=1e-9)
        for node_id, busy in timed_c.node_busy.items():
            assert timed_g.node_busy[node_id] == pytest.approx(busy, rel=1e-9)

        bind_c.update(columnar.results)
        bind_g.update(codegen.results)


@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_end_to_end_metrics_and_traffic_match(model, hierarchy):
    """Full executions agree on metrics incl. per-level memory traffic."""
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    res = {}
    for backend in ("columnar", "codegen"):
        sess = Session(
            machine=RDA_MACHINE,
            hierarchy=hierarchy,
            backend=backend,
            sim_cache=False,
        )
        exe = sess.compile(bundle.program, bundle.schedule("partial"))
        res[backend] = exe(bundle.binding)
    columnar, codegen = res["columnar"].metrics, res["codegen"].metrics
    assert codegen.flops == columnar.flops
    assert codegen.tokens == columnar.tokens
    assert codegen.traffic_by_level() == columnar.traffic_by_level()
    assert codegen.cycles == pytest.approx(columnar.cycles, rel=1e-9)
    assert codegen.kernel_cycles == pytest.approx(
        columnar.kernel_cycles, rel=1e-9
    )
    for name, tensor in res["columnar"].tensors.items():
        assert np.array_equal(
            tensor.to_dense(), res["codegen"].tensors[name].to_dense()
        ), f"{model}/{hierarchy} tensor {name} diverged"


def _assert_forced_tier_matches(model, granularity, tier, reference):
    """With every region on ``tier`` (``force_tier``), match ``reference``."""
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    res = {}
    for backend in (reference, "codegen"):
        sess = Session(
            machine=RDA_MACHINE,
            backend=backend,
            sim_cache=False,
            debug_streams=True,
        )
        exe = sess.compile(bundle.program, bundle.schedule(granularity))
        res[backend] = exe(bundle.binding)
    for region in exe.regions:
        ran = {
            name
            for name, artifact in cached_artifacts(region.graph).items()
            if artifact.runs
        }
        assert ran == {tier}, f"{model}/{granularity}/{region.graph.name}"
    want, codegen = res[reference].metrics, res["codegen"].metrics
    assert codegen.flops == want.flops
    assert codegen.tokens == want.tokens
    assert codegen.traffic_by_level() == want.traffic_by_level()
    assert codegen.cycles == pytest.approx(want.cycles, rel=1e-9)
    for name, tensor in res[reference].tensors.items():
        assert np.array_equal(
            tensor.to_dense(), res["codegen"].tensors[name].to_dense()
        ), f"{model}/{granularity} tensor {name} diverged on the {tier} tier"


@pytest.mark.parametrize("model", sorted(POINTS))
def test_columnar_tier_forced_matches(model, force_tier):
    """The columnar emission tier is bit-exact on its own.

    gpt3's blocked payloads exercise the per-node ``objs`` escape hatch
    on the same path.
    """
    force_tier("columnar")
    _assert_forced_tier_matches(model, "partial", "columnar", "columnar")


@pytest.mark.parametrize("granularity", ("unfused", "partial", "full"))
@pytest.mark.parametrize("model", sorted(POINTS))
def test_token_tier_forced_matches(model, granularity, force_tier):
    """The token tier — unrolled ``process`` calls — against ``interp``."""
    force_tier("token")
    _assert_forced_tier_matches(model, granularity, "token", "interp")


@pytest.mark.parametrize("tier", ("token", "columnar"))
@pytest.mark.parametrize("granularity", ("unfused", "partial", "full"))
@pytest.mark.parametrize("model", sorted(POINTS))
def test_disk_loaded_kernels_match_interp(
    model, granularity, tier, force_tier, tmp_path
):
    """Kernels a restarted process unmarshals are the kernels it compiled.

    A first session fills the directory (compile *and* run: the token
    tier of an unblocked region is first emitted at run time); with the
    in-memory caches dropped, a second one loads every kernel from disk —
    zero compiled — and must reproduce ``interp`` region by region:
    streams token for token, per-node statistics, output tensors, with
    stream checking on.
    """
    force_tier(tier)
    bundle = build_bundle(SweepPoint.make(model, model_args=POINTS[model]))
    schedule = bundle.schedule(granularity)
    clear_codegen_caches()
    Session(
        machine=RDA_MACHINE, backend="codegen", disk_cache=str(tmp_path)
    ).compile(bundle.program, schedule)(bundle.binding)
    clear_codegen_caches()
    session = Session(
        machine=RDA_MACHINE, backend="codegen", disk_cache=str(tmp_path)
    )
    exe, source = session.compile_detailed(bundle.program, schedule)
    assert source == "disk"
    bind_i = dict(bundle.binding)
    bind_g = dict(bundle.binding)
    for region in exe.regions:
        for orig, new_name, mode_order in region.transposes:
            for bind in (bind_i, bind_g):
                if new_name not in bind:
                    bind[new_name] = bind[orig].permuted_copy(
                        mode_order, name=new_name
                    )
        graph = region.graph
        where = f"{model}/{granularity}/{tier}/{graph.name}"
        interp = run_functional(
            graph, bind_i, backend="interp", debug_streams=True, cache=False
        )
        codegen = run_functional(
            graph, bind_g, backend="codegen", debug_streams=True, cache=False
        )
        artifacts = cached_artifacts(graph)
        assert {t for t, a in artifacts.items() if a.runs} == {tier}, where
        assert {a.origin for a in artifacts.values()} <= {"disk", "memory"}
        assert set(codegen.streams) == set(interp.streams), where
        for key in interp.streams:
            assert streams_equal(
                codegen.streams[key], interp.streams[key]
            ), f"{where} stream {key} diverged"
        assert codegen.stats == interp.stats, where
        for name, tensor in interp.results.items():
            assert np.array_equal(
                tensor.to_dense(), codegen.results[name].to_dense()
            ), f"{where} result {name} diverged"
        bind_i.update(interp.results)
        bind_g.update(codegen.results)
    info = codegen_cache_info()
    assert info["code_disk_hits"] == info["code_misses"] > 0
    assert info["code_disk_writes"] == 0


def test_shared_kernels_match_every_backend():
    """Layers that share one code object still compute their own results.

    gpt3's decoder blocks emit identical (name-free) source, so all but
    the first layer run kernels compiled for another region, told apart
    only by the names bound into their exec globals.  Outputs and metrics
    must stay bit-exact against both interpreters with stream checking on.
    """
    args = dict(POINTS["gpt3"], n_layers=2)
    bundle = build_bundle(SweepPoint.make("gpt3", model_args=args))
    clear_codegen_caches()
    res = {}
    for backend in ("interp", "columnar", "codegen"):
        sess = Session(
            machine=RDA_MACHINE,
            backend=backend,
            sim_cache=False,
            debug_streams=True,
        )
        exe = sess.compile(bundle.program, bundle.schedule("unfused"))
        res[backend] = exe(bundle.binding)
    shas = [region.codegen_sha for region in exe.diagnostics.regions]
    assert len(set(shas)) * 3 <= len(shas)
    assert codegen_cache_info()["code_hits"] * 2 >= len(shas)
    codegen = res["codegen"]
    for backend in ("interp", "columnar"):
        want = res[backend]
        assert codegen.metrics.flops == want.metrics.flops
        assert codegen.metrics.tokens == want.metrics.tokens
        assert codegen.metrics.traffic_by_level() == (
            want.metrics.traffic_by_level()
        )
        assert codegen.metrics.cycles == pytest.approx(
            want.metrics.cycles, rel=1e-9
        )
        assert set(codegen.tensors) == set(want.tensors)
        for name, tensor in want.tensors.items():
            assert np.array_equal(
                tensor.to_dense(), codegen.tensors[name].to_dense()
            ), f"tensor {name} diverged from the {backend} backend"


# The cases above run under the default tier decision; run them once more
# with every region forced onto the token tier, so a regression there
# cannot hide behind the decision.  (Separate tests rather than a
# parametrized fixture, which would rename every case above.)


@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_streams_stats_and_timing_match_on_token_tier(
    model, granularity, hierarchy, force_tier
):
    force_tier("token")
    test_streams_stats_and_timing_match(model, granularity, hierarchy)


@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("model", sorted(POINTS))
def test_end_to_end_metrics_and_traffic_match_on_token_tier(
    model, hierarchy, force_tier
):
    force_tier("token")
    test_end_to_end_metrics_and_traffic_match(model, hierarchy)


def test_shared_kernels_match_every_backend_on_token_tier(force_tier):
    force_tier("token")
    test_shared_kernels_match_every_backend()


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
    """Random single-region graphs round-trip bit-exactly through codegen."""
    exe, binding = _single_region_graphs(kind, density, unary, seed)
    assert len(exe.regions) == 1
    graph = exe.regions[0].graph
    columnar = run_functional(
        graph, binding, RDA_MACHINE.scratchpad_bytes, backend="columnar",
        cache=False,
    )
    codegen = run_functional(
        graph, binding, RDA_MACHINE.scratchpad_bytes, backend="codegen",
        cache=False,
    )
    assert set(columnar.streams) == set(codegen.streams)
    for key in columnar.streams:
        assert streams_equal(codegen.streams[key], columnar.streams[key]), key
    for node_id, want in columnar.stats.items():
        have = codegen.stats[node_id]
        for fieldname in STAT_FIELDS:
            assert getattr(have, fieldname) == getattr(want, fieldname), (
                f"{node_id}.{fieldname}"
            )
    for name, tensor in columnar.results.items():
        assert np.array_equal(
            tensor.to_dense(), codegen.results[name].to_dense()
        ), name
