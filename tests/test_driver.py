"""Driver API tests: Session cache, pass pipeline, diagnostics, executables."""

import os
import sys
import threading

import numpy as np
import pytest

from repro import (
    Session,
    fully_fused,
    fused_groups,
    parse_program,
    unfused,
)
from repro.cli import main as cli_main
from repro.comal import FPGA_MACHINE
from repro.core.heuristic.model import stats_from_binding
from repro.core.schedule.autotune import autotune
from repro.core.tables.lower import LoweringError, RegionLowerer
from repro.driver import DEFAULT_PASS_ORDER, PassPipeline, PipelineError
from repro.frontend.api import ModelBuilder
from repro.ftree import SparseTensor, csr, dense
from repro.models.gcn import gcn_on_synthetic

GCN_LAYER = """
tensor A(12, 12): csr
tensor X(12, 6): dense
tensor W(6, 4): dense
tensor b(4): dense
T0(i, f) = A(i, k) * X(k, f)
T1(i, h) = T0(i, f2) * W(f2, h)
T2(i, h) = T1(i, h) + b(h)
Y(i, h) = relu(T2(i, h))
"""

# A transposed-view region (B used as both B and B^T cycles the POG) whose
# fused index space admits two valid dataflow orders, both lowerable.
TRANSPOSED_VIEW = """
tensor B(5, 5): csr
tensor X(5, 3): dense
Z(i, j) = B(i, j) * B(j, i)
O(i, f) = Z(i, j2) * X(j2, f)
"""


@pytest.fixture
def gcn_layer():
    rng = np.random.default_rng(0)
    adj = (rng.random((12, 12)) < 0.25) * rng.random((12, 12))
    x = rng.random((12, 6))
    w = rng.random((6, 4))
    b = rng.random(4)
    prog = parse_program(GCN_LAYER)
    binding = {
        "A": SparseTensor.from_dense(adj, csr(), "A"),
        "X": SparseTensor.from_dense(x, dense(2), "X"),
        "W": SparseTensor.from_dense(w, dense(2), "W"),
        "b": SparseTensor.from_dense(b, dense(1), "b"),
    }
    expected = np.maximum(adj @ x @ w + b, 0.0)
    return prog, binding, expected


@pytest.fixture
def transposed_view():
    rng = np.random.default_rng(1)
    b = (rng.random((5, 5)) < 0.5) * rng.random((5, 5))
    x = rng.random((5, 3))
    prog = parse_program(TRANSPOSED_VIEW)
    binding = {
        "B": SparseTensor.from_dense(b, csr(), "B"),
        "X": SparseTensor.from_dense(x, dense(2), "X"),
    }
    expected = (b * b.T) @ x
    return prog, binding, expected


class TestFingerprints:
    def test_program_fingerprint_stable_across_rebuilds(self):
        assert (
            parse_program(GCN_LAYER).fingerprint()
            == parse_program(GCN_LAYER).fingerprint()
        )

    def test_program_fingerprint_sees_formats(self):
        dense_a = GCN_LAYER.replace("A(12, 12): csr", "A(12, 12): dense")
        assert (
            parse_program(GCN_LAYER).fingerprint()
            != parse_program(dense_a).fingerprint()
        )

    def test_schedule_fingerprint_sees_mutation(self, gcn_layer):
        prog, _, _ = gcn_layer
        schedule = unfused(prog)
        before = schedule.fingerprint()
        schedule.par["i"] = 2
        assert schedule.fingerprint() != before
        schedule.par.clear()
        assert schedule.fingerprint() == before

    def test_pipeline_fingerprint_sees_config(self):
        """The flow's one configuration is the hierarchy it places in."""
        flat = PassPipeline.default().fingerprint()
        assert PassPipeline("fpga-small").fingerprint() != flat
        assert PassPipeline("fpga-small@1024").fingerprint() != (
            PassPipeline("fpga-small").fingerprint()
        )
        # No usable on-chip level places exactly like flat, and keys so.
        assert PassPipeline("fpga-small@0").fingerprint() == flat

    def test_cache_key_pins(self, gcn_layer):
        """Literal keys read before the flow was fixed: compile-cache and
        disk keys (and warm cache directories) stay valid."""
        prog, _, _ = gcn_layer
        schedule = fully_fused(prog)
        assert Session().cache_key(prog, schedule)[2][:16] == "1c9a8456a956a06f"
        small = Session(hierarchy="fpga-small", backend="columnar").cache_key(
            prog, schedule
        )
        assert small[2][:16] == "11f2cbca2c875711"
        # Where the backend name used to be: a constant, for every name.
        assert small[3] == "codegen"


#: Golden configurations (tests/test_golden_traces.py).
GOLDEN_POINTS = {
    "gcn": {"nodes": 30, "density": 0.1, "seed": 0},
    "graphsage": {"nodes": 30, "density": 0.1, "seed": 0},
    "sae": {"nodes": 16, "seed": 0},
    "gpt3": {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1, "seed": 0},
}


class TestKeyCompleteness:
    """Every ``Session`` option either reaches the compile keys or
    provably leaves every output unchanged.

    ``KEYED`` options change ``cache_key()`` or the disk cache's
    ``entry_key`` (which adds the hierarchy).  Flipping an ``INERT``
    option leaves both keys alone, and the flipped session's executable,
    timed on the base session's machine, returns equal metrics and equal
    result tensors on the four golden models.  A new option fails
    :meth:`test_every_option_is_classified` until it joins one of them.
    """

    KEYED = {"hierarchy": "fpga-small"}
    INERT = (
        "machine",
        "pipeline",
        "cache_size",
        "debug_streams",
        "sim_cache",
        "backend",
        "disk_cache",
    )

    @staticmethod
    def _flips(tmp_path):
        from repro.comal.functional import default_debug_streams

        return {
            "machine": FPGA_MACHINE,
            "pipeline": "ignored",
            "cache_size": 1,
            "debug_streams": not default_debug_streams(),
            "sim_cache": False,
            "backend": "interp",
            "disk_cache": str(tmp_path),
        }

    @staticmethod
    def _keys(session, program, schedule):
        key = session.cache_key(program, schedule)
        return key, session._disk_key(key)

    def test_every_option_is_classified(self):
        import inspect

        options = set(inspect.signature(Session).parameters)
        assert options == set(self.KEYED) | set(self.INERT)

    def test_keyed_options_change_a_key(self, gcn_layer):
        prog, _, _ = gcn_layer
        schedule = fully_fused(prog)
        base = self._keys(Session(), prog, schedule)
        for name, value in self.KEYED.items():
            flipped = self._keys(Session(**{name: value}), prog, schedule)
            assert flipped[0] != base[0] or flipped[1] != base[1], name

    @pytest.mark.parametrize("model", sorted(GOLDEN_POINTS))
    def test_inert_options_leave_keys_and_outputs_unchanged(self, model, tmp_path):
        from repro.sweep import SweepPoint, build_bundle

        bundle = build_bundle(SweepPoint.make(model, model_args=GOLDEN_POINTS[model]))
        schedule = bundle.schedule("partial")
        base_session = Session(disk_cache=False)
        keys = self._keys(base_session, bundle.program, schedule)
        want = base_session.compile(bundle.program, schedule)(bundle.binding)
        # The disk_cache flip is then served the entry from disk.
        Session(disk_cache=str(tmp_path)).compile(bundle.program, schedule)
        for name, value in self._flips(tmp_path).items():
            session = Session(**{name: value})
            assert self._keys(session, bundle.program, schedule) == keys, name
            exe = session.compile(bundle.program, schedule)
            have = exe(bundle.binding, machine=base_session.machine)
            assert have.metrics == want.metrics, name
            assert set(have.tensors) == set(want.tensors), name
            for tensor, result in want.tensors.items():
                assert np.array_equal(
                    result.to_dense(), have.tensors[tensor].to_dense()
                ), (name, tensor)


class TestSessionCache:
    def test_identical_compile_returns_cached_executable(self, gcn_layer):
        prog, _, _ = gcn_layer
        session = Session()
        exe1 = session.compile(prog, fully_fused(prog))
        exe2 = session.compile(prog, fully_fused(prog))
        assert exe1 is exe2
        info = session.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.entries == 1

    def test_mutated_schedule_misses(self, gcn_layer):
        prog, _, _ = gcn_layer
        session = Session()
        schedule = unfused(prog)
        exe1 = session.compile(prog, schedule)
        schedule.par["i"] = 2
        exe2 = session.compile(prog, schedule)
        assert exe1 is not exe2
        assert session.cache_info().hits == 0
        assert session.cache_info().misses == 2

    def test_distinct_schedules_distinct_entries(self, gcn_layer):
        prog, _, _ = gcn_layer
        session = Session()
        session.compile(prog, unfused(prog))
        session.compile(prog, fully_fused(prog))
        session.compile(prog, fused_groups(prog, [[0, 1], [2, 3]]))
        assert session.cache_info().entries == 3

    def test_lru_eviction(self, gcn_layer):
        prog, _, _ = gcn_layer
        session = Session(cache_size=1)
        exe1 = session.compile(prog, unfused(prog))
        session.compile(prog, fully_fused(prog))  # evicts the unfused entry
        assert session.compile(prog, unfused(prog)) is not exe1
        assert session.cache_info().entries == 1

    def test_clear_cache(self, gcn_layer):
        prog, _, _ = gcn_layer
        session = Session()
        session.compile(prog, unfused(prog))
        session.clear_cache()
        info = session.cache_info()
        assert info.entries == 0 and info.misses == 0

    def test_run_and_compare_schedules_share_cache(self, gcn_layer):
        prog, binding, expected = gcn_layer
        session = Session()
        result = session.run(prog, binding, fully_fused(prog))
        np.testing.assert_allclose(
            result.tensors["Y"].to_dense(), expected, atol=1e-12
        )
        results = session.compare_schedules(
            prog, binding, [unfused(prog), fully_fused(prog)]
        )
        assert set(results) == {"unfused", "fully-fused"}
        # The fully-fused compile was served from cache.
        assert session.cache_info().hits == 1


class TestPassPipeline:
    def test_default_order(self):
        assert tuple(PassPipeline.default().names()) == DEFAULT_PASS_ORDER

    def test_without_pass_still_compiles_correctly(self, gcn_layer):
        """The fold-masks ablation is the schedule's ``fold_masks``."""
        prog, binding, expected = gcn_layer
        schedule = fully_fused(prog)
        schedule.fold_masks = False
        exe = Session().compile(prog, schedule)
        skipped = exe.diagnostics.regions[0].skipped_passes
        assert skipped["fold-masks"] == "disabled by schedule"
        np.testing.assert_allclose(
            exe(binding).tensors["Y"].to_dense(), expected, atol=1e-12
        )

    def test_misordered_pipeline_raises(self):
        with pytest.raises(PipelineError, match="fixed"):
            PassPipeline.from_names(
                ["parallelize", "fuse-regions", "fold-masks",
                 "merge-contractions", "split-indices", "lower-region",
                 "place-memory"]
            )

    def test_missing_producer_raises(self):
        with pytest.raises(PipelineError, match="fixed"):
            PassPipeline.from_names(DEFAULT_PASS_ORDER[1:])

    def test_unknown_names_rejected(self):
        with pytest.raises(PipelineError, match=r"fixed.*'unknown'"):
            PassPipeline.from_names(["fuse-regions", "unknown"])

    def test_duplicate_passes_rejected(self):
        with pytest.raises(PipelineError, match="fixed"):
            PassPipeline.from_names([*DEFAULT_PASS_ORDER, "lower-region"])

    def test_pipeline_argument_is_ignored(self, gcn_layer):
        """``Session(pipeline=)`` stays accepted for existing callers; the
        flow always follows the session's hierarchy."""
        prog, _, _ = gcn_layer
        session = Session(pipeline=PassPipeline.default(), hierarchy="fpga-small")
        assert session.pipeline.hierarchy.name == "fpga-small"
        assert session.cache_key(prog, unfused(prog)) == Session(
            hierarchy="fpga-small"
        ).cache_key(prog, unfused(prog))


class TestDiagnostics:
    def test_pass_timings_recorded(self, gcn_layer):
        prog, _, _ = gcn_layer
        exe = Session().compile(prog, fully_fused(prog))
        diag = exe.diagnostics
        assert diag.pass_names == list(DEFAULT_PASS_ORDER)
        assert set(diag.pass_seconds) == set(DEFAULT_PASS_ORDER)
        assert all(seconds >= 0.0 for seconds in diag.pass_seconds.values())
        assert diag.compile_seconds > 0.0

    def test_region_stats(self, gcn_layer):
        prog, _, _ = gcn_layer
        exe = Session().compile(prog, fused_groups(prog, [[0, 1], [2, 3]]))
        assert len(exe.diagnostics.regions) == 2
        for region, sids in zip(exe.diagnostics.regions, [[0, 1], [2, 3]]):
            assert region.sids == sids
            assert region.statements == 2
            assert region.node_count > 0
            assert region.order_attempts == 1
            assert len(region.orders_tried) == 1

    def test_skipped_passes_recorded(self, gcn_layer):
        prog, _, _ = gcn_layer
        exe = Session().compile(prog, fully_fused(prog))
        region = exe.diagnostics.regions[0]
        assert "merge-contractions" in region.skipped_passes
        assert "parallelize" in region.skipped_passes
        assert "merge-contractions" in exe.diagnostics.skipped()

    def test_transposed_view_region_surfaces_order_stats(self, transposed_view):
        prog, binding, expected = transposed_view
        exe = Session().compile(prog, fully_fused(prog))
        region = exe.diagnostics.regions[0]
        assert region.transposed_views == 1
        assert region.order_attempts == 1
        assert region.orders_tried == [tuple(exe.regions[0].order)]
        assert exe.diagnostics.order_fallbacks() == 0
        np.testing.assert_allclose(
            exe(binding).tensors["O"].to_dense(), expected, atol=1e-12
        )

    def test_order_fallback_count_surfaces(self, transposed_view, monkeypatch):
        """When the first dataflow order is stream-incompatible, the lowerer
        walks to the next valid order and the fallback count lands in the
        diagnostics (the seed swallowed this silently).  Only the lowering
        is exercised here: the region's alternate order hits a pre-existing
        simulator limitation, which is independent of the fallback logic."""
        prog, _, _ = transposed_view
        original = RegionLowerer.lower
        calls = {"n": 0}

        def first_order_fails(self):
            calls["n"] += 1
            if calls["n"] == 1:
                raise LoweringError("injected: first order is stream-incompatible")
            return original(self)

        monkeypatch.setattr(RegionLowerer, "lower", first_order_fails)
        exe = Session().compile(prog, fully_fused(prog))
        region = exe.diagnostics.regions[0]
        assert region.transposed_views == 1
        assert region.order_attempts == 2
        assert region.order_fallbacks == 1
        assert len(region.orders_tried) == 2
        assert exe.diagnostics.order_fallbacks() == 1
        assert "order attempt" in exe.diagnostics.describe()

    def test_order_fallback_recovers_end_to_end(self, monkeypatch):
        """A CSC SpMM region admits two lowerable orders; failing the first
        must fall back to the second and still simulate correctly."""
        prog = parse_program(
            "tensor A(6, 6): csc\ntensor X(6, 4): dense\n"
            "T(i, j) = A(i, k) * X(k, j)"
        )
        rng = np.random.default_rng(0)
        a = (rng.random((6, 6)) < 0.4) * rng.random((6, 6))
        x = rng.random((6, 4))
        from repro.ftree import csc

        binding = {
            "A": SparseTensor.from_dense(a, csc(), "A"),
            "X": SparseTensor.from_dense(x, dense(2), "X"),
        }
        original = RegionLowerer.lower
        calls = {"n": 0}

        def first_order_fails(self):
            calls["n"] += 1
            if calls["n"] == 1:
                raise LoweringError("injected: first order is stream-incompatible")
            return original(self)

        monkeypatch.setattr(RegionLowerer, "lower", first_order_fails)
        exe = Session().compile(prog, fully_fused(prog))
        assert exe.diagnostics.order_fallbacks() == 1
        np.testing.assert_allclose(
            exe(binding).tensors["T"].to_dense(), a @ x, atol=1e-12
        )

    def test_pinned_order_never_falls_back(self, gcn_layer):
        prog, _, _ = gcn_layer
        schedule = fully_fused(prog)
        exe = Session().compile(prog, schedule)
        pinned = list(exe.regions[0].order)
        schedule = fully_fused(prog)
        schedule.orders[0] = pinned
        exe2 = Session().compile(prog, schedule)
        assert exe2.diagnostics.regions[0].pinned_order

    def test_describe_text(self, gcn_layer):
        prog, _, _ = gcn_layer
        exe = Session().compile(prog, fully_fused(prog))
        text = exe.diagnostics.describe()
        assert "lower-region" in text and "order attempt" in text


class TestExecutable:
    def test_call_and_kwargs_agree(self, gcn_layer):
        prog, binding, expected = gcn_layer
        exe = Session().compile(prog, fully_fused(prog))
        by_binding = exe(binding)
        by_kwargs = exe.run(**binding)
        np.testing.assert_allclose(
            by_binding.tensors["Y"].to_dense(), expected, atol=1e-12
        )
        np.testing.assert_allclose(
            by_kwargs.tensors["Y"].to_dense(),
            by_binding.tensors["Y"].to_dense(),
            atol=0,
        )

    def test_machine_override(self, gcn_layer):
        prog, binding, _ = gcn_layer
        exe = Session().compile(prog, unfused(prog))
        assert exe(binding).metrics.cycles != exe(
            binding, machine=FPGA_MACHINE
        ).metrics.cycles

    def test_describe_and_fingerprint(self, gcn_layer):
        prog, _, _ = gcn_layer
        session = Session()
        schedule = fully_fused(prog)
        exe = session.compile(prog, schedule)
        assert "region" in exe.describe() and "pass" in exe.describe()
        assert exe.fingerprint == session.cache_key(prog, schedule)

    def test_infeasible_schedule_still_raises(self):
        prog = parse_program(
            """
tensor B(5, 5): csr
tensor C(5, 5): csr
E(i, j) = B(i, k) * C(k, j)
F(i, l) = E(i, j2) * B(l, j2)
"""
        )
        with pytest.raises(LoweringError, match="materialize"):
            Session().compile(prog, fully_fused(prog))


def _fresh(binding, name):
    """``binding`` with tensor ``name`` rebuilt as a new object."""
    tensor = binding[name]
    rebuilt = SparseTensor.from_dense(tensor.to_dense(), tensor.fmt, name)
    return {**binding, name: rebuilt}


class TestSimulationMemo:
    """The one simulator memo, kept per executable."""

    def test_identical_binding_hits_memo(self, gcn_layer):
        prog, binding, _ = gcn_layer
        exe = Session().compile(prog, unfused(prog))
        assert exe(binding) is exe(dict(binding))

    def test_cache_off_recomputes(self, gcn_layer):
        prog, binding, _ = gcn_layer
        exe = Session(sim_cache=False).compile(prog, unfused(prog))
        first, second = exe(binding), exe(binding)
        assert second is not first
        assert second.metrics == first.metrics
        assert not exe._memo

    def test_different_tensors_miss(self, gcn_layer):
        prog, binding, _ = gcn_layer
        exe = Session().compile(prog, unfused(prog))
        first = exe(binding)
        second = exe(_fresh(binding, "W"))
        assert second is not first
        assert second.metrics == first.metrics

    def test_machine_override_gets_its_own_entry(self, gcn_layer):
        prog, binding, _ = gcn_layer
        exe = Session().compile(prog, unfused(prog))
        rda = exe(binding)
        fpga = exe(binding, machine=FPGA_MACHINE)
        assert fpga is not rda
        assert len(exe._memo) == 2
        assert exe(binding, machine=FPGA_MACHINE) is fpga
        assert exe(binding) is rda

    def test_memo_holds_at_most_four_entries(self, gcn_layer):
        prog, binding, _ = gcn_layer
        exe = Session().compile(prog, unfused(prog))
        for _ in range(7):
            bind = _fresh(binding, "X")
            exe(bind)
            assert len(exe._memo) <= 4
        assert len(exe._memo) == 4
        # The newest binding is still a hit.
        assert exe(bind) is exe(bind)

    def test_concurrent_calls_keep_the_memo_bounded(self, gcn_layer):
        """More threads than cores fill one executable's memo at once."""
        prog, binding, _ = gcn_layer
        exe = Session().compile(prog, unfused(prog))
        bindings = [_fresh(binding, "A") for _ in range(6)]
        count = min(16, (os.cpu_count() or 2) + 2)
        start = threading.Barrier(count)
        errors = []

        def hammer(offset):
            try:
                start.wait(timeout=60)
                for i in range(40):
                    assert exe(bindings[(offset + i) % 6]).metrics.tokens > 0
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(exe._memo) <= 4

    def test_hit_does_no_per_region_work(self, gcn_layer, monkeypatch):
        import repro.driver.compiled as compiled

        prog, binding, _ = gcn_layer
        exe = Session().compile(prog, unfused(prog))
        first = exe(binding)

        def boom(*args, **kwargs):
            raise AssertionError("a memo hit ran a region")

        monkeypatch.setattr(compiled, "run_functional", boom)
        monkeypatch.setattr(compiled, "run_timed", boom)
        assert exe(binding) is first
        with pytest.raises(AssertionError, match="memo hit ran a region"):
            exe(_fresh(binding, "b"))

    @pytest.mark.parametrize("debug", [False, True])
    def test_entry_keeps_streams_only_under_debug_streams(self, gcn_layer, debug):
        prog, binding, _ = gcn_layer
        exe = Session(debug_streams=debug).compile(prog, unfused(prog))
        result = exe(binding)
        (entry,) = exe._memo.values()
        assert entry[0] is result
        for region in result.region_results:
            func = region.functional
            assert func.stats and func.order and func.results
            assert bool(func.streams) == debug
            assert func.lengths == {}

    def test_run_functional_always_executes(self, gcn_layer):
        from repro.comal.functional import run_functional

        prog, binding, _ = gcn_layer
        exe = Session().compile(prog, fully_fused(prog))
        graph = exe.regions[0].graph
        first = run_functional(graph, binding)
        second = run_functional(graph, binding)
        assert second is not first
        assert second.port_lengths() == first.port_lengths()
        assert not exe._memo


class TestAutotuneThroughSession:
    @pytest.fixture(scope="class")
    def bundle(self):
        return gcn_on_synthetic(nodes=30, density=0.1, seed=0)

    def test_winner_executable_served_from_cache(self, gcn_layer):
        prog, binding, _ = gcn_layer
        session = Session()
        stats = stats_from_binding(binding)
        tuned = autotune(prog, binding, stats, session=session, budget=3)
        assert tuned.executable is session.compile(prog, tuned.best)
        assert session.cache_info().hits >= 2

    def test_fewer_lowerings_than_seed_path(self, gcn_layer, monkeypatch):
        """Autotune + deploying the winner must not re-lower: the seed path
        (recompiling the winner from scratch) pays extra region lowerings
        that the session cache eliminates."""
        prog, binding, _ = gcn_layer
        original = RegionLowerer.lower
        lowerings = {"n": 0}

        def counted(self):
            lowerings["n"] += 1
            return original(self)

        monkeypatch.setattr(RegionLowerer, "lower", counted)
        stats = stats_from_binding(binding)
        session = Session()
        tuned = autotune(prog, binding, stats, session=session, budget=3)
        after_tune = lowerings["n"]
        assert after_tune > 0
        # Serving-style reuse of the winner: zero additional lowerings.
        exe = session.compile(prog, tuned.best)
        assert lowerings["n"] == after_tune
        result = exe(binding)
        assert result.metrics.cycles == pytest.approx(tuned.measured_cycles)
        # The seed path re-lowered the winner's regions from scratch.
        Session().compile(prog, tuned.best)
        assert lowerings["n"] > after_tune

    def test_explicit_machine_binds_winner(self, gcn_layer):
        """Tuning on a session built for another machine must yield a
        winner executable bound to the machine the tuning measured on, so
        tuned.executable(binding) reproduces measured_cycles."""
        prog, binding, _ = gcn_layer
        stats = stats_from_binding(binding)
        tuned = autotune(
            prog, binding, stats,
            session=Session(machine=FPGA_MACHINE), budget=2,
        )
        assert tuned.executable.machine is FPGA_MACHINE
        assert tuned.executable(binding).metrics.cycles == pytest.approx(
            tuned.measured_cycles
        )

    def test_matches_seed_autotune_behavior(self, bundle):
        stats = stats_from_binding(bundle.binding)
        session = Session()
        tuned = autotune(
            bundle.program,
            bundle.binding,
            stats,
            candidates=bundle.schedules(),
            budget=3,
            session=session,
        )
        cycles = {
            s.name: session.run(bundle.program, bundle.binding, s).metrics.cycles
            for s in bundle.schedules()
        }
        assert tuned.best.name == min(cycles, key=cycles.get)
        # Every re-run above was a cache hit on the autotuner's compiles.
        assert session.cache_info().hits >= 3


class TestFrontendSessionAPI:
    def test_model_builder_compile(self):
        builder = ModelBuilder("tiny")
        rng = np.random.default_rng(0)
        a = rng.random((6, 4))
        b = rng.random((4, 3))
        x = builder.input("A", a)
        y = builder.input("B", b)
        builder.matmul(x, y)
        session = Session()
        exe = builder.compile(session=session)
        result = exe(builder.binding)
        out = result.tensors[builder.program.outputs()[0]].to_dense()
        np.testing.assert_allclose(out, a @ b, atol=1e-12)
        assert builder.compile(session=session) is exe

    def test_model_bundle_executable(self):
        bundle = gcn_on_synthetic(nodes=20, density=0.2, seed=0)
        session = Session()
        exe = bundle.executable("full", session=session)
        out = exe(bundle.binding).tensors[bundle.output].to_dense()
        assert np.abs(out - bundle.reference).max() < 1e-6
        assert bundle.executable("full", session=session) is exe


class TestCLI:
    def test_autotune_subcommand(self, capsys):
        code = cli_main(
            ["tune", "--model", "sae", "--nodes", "12", "--strategy",
             "exhaustive", "--budget", "3", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "winner" in out
        assert "cache" in out and "hit" in out

    def test_compile_diagnostics_flag(self, capsys):
        code = cli_main(
            ["compile", "--model", "gcn", "--nodes", "24", "--fusion",
             "partial", "--diagnostics"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fuse-regions" in out and "lower-region" in out
