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

    def test_runs_share_cache(self, gcn_layer):
        prog, binding, expected = gcn_layer
        session = Session()
        result = session.run(prog, binding, fully_fused(prog))
        np.testing.assert_allclose(
            result.tensors["Y"].to_dense(), expected, atol=1e-12
        )
        results = {
            s.name: session.run(prog, binding, s)
            for s in (unfused(prog), fully_fused(prog))
        }
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


    def test_debug_streams_catches_a_pinned_tensor_mutated_in_place(self, gcn_layer):
        prog, binding, _ = gcn_layer
        exe = Session(debug_streams=True).compile(prog, unfused(prog))
        first = exe(binding)
        assert exe(binding) is first
        binding["W"].values[0] += 1.0
        with pytest.raises(RuntimeError, match="'W' was mutated in place"):
            exe(binding)
        # A new tensor with the new content is a plain miss.
        assert exe(_fresh(binding, "W")) is not first

    def test_mutation_check_costs_nothing_without_debug_streams(self, gcn_layer):
        prog, binding, _ = gcn_layer
        exe = Session(debug_streams=False).compile(prog, unfused(prog))
        exe(binding)
        (entry,) = exe._memo.values()
        assert entry[3] is None


class TestSharedLowering:
    """The compile flow's region store: each region lowered once per
    lowering context, served to every compile (any schedule, machine or
    hierarchy) that gives the region that context."""

    @staticmethod
    def _shared(store, **options):
        session = Session(**options)
        session.pipeline.store = store
        return session

    @staticmethod
    def _untimed(text):
        import re

        return re.sub(r" +[\d.]+ ms", " ms", text)

    def _assert_equal_compiles(self, have, want):
        assert self._untimed(have.describe()) == self._untimed(want.describe())
        assert have.compiled.signature == want.compiled.signature
        assert have.diagnostics.regions == want.diagnostics.regions
        assert self._untimed(have.diagnostics.describe()) == self._untimed(
            want.diagnostics.describe()
        )
        for a, b in zip(have.regions, want.regions, strict=True):
            assert a.fused.name == b.fused.name
            assert a.table_text == b.table_text
            assert a.order == b.order
            assert a.placement == b.placement
            assert a.graph.describe() == b.graph.describe()

    def test_a_session_on_its_own_lowers_every_compile(self, gcn_layer):
        prog, _, _ = gcn_layer
        schedule = unfused(prog)
        sessions = [Session(), Session()]
        assert sessions[0].pipeline.store is not sessions[1].pipeline.store
        for session in sessions:
            session.compile(prog, schedule)
            store = session.pipeline.store
            assert (store.lowered, store.hits) == (len(schedule.regions), 0)

    def test_schedule_knobs_change_the_key(self, gcn_layer):
        from dataclasses import replace

        from repro.driver.pipeline import RegionStore

        prog, _, _ = gcn_layer
        base = fused_groups(prog, [[0, 1], [2, 3]], name="g")
        order = list(Session().compile(prog, base).regions[0].order)
        # Knob -> (new value, regions whose lowering context it changes).
        flips = {
            "orders": ({0: order}, 1),
            "stmt_orders": ({0: ("i", "k", "f")}, 1),
            "splits": ({"i": 2}, 2),
            "par": ({"i": 2}, 2),
            "fold_masks": (False, 2),
            "global_rewrite": (True, 2),
        }
        for name, (value, changed) in flips.items():
            store = RegionStore()
            self._shared(store).compile(prog, base)
            self._shared(store).compile(prog, replace(base, **{name: value}))
            assert (store.lowered, store.hits) == (2 + changed, 2 - changed), name

    def test_region_key_covers_the_lowering_context(self, gcn_layer):
        from dataclasses import replace

        from repro.comal.hierarchy import resolve_hierarchy
        from repro.core.fusion.fuse import front_end_skips
        from repro.driver.passes import PassContext
        from repro.driver.pipeline import RegionStore

        prog, _, _ = gcn_layer
        base = fused_groups(prog, [[0, 1], [2, 3]], name="g")
        decls = Session().compile(prog, base).compiled.decls
        table = RegionStore().table(prog, prog.fingerprint())

        def key(schedule, position=1, hierarchy="flat", **changed):
            ctx = PassContext(
                program=prog,
                schedule=schedule,
                uses=table.uses,
                hierarchy=resolve_hierarchy(hierarchy),
                decls={**decls, **changed},
            )
            sids = schedule.regions[position]
            return table.key(ctx, position, sids, front_end_skips(schedule, sids))

        t1 = decls["T1"]
        assert t1 is not prog.decls.get("T1"), "T1 is materialized by region 0"
        assert t1.fmt != csr()
        want = key(base)
        changes = {
            "sids": key(fused_groups(prog, [[0, 1], [2], [3]], name="g"), 1),
            "skips": key(replace(base, fold_masks=False)),
            "pinned order": key(replace(base, orders={1: ["i", "h"]})),
            "stmt_orders": key(replace(base, stmt_orders={2: ("h", "i")})),
            "splits": key(replace(base, splits={"i": 2})),
            "par": key(replace(base, par={"h": 2})),
            "materialized shape": key(base, T1=replace(t1, shape=(12, 5))),
            "materialized format": key(base, T1=replace(t1, fmt=csr())),
        }
        for field, changed in changes.items():
            assert changed != want, field
        assert len(set(changes.values())) == len(changes)
        # Neither the hierarchy nor the schedule's name is in the key; the
        # machine never reaches lowering.
        assert key(base, hierarchy="fpga-small") == want
        assert key(replace(base, name="renamed")) == want

    def test_materialized_operand_shape_and_format_change_the_key(self):
        from dataclasses import replace

        from repro.core.fusion.fuse import front_end_skips
        from repro.driver.passes import PassContext
        from repro.driver.pipeline import RegionStore
        from repro.ftree import dense

        prog = parse_program(
            """
tensor A(6, 4): dense
tensor B(4, 3): dense
T(i, j) = A(i, k) * B(k, j)
Y(i, j) = T(i, j) * T(i, j)
"""
        )
        schedule = unfused(prog)
        decls = Session().compile(prog, schedule).compiled.decls
        table = RegionStore().table(prog, prog.fingerprint())
        keys = set()
        for t in (decls["T"], replace(decls["T"], shape=(7, 3)),
                  replace(decls["T"], fmt=csr())):
            ctx = PassContext(
                program=prog, schedule=schedule, uses=table.uses, decls={**decls, "T": t}
            )
            keys.add(table.key(ctx, 1, [1], front_end_skips(schedule, [1])))
        assert len(keys) == 3
        assert decls["T"].fmt != csr() and decls["T"].fmt == dense(2)

    def test_machine_and_hierarchy_leave_the_key_alone(self, gcn_layer):
        from repro.comal import RDA_MACHINE
        from repro.driver.pipeline import RegionStore

        prog, _, _ = gcn_layer
        store = RegionStore()
        for machine in (RDA_MACHINE, FPGA_MACHINE):
            for hierarchy in ("flat", "fpga-small"):
                session = self._shared(store, machine=machine, hierarchy=hierarchy)
                session.compile(prog, unfused(prog))
        regions = len(prog.statements)
        assert (store.lowered, store.hits) == (regions, 3 * regions)

    def test_another_compile_replaces_the_record(self, gcn_layer):
        from repro.driver.pipeline import RegionStore

        prog, binding, _ = gcn_layer
        other = parse_program(GCN_LAYER.replace("relu", "sigmoid"))
        store = RegionStore()
        regions = len(prog.statements)
        for hierarchy, program in zip(("flat", "fpga-small", "flat"), (prog, other, prog)):
            exe = self._shared(store, hierarchy=hierarchy).compile(program, unfused(program))
            want = Session(hierarchy=hierarchy).compile(program, unfused(program))
            assert exe(binding).metrics == want(binding).metrics
            assert store._table.fingerprint == program.fingerprint()
        # Each program change started a fresh table: nothing was served.
        assert (store.lowered, store.hits) == (3 * regions, 0)

    @pytest.mark.parametrize("model", sorted(GOLDEN_POINTS))
    def test_hit_equals_a_fresh_compile(self, model):
        from dataclasses import replace

        from repro.driver.pipeline import RegionStore
        from repro.sweep import SweepPoint, build_bundle

        bundle = build_bundle(SweepPoint.make(model, model_args=GOLDEN_POINTS[model]))
        store = RegionStore()
        for granularity in ("unfused", "partial", "full"):
            schedule = bundle.schedule(granularity)
            warm = self._shared(store, hierarchy="flat").compile(
                bundle.program, schedule
            )
            lowered = store.lowered
            # The same regions under another schedule's name.
            renamed = replace(schedule, name=f"{schedule.name}-again")
            hit = self._shared(store, hierarchy="fpga-small").compile(
                bundle.program, renamed
            )
            assert store.lowered == lowered, "the second compile lowered"
            fresh = Session(hierarchy="fpga-small").compile(bundle.program, renamed)
            self._assert_equal_compiles(hit, fresh)
            assert hit(bundle.binding).metrics == fresh(bundle.binding).metrics
            # The hit left the first compile's names and placement alone.
            flat = Session(hierarchy="flat").compile(bundle.program, schedule)
            self._assert_equal_compiles(warm, flat)

    def test_two_schedules_share_a_region_under_different_names(self, gcn_layer):
        from dataclasses import replace

        from repro.driver.pipeline import RegionStore

        prog, binding, _ = gcn_layer
        for rewrite in (False, True):
            store = RegionStore()
            first = replace(
                fused_groups(prog, [[0, 1], [2, 3]], name="first"),
                global_rewrite=rewrite,
            )
            second = replace(
                fused_groups(prog, [[0, 1], [2], [3]], name="second"),
                global_rewrite=rewrite,
            )
            self._shared(store).compile(prog, first)
            have = self._shared(store, hierarchy="fpga-small").compile(prog, second)
            # [0, 1] was served; [2] and [3] are new contexts.
            assert (store.lowered, store.hits) == (4, 1)
            want = Session(hierarchy="fpga-small").compile(prog, second)
            self._assert_equal_compiles(have, want)
            assert have.regions[0].graph.name.startswith("second-r0")
            assert have(binding).metrics == want(binding).metrics

    def test_cached_lowering_error_names_this_compiles_region(self):
        from repro.driver.pipeline import RegionStore

        prog = parse_program(
            """
tensor B(5, 5): csr
tensor C(5, 5): csr
E(i, j) = B(i, k) * C(k, j)
F(i, l) = E(i, j2) * B(l, j2)
"""
        )
        store = RegionStore()
        errors = []
        for hierarchy in ("flat", "fpga-small"):
            with pytest.raises(LoweringError, match="materialize") as caught:
                self._shared(store, hierarchy=hierarchy).compile(
                    prog, fully_fused(prog, name="whole")
                )
            errors.append(caught.value)
        assert (store.lowered, store.hits) == (1, 1)
        assert errors[1] is not errors[0]
        assert str(errors[1]) == str(errors[0])
        assert "region whole-r0" in str(errors[1])
        # Another schedule with the region replays its failure, named for
        # itself, without lowering it again.
        with pytest.raises(LoweringError, match="region other-r0") as caught:
            self._shared(store).compile(prog, fully_fused(prog, name="other"))
        assert "whole" not in str(caught.value)
        assert (store.lowered, store.hits) == (1, 2)

    def test_replayed_failure_places_the_regions_before_it(self, monkeypatch):
        import repro.driver.pipeline as pipeline
        from repro.driver.pipeline import RegionStore

        prog = parse_program(
            """
tensor B(5, 5): csr
tensor C(5, 5): csr
D(i, j) = B(i, j) * C(i, j)
E(i, j) = B(i, k) * C(k, j)
F(i, l) = E(i, j2) * B(l, j2)
"""
        )
        placed = []
        place_memory = pipeline.place_memory

        def counted(ctx, state):
            placed.append(state.name)
            place_memory(ctx, state)

        monkeypatch.setattr(pipeline, "place_memory", counted)
        store = RegionStore()
        for name in ("first", "second"):
            with pytest.raises(LoweringError) as caught:
                self._shared(store).compile(
                    prog, fused_groups(prog, [[0], [1, 2]], name=name)
                )
            assert str(caught.value).startswith(
                f"no valid dataflow order lowers region {name}-r1; "
            )
        assert placed == ["first-r0", "second-r0"]
        assert (store.lowered, store.hits) == (2, 2)
        fresh = Session()
        with pytest.raises(LoweringError) as caught:
            fresh.compile(prog, fused_groups(prog, [[0], [1, 2]], name="second"))
        assert str(caught.value).startswith(
            "no valid dataflow order lowers region second-r1; "
        )

    def test_concurrent_compiles_match_fresh_ones(self, gcn_layer):
        """Threads compile schedules of two programs through one store, with
        no lock: the table is taken once per compile and replaced whole,
        and a schedule's entries are published only when complete."""
        from repro.driver.pipeline import RegionStore

        prog, _, _ = gcn_layer
        other = parse_program(GCN_LAYER.replace("relu", "sigmoid"))
        jobs = [
            (program, schedule)
            for program in (prog, other)
            for schedule in (
                unfused(program),
                fully_fused(program),
                fused_groups(program, [[0, 1], [2, 3]], name="g"),
                fused_groups(program, [[0], [1, 2, 3]], name="h"),
            )
        ]

        def rendered(exe):
            return (
                self._untimed(exe.describe()),
                exe.compiled.signature,
                [r.table_text for r in exe.regions],
            )

        want = [rendered(Session().compile(p, s)) for p, s in jobs]
        store = RegionStore()
        failures = []

        done = []

        def work(offset):
            for step in range(3 * len(jobs)):
                index = (offset + step) % len(jobs)
                try:
                    exe = self._shared(store).compile(*jobs[index])
                except Exception as exc:
                    failures.append(f"{jobs[index][1].name}: {exc!r}")
                    continue
                if rendered(exe) != want[index]:
                    failures.append(jobs[index][1].name)
            done.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert sorted(done) == list(range(8))
        assert store.hits > 0

    def test_beam_search_lowers_each_context_once(self, monkeypatch):
        import repro.driver.pipeline as pipeline
        from repro.core.heuristic.model import stats_from_binding
        from repro.driver.pipeline import RegionStore, _ProgramTable
        from repro.sweep import SweepPoint, build_bundle

        bundle = build_bundle(
            SweepPoint.make(
                "gpt3",
                model_args=dict(seq_len=16, d_model=8, block=4, n_layers=1, seed=0),
            )
        )
        stats = stats_from_binding(bundle.binding)
        lowerings = []
        lower = pipeline._lower

        def counted(ctx, position, sids, name, skips, seconds):
            lowerings.append(tuple(sids))
            return lower(ctx, position, sids, name, skips, seconds)

        monkeypatch.setattr(pipeline, "_lower", counted)

        def search(session):
            return autotune(
                bundle.program, bundle.binding, stats, session=session,
                strategy="beam", budget=2, seed=0, model_name="gpt3",
            )

        session = Session()
        shared = search(session)
        store = session.pipeline.store
        assert len(lowerings) == store.lowered == len(store._table.regions)
        assert store.hits > store.lowered
        # The same search with a table per compile: the trace is unchanged.
        monkeypatch.setattr(
            RegionStore, "table", lambda self, program, fp: _ProgramTable(program, fp)
        )
        cold = search(Session())
        assert len(lowerings) > 2 * store.lowered
        assert cold.search_trace == shared.search_trace
        assert cold.measured_cycles == shared.measured_cycles
        assert cold.best.name == shared.best.name


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
        exe = session.compile(builder.program)
        result = exe(builder.binding)
        out = result.tensors[builder.program.outputs()[0]].to_dense()
        np.testing.assert_allclose(out, a @ b, atol=1e-12)
        assert session.compile(builder.program) is exe


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
