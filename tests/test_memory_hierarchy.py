"""Memory hierarchy tests: DRAM pacing edge cases, placement, spill/fill.

Covers the flat DRAM model's corner behaviors (contention serialization,
late arrivals, the global roofline), the HierarchySpec/preset registry,
the place-memory pass's compile-time decisions, and the per-level traffic
accounting the timed engine reports in SimResult.
"""

import numpy as np
import pytest

from repro.comal import (
    FLAT_HIERARCHY,
    HIERARCHIES,
    RDA_MACHINE,
    BufferLevel,
    HierarchySpec,
    engine,
    resolve_hierarchy,
    run_timed,
)
from repro.core.einsum.parser import parse_program
from repro.core.schedule.schedule import fully_fused, unfused
from repro.driver import PassPipeline, Session
from repro.ftree import SparseTensor, csr, dense
from repro.sweep import SweepPoint, SweepSpec, build_bundle, run_point


# ----------------------------------------------------------------------
# DRAM pacing edge cases
# ----------------------------------------------------------------------


class TestMemoryModelEdges:
    def test_contention_serializes_same_cycle_arrivals(self):
        """Two same-cycle tokens are served back to back, in order."""
        first, second = engine._paced_times([0.0, 0.0], 10.0, 5.0)
        assert first == 15.0  # 10 cycles service + latency
        assert second == 25.0  # waits for the port, then 10 + latency

    def test_late_arrival_does_not_wait(self):
        """A token arriving at an idle port is served as it arrives."""
        assert engine._paced_times([0.0, 100.0], 4.0, 0.0) == [4.0, 100.0]

    def test_roofline_cycles(self):
        """A starved DRAM port makes the global roofline the cycle count."""
        prog = parse_program(
            "tensor A(6, 6): csr\ntensor X(6, 4): dense\nT(i, j) = A(i, k) * X(k, j)"
        )
        exe = Session().compile(prog, fully_fused(prog))
        rng = np.random.default_rng(0)
        binding = {
            "A": SparseTensor.from_dense(
                (rng.random((6, 6)) < 0.4) * rng.random((6, 6)), csr(), "A"
            ),
            "X": SparseTensor.from_dense(rng.random((6, 4)), dense(2), "X"),
        }
        starved = RDA_MACHINE.scaled(dram_bandwidth=0.01, dram_latency=0.0)
        result = exe(binding, machine=starved).region_results[0]
        assert result.cycles == result.dram_bytes / 0.01


# ----------------------------------------------------------------------
# HierarchySpec / presets
# ----------------------------------------------------------------------


class TestHierarchySpec:
    def test_flat_has_no_sram(self):
        assert not FLAT_HIERARCHY.has_sram
        assert FLAT_HIERARCHY.config() == ("flat",)

    def test_presets_registered(self):
        for name in ("flat", "fpga-small", "fpga-large", "asic-small", "asic-large"):
            assert name in HIERARCHIES
        assert HIERARCHIES["fpga-small"].has_sram

    def test_resolve_accepts_spec_name_and_override(self):
        spec = HIERARCHIES["fpga-small"]
        assert resolve_hierarchy(spec) is spec
        assert resolve_hierarchy("fpga-small") is spec
        assert resolve_hierarchy(None) is FLAT_HIERARCHY
        scaled = resolve_hierarchy("fpga-small@4096")
        assert scaled.sram.capacity_bytes == 4096
        assert scaled.name == "fpga-small@4096"
        assert scaled.sram.banks == spec.sram.banks

    def test_resolve_rejects_unknown_and_malformed(self):
        with pytest.raises(ValueError, match="unknown hierarchy"):
            resolve_hierarchy("hbm3-gigantic")
        with pytest.raises(ValueError, match="not an integer"):
            resolve_hierarchy("fpga-small@lots")
        with pytest.raises(ValueError, match="flat"):
            resolve_hierarchy("flat@4096")

    def test_scaled_requires_sram(self):
        with pytest.raises(ValueError, match="no SRAM level"):
            FLAT_HIERARCHY.scaled(capacity_bytes=1)

    def test_buffer_level_validation(self):
        with pytest.raises(ValueError):
            BufferLevel(capacity_bytes=-1)
        with pytest.raises(ValueError):
            BufferLevel(capacity_bytes=1, banks=0)
        with pytest.raises(ValueError):
            BufferLevel(capacity_bytes=1, bandwidth=0.0)

    def test_bank_assignment_is_stable(self):
        level = BufferLevel(capacity_bytes=1024, banks=4)
        assert level.bank_of("T") == level.bank_of("T")
        assert 0 <= level.bank_of("anything") < 4

    def test_machine_with_hierarchy(self):
        machine = RDA_MACHINE.with_hierarchy("asic-small")
        assert machine.hierarchy.name == "asic-small"
        assert RDA_MACHINE.hierarchy is FLAT_HIERARCHY  # original untouched

    def test_with_hierarchy_aligns_scratchpad_budget(self):
        """One chip, one on-chip capacity: scratchpad == SRAM capacity."""
        machine = RDA_MACHINE.with_hierarchy("fpga-small")
        assert machine.scratchpad_bytes == 8 << 10
        # A flat hierarchy leaves the operand budget alone.
        assert (
            RDA_MACHINE.with_hierarchy("flat").scratchpad_bytes
            == RDA_MACHINE.scratchpad_bytes
        )

    def test_with_hierarchy_round_trips_to_flat_baseline(self):
        """SRAM -> flat un-pins the scratchpad: flat-vs-flat is identical."""
        pinned = RDA_MACHINE.with_hierarchy("fpga-small")
        back = pinned.with_hierarchy("flat")
        assert back.hierarchy is FLAT_HIERARCHY
        assert back.scratchpad_bytes == RDA_MACHINE.scratchpad_bytes


# ----------------------------------------------------------------------
# Placement + per-level accounting end to end
# ----------------------------------------------------------------------


PROGRAM_TEXT = """
tensor A(16, 16): csr
tensor B(16, 4): dense
T(i, j) = A(i, k) * B(k, j)
U(i, j) = relu(T(i, j))
"""


@pytest.fixture
def two_stage():
    prog = parse_program(PROGRAM_TEXT, name="two-stage")
    rng = np.random.default_rng(0)
    a = (rng.random((16, 16)) < 0.3) * rng.random((16, 16))
    b = rng.random((16, 4))
    binding = {
        "A": SparseTensor.from_dense(a, csr(), "A"),
        "B": SparseTensor.from_dense(b, dense(2), "B"),
    }
    reference = np.maximum(a @ b, 0.0)
    return prog, binding, reference


def _writer_nodes(graph):
    return [n for n in graph.nodes.values() if n.prim.kind == "write"]


def _readers_of(graph, tensor):
    return [
        n
        for n in graph.nodes.values()
        if getattr(n.prim, "tensor_name", None) == tensor and n.prim.kind != "write"
    ]


class TestPlacement:
    def test_intermediate_placed_on_chip_when_it_fits(self, two_stage):
        prog, binding, reference = two_stage
        # T is 16x4 doubles = 512 B dense estimate; give it ample room.
        session = Session(hierarchy="fpga-small")
        exe = session.compile(prog, unfused(prog))
        (t_writer,) = _writer_nodes(exe.regions[0].graph)
        assert t_writer.meta["mem_level"] == "sram"
        assert t_writer.meta["mem_role"] == "intermediate"
        assert "mem_bank" in t_writer.meta
        for reader in _readers_of(exe.regions[1].graph, "T"):
            assert reader.meta["mem_level"] == "sram"
        # The program output always lives in DRAM.
        (u_writer,) = _writer_nodes(exe.regions[1].graph)
        assert u_writer.meta["mem_level"] == "dram"
        assert u_writer.meta["mem_role"] == "output"
        # Program inputs live in DRAM too.
        for reader in _readers_of(exe.regions[0].graph, "A"):
            assert reader.meta["mem_level"] == "dram"
            assert reader.meta["mem_role"] == "input"

    def test_intermediate_spills_when_capacity_exhausted(self, two_stage):
        prog, binding, reference = two_stage
        session = Session(hierarchy="fpga-small@256")  # T needs 512 B
        exe = session.compile(prog, unfused(prog))
        (t_writer,) = _writer_nodes(exe.regions[0].graph)
        assert t_writer.meta["mem_level"] == "dram"
        assert t_writer.meta["mem_role"] == "spill"
        for reader in _readers_of(exe.regions[1].graph, "T"):
            assert reader.meta["mem_level"] == "dram"
            assert reader.meta["mem_role"] == "fill"

    def test_flat_hierarchy_labels_without_placing(self, two_stage):
        prog, binding, reference = two_stage
        exe = Session().compile(prog, unfused(prog))
        (t_writer,) = _writer_nodes(exe.regions[0].graph)
        assert t_writer.meta["mem_level"] == "dram"
        assert t_writer.meta["mem_role"] == "spill"
        diag = exe.diagnostics.regions[0]
        assert "place-memory" in diag.skipped_passes

    def test_fused_region_has_no_intermediate_edges(self, two_stage):
        prog, binding, reference = two_stage
        exe = Session(hierarchy="fpga-small").compile(prog, fully_fused(prog))
        (graph,) = [r.graph for r in exe.regions]
        for writer in _writer_nodes(graph):
            assert writer.meta["mem_role"] == "output"

    def test_diagnostics_record_reservations(self, two_stage):
        prog, binding, reference = two_stage
        exe = Session(hierarchy="fpga-small").compile(prog, unfused(prog))
        diag = exe.diagnostics.regions[0]
        assert diag.sram_placed >= 1
        assert diag.sram_reserved == 512  # dense estimate of T(16, 4)
        assert "on-chip" in exe.diagnostics.describe()


class TestPerLevelAccounting:
    def test_sram_absorbs_intermediate_traffic(self, two_stage):
        prog, binding, reference = two_stage
        flat = Session().run(prog, binding, unfused(prog)).metrics
        hier = Session(hierarchy="fpga-small").run(prog, binding, unfused(prog)).metrics
        # Conservation: traffic moves between levels, never disappears.
        assert hier.dram_bytes + hier.sram_bytes == flat.dram_bytes
        assert hier.sram_bytes > 0
        assert hier.spill_bytes == 0 and hier.fill_bytes == 0
        # Flat labels the same intermediate traffic as spill/fill.
        assert flat.spill_bytes > 0 and flat.fill_bytes > 0
        assert flat.sram_bytes == 0
        assert flat.spill_bytes + flat.fill_bytes == hier.sram_bytes

    def test_spilled_run_keeps_everything_off_chip(self, two_stage):
        """A 256 B buffer: T spills, and the operand budget shrinks too.

        Applying a hierarchy pins the scratchpad to the SRAM capacity, so a
        tiny buffer both spills the intermediate (same spill/fill labels as
        flat) and loses operand-residency discounts — total DRAM traffic
        can only grow relative to the flat machine's 64 KiB budget.
        """
        prog, binding, reference = two_stage
        flat = Session().run(prog, binding, unfused(prog)).metrics
        spilled = Session(hierarchy="fpga-small@256").run(
            prog, binding, unfused(prog)
        ).metrics
        assert spilled.sram_bytes == 0
        assert spilled.spill_bytes == flat.spill_bytes
        assert spilled.fill_bytes == flat.fill_bytes
        assert spilled.dram_bytes >= flat.dram_bytes

    def test_results_identical_across_hierarchies(self, two_stage):
        """Placement is a timing concern; functional output is untouched."""
        prog, binding, reference = two_stage
        for hierarchy in (None, "fpga-small", "fpga-small@256", "asic-large"):
            result = Session(hierarchy=hierarchy).run(prog, binding, unfused(prog))
            np.testing.assert_allclose(
                result.tensors["U"].to_dense(), reference, atol=1e-12
            )

    def test_simresult_carries_hierarchy_name(self, two_stage):
        prog, binding, reference = two_stage
        result = Session(hierarchy="asic-small").run(prog, binding, unfused(prog))
        assert all(r.hierarchy == "asic-small" for r in result.region_results)
        flat = Session().run(prog, binding, unfused(prog))
        assert all(r.hierarchy == "flat" for r in flat.region_results)

    def test_bank_bandwidth_rooflines_cycles(self, two_stage):
        """A starved SRAM port must dominate the cycle count."""
        prog, binding, reference = two_stage
        starved = HierarchySpec(
            "starved", BufferLevel(capacity_bytes=1 << 20, banks=1, bandwidth=0.01)
        )
        fast = Session(hierarchy="asic-large").run(prog, binding, unfused(prog))
        slow = Session(hierarchy=starved).run(prog, binding, unfused(prog))
        assert slow.metrics.sram_bytes == fast.metrics.sram_bytes > 0
        assert (
            slow.metrics.cycles
            >= slow.metrics.sram_bytes / 0.01 * 0.99
            > fast.metrics.cycles
        )

    def test_sram_compiled_graph_demotes_on_flat_machine(self, two_stage):
        """Running an SRAM-placed executable on a flat machine spills."""
        prog, binding, reference = two_stage
        exe = Session(hierarchy="fpga-small").compile(prog, unfused(prog))
        demoted = exe(binding, machine=RDA_MACHINE)
        assert demoted.metrics.sram_bytes == 0
        flat = Session().run(prog, binding, unfused(prog))
        assert demoted.metrics.dram_bytes == flat.metrics.dram_bytes
        np.testing.assert_allclose(
            demoted.tensors["U"].to_dense(), reference, atol=1e-12
        )


#: The canonical golden configurations (tests/test_golden_traces.py).
_GOLDEN = {
    "gcn": {"nodes": 30, "density": 0.1, "seed": 0},
    "graphsage": {"nodes": 30, "density": 0.1, "seed": 0},
    "sae": {"nodes": 16, "seed": 0},
    "gpt3": {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1, "seed": 0},
}

#: One slow bank: every on-chip byte queues on one port, so the SRAM
#: roofline, not any single node's pacing, sets the cycle count.
_ONE_SLOW_BANK = resolve_hierarchy("fpga-small").scaled(banks=1, bandwidth=0.5)


class TestRooflineLaws:
    """No region finishes before its memory traffic can have moved.

    ``cycles >= dram_bytes / dram_bandwidth`` and ``cycles >= sram_bytes /
    (banks * bandwidth)``: the banks together serve at most that many
    bytes per cycle.  Per-node pacing alone does not guarantee the second
    law — nodes sharing a bank overlap — so the one-slow-bank hierarchy
    must make it bind, with equality, somewhere.
    """

    @pytest.mark.parametrize("model", sorted(_GOLDEN))
    def test_cycles_respect_dram_and_sram_rooflines(self, model):
        bundle = build_bundle(SweepPoint.make(model, model_args=_GOLDEN[model]))
        bound = False
        for hierarchy in ("fpga-small", _ONE_SLOW_BANK):
            session = Session(hierarchy=hierarchy, sim_cache=False)
            machine = session.machine
            sram = machine.hierarchy.sram
            for granularity in ("unfused", "partial"):
                result = session.run(
                    bundle.program, bundle.binding, bundle.schedule(granularity)
                )
                for region in result.region_results:
                    dram_floor = region.dram_bytes / machine.dram_bandwidth
                    sram_floor = region.sram_bytes / (sram.banks * sram.bandwidth)
                    where = (granularity, region.cycles)
                    assert region.cycles >= dram_floor, where
                    assert region.cycles >= sram_floor, where
                    if hierarchy is _ONE_SLOW_BANK and region.sram_bytes:
                        bound |= region.cycles == sram_floor
        # gpt3's blocked intermediates stay off chip at this capacity.
        assert bound or model == "gpt3"


class TestSessionHierarchy:
    def test_hierarchy_configures_machine_and_pipeline(self):
        session = Session(hierarchy="fpga-small")
        assert session.machine.hierarchy.name == "fpga-small"
        assert session.pipeline.hierarchy.name == "fpga-small"

    def test_machine_hierarchy_inherited_when_arg_omitted(self):
        machine = RDA_MACHINE.with_hierarchy("asic-small")
        session = Session(machine=machine)
        assert session.pipeline.hierarchy.name == "asic-small"

    def test_different_hierarchies_miss_the_compile_cache(self, two_stage):
        prog, _, _ = two_stage
        a = Session(hierarchy="fpga-small")
        b = Session(hierarchy="fpga-small@256")
        assert a.cache_key(prog, unfused(prog)) != b.cache_key(prog, unfused(prog))

    def test_session_respects_placement_ablation(self, two_stage):
        """The no-on-chip-buffer ablation is the flat hierarchy: nothing is
        placed on chip and all traffic goes to DRAM."""
        prog, binding, _ = two_stage
        flat = Session(hierarchy="flat").run(prog, binding, unfused(prog))
        assert flat.metrics.sram_bytes == 0
        small = Session(hierarchy="fpga-small").run(prog, binding, unfused(prog))
        assert small.metrics.sram_bytes > 0

    def test_place_memory_config_in_fingerprint(self):
        default = PassPipeline.default()
        small = PassPipeline("fpga-small")
        assert default.fingerprint() != small.fingerprint()
        assert Session(hierarchy="fpga-small").pipeline.fingerprint() == (
            small.fingerprint()
        )


# ----------------------------------------------------------------------
# Sweep axis
# ----------------------------------------------------------------------


class TestSweepHierarchyAxis:
    def test_flat_point_ids_stable_without_hierarchy_field(self):
        """Pre-hierarchy result files must keep resuming: flat IDs unchanged."""
        flat = SweepPoint.make("gcn", model_args={"nodes": 12})
        assert flat.hierarchy == "flat"
        assert "hierarchy" not in flat.label()
        hier = SweepPoint.make(
            "gcn", model_args={"nodes": 12}, hierarchy="fpga-small"
        )
        assert hier.point_id != flat.point_id
        assert "fpga-small" in hier.label()

    def test_point_roundtrip_and_validation(self):
        point = SweepPoint.make("gcn", hierarchy="asic-large")
        assert SweepPoint.from_record(point.to_record()) == point
        bad = SweepPoint.make("gcn", hierarchy="nonsense")
        with pytest.raises(Exception, match="unknown hierarchy"):
            bad.validate()

    def test_spec_grid_expands_hierarchies(self):
        spec = SweepSpec(
            models=["gcn"],
            schedules=["unfused", "full"],
            machines=["rda"],
            hierarchies=["flat", "fpga-small", "asic-small"],
        )
        points = spec.points()
        assert len(points) == 6
        assert {p.hierarchy for p in points} == {"flat", "fpga-small", "asic-small"}
        restored = SweepSpec.from_record(spec.to_record())
        assert [p.point_id for p in restored.points()] == [
            p.point_id for p in points
        ]

    def test_run_point_reports_per_level_metrics(self):
        point = SweepPoint.make(
            "gcn",
            schedule="unfused",
            model_args={"nodes": 24, "density": 0.1},
            hierarchy="asic-large",
        )
        record = run_point(point)
        assert record["status"] == "ok", record.get("error")
        metrics = record["metrics"]
        assert metrics["sram_bytes"] > 0
        assert metrics["dram_bytes"] > 0
        assert {"spill_bytes", "fill_bytes"} <= set(metrics)
        assert record["point"]["hierarchy"] == "asic-large"
