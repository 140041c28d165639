"""Index splitting (tiling): schedule knob, passes, placement, timing, sweeps.

Covers the full thread of the splitting feature: schedule validation and
fingerprints (hypothesis properties), the ``split-indices`` pass and its
materialization during lowering, footprint scaling in ``place-memory``
(spill -> SRAM conversion), tile-sequential pacing in the timed engine,
the autotuner's bounded split axis and truncation surfacing, the sweep
subsystem's split axis with stable unsplit point IDs, and the CLI flags.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.comal.machines import RDA_MACHINE
from repro.core.schedule.autotune import (
    autotune,
    contiguous_partitions,
    enumerate_schedules,
    partition_space_size,
    reset_truncation_warnings,
)
from repro.core.schedule.schedule import Schedule, ScheduleError, unfused
from repro.core.schedule.split import (
    apply_split,
    intermediate_row_splits,
    split_footprint_scale,
    tiled_levels,
)
from repro.core.heuristic.model import stats_from_binding
from repro.driver import Session
from repro.sweep import SweepPoint, SweepSpec, build_bundle
from repro.sweep.runner import run_point
from repro.sweep.spec import SweepSpecError


@pytest.fixture(scope="module")
def gcn_bundle():
    return build_bundle(
        SweepPoint.make("gcn", model_args={"nodes": 48, "density": 0.1, "seed": 0})
    )


# ----------------------------------------------------------------------
# Schedule validation + fingerprints
# ----------------------------------------------------------------------


class TestScheduleSplits:
    def _program(self, gcn_bundle):
        return gcn_bundle.program

    @given(
        tiles=st.dictionaries(
            st.sampled_from(["x1", "x4", "u0", "k"]),
            st.integers(min_value=1, max_value=64),
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_valid_splits_pass_validation(self, gcn_bundle, tiles):
        schedule = unfused(gcn_bundle.program)
        schedule.splits = tiles
        schedule.validate(gcn_bundle.program)

    @given(bad=st.integers(max_value=0))
    @settings(max_examples=20, deadline=None)
    def test_nonpositive_tiles_rejected(self, gcn_bundle, bad):
        schedule = unfused(gcn_bundle.program)
        schedule.splits = {"x1": bad}
        with pytest.raises(ScheduleError, match=">= 1"):
            schedule.validate(gcn_bundle.program)

    @pytest.mark.parametrize("bad", [2.5, "8", None, True])
    def test_non_int_tiles_rejected(self, gcn_bundle, bad):
        schedule = unfused(gcn_bundle.program)
        schedule.splits = {"x1": bad}
        with pytest.raises(ScheduleError):
            schedule.validate(gcn_bundle.program)

    def test_empty_index_name_rejected(self, gcn_bundle):
        schedule = unfused(gcn_bundle.program)
        schedule.splits = {"": 4}
        with pytest.raises(ScheduleError, match="non-empty"):
            schedule.validate(gcn_bundle.program)

    def test_unsplit_fingerprint_unchanged_by_empty_dict(self, gcn_bundle):
        """splits={} must not churn pre-splitting schedule fingerprints."""
        a = unfused(gcn_bundle.program)
        b = unfused(gcn_bundle.program)
        b.splits = {}
        assert a.fingerprint() == b.fingerprint()
        # The exact no-op (tiles=1) compiles byte-identically to unsplit,
        # so it must share the same fingerprint (one cache entry).
        b.splits = {"x1": 1}
        assert a.fingerprint() == b.fingerprint()

    def test_splits_change_fingerprint_and_cache_key(self, gcn_bundle):
        schedule = unfused(gcn_bundle.program)
        before = schedule.fingerprint()
        schedule.splits = {"x1": 8}
        after = schedule.fingerprint()
        assert before != after
        schedule.splits = {"x1": 4}
        assert schedule.fingerprint() not in (before, after)

    def test_describe_mentions_splits(self, gcn_bundle):
        schedule = unfused(gcn_bundle.program)
        schedule.splits = {"x1": 8}
        assert "index splits" in schedule.describe()


# ----------------------------------------------------------------------
# apply_split / helpers
# ----------------------------------------------------------------------


class TestApplySplit:
    def test_tiles_nodes_at_or_below_cut(self, gcn_bundle):
        # Fresh session per test: apply_split mutates the compiled graph,
        # which must not leak into a shared compile cache.
        session = Session()
        exe = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        region = exe.regions[0]
        order = [idx for idx in region.order if "." not in idx]
        affected = apply_split(region.graph, order, order[0], 4)
        assert affected > 0
        assert order[0] in tiled_levels(region.graph)
        for node in region.graph.nodes.values():
            if node.region == "construct":
                assert node.tile_factor == 1

    def test_factor_one_is_noop(self, gcn_bundle):
        session = Session()
        exe = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        region = exe.regions[0]
        assert apply_split(region.graph, region.order, region.order[0], 1) == 0
        assert tiled_levels(region.graph) == []

    def test_bad_factor_raises(self, gcn_bundle):
        session = Session()
        exe = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        region = exe.regions[0]
        with pytest.raises(ValueError, match=">= 1"):
            apply_split(region.graph, region.order, region.order[0], 0)

    def test_unknown_index_raises(self, gcn_bundle):
        session = Session()
        exe = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        region = exe.regions[0]
        with pytest.raises(ValueError, match="not iterated"):
            apply_split(region.graph, region.order, "nope", 4)

    @given(
        tiles=st.dictionaries(
            st.sampled_from(["i", "j", "k"]),
            st.integers(min_value=2, max_value=8),
            max_size=3,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_footprint_scale_is_product_over_modes(self, tiles):
        scale = split_footprint_scale(tiles, ["i", "j"])
        assert scale == tiles.get("i", 1) * tiles.get("j", 1)
        assert split_footprint_scale(tiles, []) == 1

    def test_intermediate_row_splits_skips_program_outputs(self, gcn_bundle):
        session = Session()
        exe = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        splits = intermediate_row_splits(exe.compiled, 8)
        assert splits and all(t == 8 for t in splits.values())
        outputs = set(gcn_bundle.program.outputs())
        for region in exe.regions:
            for spec in region.output_specs:
                if spec.name in outputs:
                    assert spec.emission_indices[0] not in splits

    def test_intermediate_row_splits_rejects_bad_tiles(self, gcn_bundle):
        session = Session()
        exe = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        with pytest.raises(ValueError):
            intermediate_row_splits(exe.compiled, 0)


# ----------------------------------------------------------------------
# The split-indices pass through the compile flow
# ----------------------------------------------------------------------


class TestSplitIndicesPass:
    def test_skipped_without_splits(self, gcn_bundle):
        exe = Session().compile(gcn_bundle.program, unfused(gcn_bundle.program))
        for region in exe.diagnostics.regions:
            assert region.skipped_passes["split-indices"] == (
                "schedule has no splits"
            )

    def test_skipped_for_foreign_index(self, gcn_bundle):
        schedule = unfused(gcn_bundle.program)
        schedule.splits = {"zz9": 8}
        exe = Session().compile(gcn_bundle.program, schedule)
        for region in exe.diagnostics.regions:
            assert "split-indices" in region.skipped_passes
        for region in exe.regions:
            assert not any("." in idx for idx in region.order)

    def test_order_gains_outer_tile_index(self, gcn_bundle):
        schedule = unfused(gcn_bundle.program)
        schedule.splits = {"x1": 8}
        exe = Session().compile(gcn_bundle.program, schedule)
        assert exe.regions[0].order[0] == "x1.t8"
        assert exe.diagnostics.regions[0].split_indices == {"x1": 8}
        # Only the region iterating x1 is tiled.
        assert tiled_levels(exe.regions[0].graph) != []
        assert tiled_levels(exe.regions[1].graph) == []

    def test_tile_factor_one_configs_are_noops(self, gcn_bundle):
        schedule = unfused(gcn_bundle.program)
        schedule.splits = {"x1": 1}
        exe = Session().compile(gcn_bundle.program, schedule)
        assert tiled_levels(exe.regions[0].graph) == []
        assert not any("." in idx for idx in exe.regions[0].order)

    def test_par_cannot_target_tile_index(self, gcn_bundle):
        """The synthetic outer tile index is time-multiplexed, not a lane
        level: a par factor naming it is skipped, never applied."""
        schedule = unfused(gcn_bundle.program)
        schedule.splits = {"x1": 8}
        schedule.par = {"x1.t8": 4}
        exe = Session().compile(gcn_bundle.program, schedule)
        assert all(
            node.par_factor == 1
            for node in exe.regions[0].graph.nodes.values()
        )

    def test_par_composes_with_split_on_real_index(self, gcn_bundle):
        schedule = unfused(gcn_bundle.program)
        schedule.splits = {"x1": 8}
        schedule.par = {"x1": 4}
        exe = Session().compile(gcn_bundle.program, schedule)
        assert any(
            node.par_factor > 1
            for node in exe.regions[0].graph.nodes.values()
        )
        assert gcn_bundle.max_abs_err(exe(gcn_bundle.binding)) < 1e-6

    def test_split_converts_spill_to_sram(self, gcn_bundle):
        session = Session(hierarchy="fpga-small")
        base_exe = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        base = base_exe(gcn_bundle.binding).metrics

        schedule = unfused(gcn_bundle.program)
        schedule.splits = intermediate_row_splits(base_exe.compiled, 8)
        tiled_exe = session.compile(gcn_bundle.program, schedule)
        tiled = tiled_exe(gcn_bundle.binding).metrics

        assert tiled.spill_bytes < base.spill_bytes
        assert tiled.sram_bytes > base.sram_bytes
        assert tiled.dram_bytes < base.dram_bytes
        # Work is conserved: the same bytes move, through a better level.
        assert tiled.flops == base.flops
        assert tiled.tokens == base.tokens

    def test_writer_meta_records_tile_scale(self, gcn_bundle):
        session = Session(hierarchy="fpga-small")
        base_exe = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        schedule = unfused(gcn_bundle.program)
        schedule.splits = intermediate_row_splits(base_exe.compiled, 8)
        exe = session.compile(gcn_bundle.program, schedule)
        scales = [
            placed.tile_scale
            for region in exe.regions
            for placed in region.placement.values()
            if placed.tile_scale > 1
        ]
        assert scales and all(s == 8 for s in scales)


# ----------------------------------------------------------------------
# Timed engine: tile-sequential pacing
# ----------------------------------------------------------------------


class TestTiledTiming:
    def test_tiling_costs_boundary_bubbles(self, gcn_bundle):
        session = Session()
        base = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        base_cycles = base(gcn_bundle.binding).metrics.cycles

        schedule = unfused(gcn_bundle.program)
        schedule.splits = intermediate_row_splits(base.compiled, 8)
        tiled = session.compile(gcn_bundle.program, schedule)
        tiled_cycles = tiled(gcn_bundle.binding).metrics.cycles
        # Under the flat hierarchy tiling buys nothing and pays fill/drain
        # bubbles at every tile boundary: strictly slower.
        assert tiled_cycles > base_cycles

    def test_more_tiles_more_bubbles(self, gcn_bundle):
        session = Session()
        base = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        cycles = []
        for tiles in (2, 4, 8):
            schedule = unfused(gcn_bundle.program)
            schedule.splits = intermediate_row_splits(base.compiled, tiles)
            exe = session.compile(gcn_bundle.program, schedule)
            cycles.append(exe(gcn_bundle.binding).metrics.cycles)
        assert cycles == sorted(cycles)

    def test_functional_results_bit_exact(self, gcn_bundle):
        session = Session(hierarchy="fpga-small")
        base = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        base_result = base(gcn_bundle.binding)
        schedule = unfused(gcn_bundle.program)
        schedule.splits = intermediate_row_splits(base.compiled, 4)
        tiled = session.compile(gcn_bundle.program, schedule)
        tiled_result = tiled(gcn_bundle.binding)
        assert set(base_result.tensors) == set(tiled_result.tensors)
        for name, tensor in base_result.tensors.items():
            assert np.array_equal(
                tensor.to_dense(), tiled_result.tensors[name].to_dense()
            ), name


# ----------------------------------------------------------------------
# Autotuner: bounded split axis + truncation surfacing
# ----------------------------------------------------------------------


class TestAutotuneSplits:
    def test_partition_space_size(self):
        assert partition_space_size(0) == 0
        assert partition_space_size(1) == 1
        assert partition_space_size(8) == 128

    def test_truncation_warns_and_is_deterministic(self):
        reset_truncation_warnings()
        with pytest.warns(UserWarning, match="kept 5 of 512"):
            kept = contiguous_partitions(10, max_partitions=5)
        assert len(kept) == 5
        # Deterministic: boundary-count layers taken alternately from the
        # coarse and fine ends, lexicographic cuts within each layer.
        again = contiguous_partitions(10, max_partitions=5)
        assert kept == again
        assert kept[0] == [list(range(10))]  # fully fused survives the cap

    def test_both_baselines_survive_any_cap(self):
        """Any cap >= 2 keeps the fully-fused AND fully-unfused partitions.

        Regression: the pre-balanced order (fewest boundaries first)
        enumerated all C(n-1, k) single-cut partitions before the unfused
        one, so a tight cap silently dropped the only always-feasible
        fallback — exactly on programs where coarse fusion is infeasible.
        """
        for n in (4, 10, 22):
            for cap in (2, 3, 5, 8):
                kept = contiguous_partitions(n, max_partitions=cap)
                assert kept[0] == [list(range(n))], (n, cap)
                assert kept[1] == [[i] for i in range(n)], (n, cap)

    def test_baselines_survive_split_axis_budget_division(self, gcn_bundle):
        """enumerate_schedules divides max_candidates across the split
        axis; both baselines must still appear among the partitions."""
        configs = [{"x1": 4}, {"x1": 8}, {"x2": 4}]
        n = len(gcn_bundle.program.statements)
        # 4 configs (unsplit + 3) under a budget of 8 leaves only 2
        # partitions — precisely the regime that used to lose unfused.
        schedules = enumerate_schedules(
            gcn_bundle.program, max_candidates=8, splits=configs
        )
        regions = {tuple(map(tuple, s.regions)) for s in schedules}
        assert tuple(tuple(r) for r in [list(range(n))]) in regions
        assert tuple((i,) for i in range(n)) in regions
        names = {s.name for s in schedules}
        assert "auto-fully-fused" in names
        assert "auto-unfused" in names

    def test_truncation_warns_once_per_shape(self, recwarn):
        reset_truncation_warnings()
        with pytest.warns(UserWarning, match="kept 5 of 512"):
            contiguous_partitions(10, max_partitions=5)
        # Identical truncation: silent on repeat (per-process seen-set).
        recwarn.clear()
        contiguous_partitions(10, max_partitions=5)
        assert not [w for w in recwarn if "kept" in str(w.message)]
        # A *different* truncation still warns.
        with pytest.warns(UserWarning, match="kept 4 of 512"):
            contiguous_partitions(10, max_partitions=4)

    def test_no_warning_when_exhaustive(self, recwarn):
        contiguous_partitions(4, max_partitions=64)
        assert not [w for w in recwarn if "kept" in str(w.message)]

    def test_enumerate_schedules_split_axis(self, gcn_bundle):
        configs = [{"x1": 4}, {"x1": 8}]
        schedules = enumerate_schedules(
            gcn_bundle.program, max_candidates=30, splits=configs
        )
        assert len(schedules) <= 30
        names = [s.name for s in schedules]
        assert len(set(names)) == len(names)  # unique, deterministic names
        # Each partition pairs with unsplit first, then each config.
        assert schedules[0].splits == {}
        assert schedules[1].splits == {"x1": 4}
        assert schedules[2].splits == {"x1": 8}
        assert "+split(x1=4)" in schedules[1].name

    def test_autotune_surfaces_truncation(self, gcn_bundle):
        reset_truncation_warnings()
        stats = stats_from_binding(gcn_bundle.binding)
        with pytest.warns(UserWarning, match="kept"):
            tuned = autotune(
                gcn_bundle.program,
                gcn_bundle.binding,
                stats,
                max_candidates=8,
                budget=2,
                session=Session(),
            )
        assert tuned.partition_space == partition_space_size(
            len(gcn_bundle.program.statements)
        )
        assert tuned.partitions_dropped > 0
        assert tuned.partitions_dropped < tuned.partition_space

    def test_autotune_cooptimizes_splits(self, gcn_bundle):
        stats = stats_from_binding(gcn_bundle.binding)
        session = Session(hierarchy="fpga-small")
        base_exe = session.compile(gcn_bundle.program, unfused(gcn_bundle.program))
        config = intermediate_row_splits(base_exe.compiled, 8)
        tuned = autotune(
            gcn_bundle.program,
            gcn_bundle.binding,
            stats,
            max_candidates=8,
            budget=4,
            session=session,
            splits=[config],
        )
        assert any("+split(" in name for name, _ in tuned.ranking)
        err = gcn_bundle.max_abs_err(tuned.executable(gcn_bundle.binding))
        assert err < 1e-6


# ----------------------------------------------------------------------
# Sweep subsystem: splits axis + point-ID stability
# ----------------------------------------------------------------------

OLD_DEFAULT_ORDER = (
    "fuse-regions",
    "fold-masks",
    "merge-contractions",
    "lower-region",
    "place-memory",
    "parallelize",
)


class TestSweepSplits:
    def test_unsplit_point_ids_survive_pipeline_growth(self):
        """A pre-splitting results file must resume against the new grid."""
        old = SweepPoint.from_record({"model": "gcn", "pipeline": OLD_DEFAULT_ORDER})
        new = SweepPoint.make("gcn")
        assert old.point_id == new.point_id

    def test_split_points_get_distinct_ids_and_labels(self):
        base = SweepPoint.make("gcn")
        split = SweepPoint.make("gcn", splits={"x1": 8})
        assert base.point_id != split.point_id
        assert base.label() != split.label()
        assert "split:x1=8" in split.label()

    def test_record_roundtrip(self):
        point = SweepPoint.make(
            "gpt3", splits={"x16": 8, "x25": 4}, hierarchy="fpga-small"
        )
        assert SweepPoint.from_record(point.to_record()) == point

    def test_validation_rejects_bad_tiles(self):
        with pytest.raises(SweepSpecError, match=">= 1"):
            SweepPoint.make("gcn", splits={"x1": 0}).validate()
        with pytest.raises(SweepSpecError, match=">= 1"):
            SweepPoint.make("gcn", splits={"x1": True}).validate()
        with pytest.raises(SweepSpecError, match="non-empty"):
            SweepPoint.make("gcn", splits={"": 4}).validate()

    def test_noop_tiles_collapse_into_baseline_point(self):
        """splits={'x1': 1} is byte-identical to unsplit — same point ID."""
        assert (
            SweepPoint.make("gcn", splits={"x1": 1}).point_id
            == SweepPoint.make("gcn").point_id
        )

    def test_spec_splits_axis_expands_grid(self):
        spec = SweepSpec(
            models=["gcn"],
            schedules=["unfused"],
            machines=["rda"],
            splits=[{}, {"x1": 4}, {"x1": 8}],
        )
        points = spec.points()
        assert len(points) == 3
        assert sorted(dict(p.splits).get("x1", 0) for p in points) == [0, 4, 8]
        rebuilt = SweepSpec.from_record(spec.to_record())
        assert [p.point_id for p in rebuilt.points()] == [
            p.point_id for p in points
        ]

    def test_report_groups_split_and_unsplit_separately(self):
        """Speedup grouping must not let split configs overwrite each other."""
        from repro.sweep.report import summarize

        def record(splits, cycles):
            point = SweepPoint.make("gcn", schedule="unfused", splits=splits)
            return {
                "status": "ok",
                "verified": True,
                "point_id": point.point_id,
                "label": point.label(),
                "point": point.to_record(),
                "metrics": {
                    "cycles": cycles,
                    "flops": 1,
                    "dram_bytes": 1,
                    "compute_utilization": 0.0,
                    "memory_utilization": 0.0,
                    "operational_intensity": 0.0,
                },
                "max_abs_err": 0.0,
            }

        summary = summarize(
            [record(None, 100.0), record({"x1": 4}, 200.0)], "unfused"
        )
        assert len(summary["speedups"]) == 2
        cycles = sorted(
            entry["cycles"]["unfused"] for entry in summary["speedups"]
        )
        assert cycles == [100.0, 200.0]
        split_groups = [e["splits"] for e in summary["speedups"]]
        assert sorted(split_groups) == ["", "x1=4"]

    def test_run_point_applies_splits(self):
        point = SweepPoint.make(
            "gcn",
            schedule="unfused",
            model_args={"nodes": 32, "density": 0.1},
            splits={"x1": 4},
            hierarchy="fpga-small",
        )
        record = run_point(point)
        assert record["status"] == "ok", record.get("error")
        assert record["point"]["splits"] == {"x1": 4}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestSplitCLI:
    def test_run_with_split(self, capsys):
        rc = cli_main(
            [
                "run", "--model", "gcn", "--nodes", "32", "--density", "0.1",
                "--fusion", "unfused", "--hierarchy", "fpga-small",
                "--split", "x1=4,x4=4",
            ]
        )
        assert rc == 0
        assert "cycles" in capsys.readouterr().out

    def test_compile_shows_tile_index(self, capsys):
        rc = cli_main(
            [
                "compile", "--model", "gcn", "--nodes", "32", "--density",
                "0.1", "--fusion", "unfused", "--split", "x1=8",
                "--diagnostics",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "x1.t8" in out
        assert "split x1/8" in out

    def test_bad_split_spec_exits(self):
        with pytest.raises(SystemExit, match="index=tiles"):
            cli_main(
                ["run", "--model", "gcn", "--nodes", "32", "--split", "x1:8"]
            )

    def test_autotune_with_split_axis(self, capsys):
        rc = cli_main(
            [
                "tune", "--model", "gcn", "--nodes", "24", "--density",
                "0.1", "--hierarchy", "fpga-small", "--split", "x1=4",
                "--strategy", "exhaustive", "--budget", "4",
                "--max-candidates", "16",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "truncated" in out
        assert "winner" in out
