"""Fusion heuristic tests: estimates track the simulator, pruning works."""

import numpy as np
import pytest

from repro.core.heuristic.model import (
    FusionHeuristic,
    TensorStats,
    estimate_schedule,
    stats_from_binding,
)
from repro.core.heuristic.prune import prune_schedules, rank_schedules, roofline_score
from repro.comal import RDA_MACHINE
from repro.models.gcn import gcn_on_synthetic
from repro.driver.session import default_session

# One shared session: its compile cache spans this module's tests.
run = default_session().run


@pytest.fixture(scope="module")
def gcn():
    return gcn_on_synthetic(nodes=40, density=0.08, seed=0)


class TestTensorStats:
    def test_nnz(self):
        stats = TensorStats(shape=(10, 10), density=0.25)
        assert stats.nnz == 25.0

    def test_from_binding(self, gcn):
        stats = stats_from_binding(gcn.binding)
        assert stats["A"].shape == gcn.binding["A"].shape
        assert 0 < stats["A"].density < 1


class TestEstimates:
    def test_flops_tracks_simulator(self, gcn):
        """Average percent error of estimated FLOPs stays small (Table 3)."""
        stats = stats_from_binding(gcn.binding)
        heuristic = FusionHeuristic(gcn.program, stats)
        for gran in ("unfused", "partial"):
            schedule = gcn.schedule(gran)
            est = heuristic.estimate(schedule)
            sim = run(gcn.program, gcn.binding, schedule)
            rel_err = abs(est.flops - sim.metrics.flops) / sim.metrics.flops
            assert rel_err < 0.6, f"{gran}: {rel_err:.2f}"

    def test_recompute_multiplies_flops(self, gcn):
        stats = stats_from_binding(gcn.binding)
        heuristic = FusionHeuristic(gcn.program, stats)
        partial = heuristic.estimate(gcn.schedule("partial"))
        full = heuristic.estimate(gcn.schedule("full"))
        assert full.flops > partial.flops

    def test_fusion_reduces_estimated_bytes(self, gcn):
        stats = stats_from_binding(gcn.binding)
        heuristic = FusionHeuristic(gcn.program, stats)
        est_unfused = heuristic.estimate(gcn.schedule("unfused"))
        est_partial = heuristic.estimate(gcn.schedule("partial"))
        assert est_partial.dram_bytes < est_unfused.dram_bytes

    def test_per_region_breakdown(self, gcn):
        stats = stats_from_binding(gcn.binding)
        est = estimate_schedule(gcn.program, gcn.schedule("partial"), stats)
        assert len(est.per_region) == 2
        assert est.operational_intensity() > 0


class TestPruning:
    def test_ranking_orders_by_score(self, gcn):
        stats = stats_from_binding(gcn.binding)
        ranked = rank_schedules(gcn.program, gcn.schedules(), stats)
        scores = [r.score for r in ranked]
        assert scores == sorted(scores)

    def test_prune_keeps_best(self, gcn):
        """The heuristic's top pick matches the simulator's winner."""
        stats = stats_from_binding(gcn.binding)
        schedules = gcn.schedules()
        kept = prune_schedules(gcn.program, schedules, stats, keep=1)
        sim_cycles = {
            s.name: run(gcn.program, gcn.binding, s).metrics.cycles
            for s in schedules
        }
        best_by_sim = min(sim_cycles, key=sim_cycles.get)
        assert kept[0].name == best_by_sim

    def test_roofline_score_positive(self, gcn):
        stats = stats_from_binding(gcn.binding)
        est = estimate_schedule(gcn.program, gcn.schedule("partial"), stats)
        assert roofline_score(est, RDA_MACHINE) > 0


class TestAutotuneReporting:
    """Direct assertions on the autotuner's self-reporting fields."""

    @pytest.fixture(scope="class")
    def tuned(self, gcn):
        from repro.core.schedule.autotune import autotune, reset_truncation_warnings
        from repro.driver.session import Session

        reset_truncation_warnings()
        stats = stats_from_binding(gcn.binding)
        with pytest.warns(UserWarning, match="kept"):
            return autotune(
                gcn.program,
                gcn.binding,
                stats,
                max_candidates=8,
                budget=3,
                session=Session(),
            )

    def test_ranking_is_measured_cycles_per_simulated_candidate(self, tuned):
        assert len(tuned.ranking) == tuned.evaluations
        names = [name for name, _ in tuned.ranking]
        assert len(set(names)) == len(names)
        for name, cycles in tuned.ranking:
            assert isinstance(name, str) and name
            assert cycles > 0
        assert tuned.measured_cycles == min(c for _, c in tuned.ranking)
        assert tuned.best.name in names

    def test_partition_space_is_full_space_not_kept_subset(self, gcn, tuned):
        from repro.core.schedule.autotune import partition_space_size

        n = len(gcn.program.statements)
        assert tuned.partition_space == partition_space_size(n) == 2 ** (n - 1)
        # The cap of 8 kept fewer than the full space; the report says so.
        assert tuned.partitions_dropped == tuned.partition_space - 8
        assert tuned.candidates_considered <= 8

    def test_reset_truncation_warnings_rearms_the_warning(self):
        import warnings as warnings_mod

        from repro.core.schedule.autotune import (
            contiguous_partitions,
            reset_truncation_warnings,
        )

        reset_truncation_warnings()
        with pytest.warns(UserWarning, match="kept 3 of 64"):
            contiguous_partitions(7, max_partitions=3)
        # Same truncation again: the per-process seen-set silences it.
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            contiguous_partitions(7, max_partitions=3)
        # Reset forgets the seen-set: the identical truncation warns again.
        reset_truncation_warnings()
        with pytest.warns(UserWarning, match="kept 3 of 64"):
            contiguous_partitions(7, max_partitions=3)
