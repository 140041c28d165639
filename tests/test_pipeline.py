"""End-to-end pipeline tests: multi-region compilation and execution."""

import numpy as np
import pytest

from repro import (
    Session,
    cs_rewrite,
    fully_fused,
    fused_groups,
    parse_program,
    unfused,
)
from repro.comal import FPGA_MACHINE, RDA_MACHINE
from repro.core.schedule.schedule import Schedule, ScheduleError
from repro.ftree import SparseTensor, csr, dense

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


@pytest.fixture
def session():
    return Session()


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


class TestCompile:
    def test_unfused_region_count(self, session, gcn_layer):
        prog, _, _ = gcn_layer
        compiled = session.compile(prog, unfused(prog)).compiled
        assert len(compiled.regions) == 4

    def test_fully_fused_single_region(self, session, gcn_layer):
        prog, _, _ = gcn_layer
        compiled = session.compile(prog, fully_fused(prog)).compiled
        assert len(compiled.regions) == 1

    def test_compile_is_fast(self, session, gcn_layer):
        """Paper: all models compile in < 750 ms."""
        prog, _, _ = gcn_layer
        compiled = session.compile(prog, fully_fused(prog)).compiled
        assert compiled.compile_seconds < 0.75

    def test_intermediate_decls_registered(self, session, gcn_layer):
        prog, _, _ = gcn_layer
        compiled = session.compile(prog, unfused(prog)).compiled
        assert "T0" in compiled.decls
        assert compiled.decls["T0"].shape == (12, 6)

    def test_describe(self, session, gcn_layer):
        prog, _, _ = gcn_layer
        compiled = session.compile(prog, unfused(prog)).compiled
        text = compiled.describe()
        assert "unfused" in text and "4 region(s)" in text

    def test_tables_recorded(self, session, gcn_layer):
        prog, _, _ = gcn_layer
        compiled = session.compile(prog, fully_fused(prog)).compiled
        assert "fusion table" in compiled.regions[0].table_text


class TestExecute:
    @pytest.mark.parametrize(
        "make_schedule",
        [unfused, fully_fused, lambda p: fused_groups(p, [[0, 1], [2, 3]])],
    )
    def test_all_granularities_correct(
        self, session, gcn_layer, make_schedule
    ):
        prog, binding, expected = gcn_layer
        result = session.run(prog, binding, make_schedule(prog))
        np.testing.assert_allclose(result.tensors["Y"].to_dense(), expected, atol=1e-12)

    def test_fusion_reduces_traffic(self, session, gcn_layer):
        prog, binding, _ = gcn_layer
        results = session.compare_schedules(
            prog, binding, [unfused(prog), fully_fused(prog)]
        )
        assert (
            results["fully-fused"].metrics.dram_bytes
            < results["unfused"].metrics.dram_bytes
        )

    def test_kernel_count_matches_regions(self, session, gcn_layer):
        prog, binding, _ = gcn_layer
        result = session.run(prog, binding, unfused(prog))
        assert result.metrics.num_kernels == 4

    def test_machines_differ(self, session, gcn_layer):
        prog, binding, _ = gcn_layer
        r1 = session.run(prog, binding, unfused(prog), machine=RDA_MACHINE)
        r2 = session.run(prog, binding, unfused(prog), machine=FPGA_MACHINE)
        assert r1.metrics.cycles != r2.metrics.cycles

    def test_cs_rewrite_correct(self, session, gcn_layer):
        prog, binding, expected = gcn_layer
        schedule = cs_rewrite(prog, [[0, 1], [2], [3]])
        result = session.run(prog, binding, schedule)
        np.testing.assert_allclose(result.tensors["Y"].to_dense(), expected, atol=1e-12)


class TestScheduleValidation:
    def test_overlapping_regions_rejected(self, gcn_layer):
        prog, _, _ = gcn_layer
        with pytest.raises(ScheduleError):
            fused_groups(prog, [[0, 1], [1, 2, 3]])

    def test_missing_statement_rejected(self, gcn_layer):
        prog, _, _ = gcn_layer
        with pytest.raises(ScheduleError):
            fused_groups(prog, [[0, 1], [3]])

    def test_unknown_sid_rejected(self, gcn_layer):
        prog, _, _ = gcn_layer
        with pytest.raises(ScheduleError):
            fused_groups(prog, [[0, 1, 2, 3, 9]])

    def test_describe(self, gcn_layer):
        prog, _, _ = gcn_layer
        schedule = fused_groups(prog, [[0, 1], [2, 3]])
        assert "2 region(s)" in schedule.describe()


class TestTransposedViews:
    def test_pog_cycle_materializes_permuted_copy(self, session):
        """Two conflicting views of one tensor (B and B^T) cycle the POG;
        FuseFlow breaks the cycle with a permuted copy (Section 5, step 4)."""
        prog = parse_program(
            "tensor B(5, 5): csr\nZ(i, j) = B(i, j) * B(j, i)"
        )
        rng = np.random.default_rng(1)
        b = (rng.random((5, 5)) < 0.5) * rng.random((5, 5))
        binding = {"B": SparseTensor.from_dense(b, csr(), "B")}
        exe = session.compile(prog, fully_fused(prog))
        assert exe.regions[0].transposes, "expected a permuted copy"
        result = exe(binding)
        np.testing.assert_allclose(
            result.tensors["Z"].to_dense(), b * b.T, atol=1e-12
        )

    def test_infeasible_streaming_schedule_raises(self, session):
        """When neither streaming nor driven recompute can express a fused
        schedule, the compiler demands a materialization boundary."""
        from repro.core.tables.lower import LoweringError

        prog = parse_program(
            """
tensor B(5, 5): csr
tensor C(5, 5): csr
E(i, j) = B(i, k) * C(k, j)
F(i, l) = E(i, j2) * B(l, j2)
"""
        )
        with pytest.raises(LoweringError, match="materialize"):
            session.compile(prog, fully_fused(prog))
        # The unfused schedule handles it via materialization.
        rng = np.random.default_rng(1)
        b = (rng.random((5, 5)) < 0.5) * rng.random((5, 5))
        c = (rng.random((5, 5)) < 0.5) * rng.random((5, 5))
        binding = {
            "B": SparseTensor.from_dense(b, csr(), "B"),
            "C": SparseTensor.from_dense(c, csr(), "C"),
        }
        result = session.run(prog, binding, unfused(prog))
        np.testing.assert_allclose(
            result.tensors["F"].to_dense(), (b @ c) @ b.T, atol=1e-12
        )

