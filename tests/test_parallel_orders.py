"""Parallelization and dataflow-order exploration tests (Sections 8.6, 8.8)."""

import numpy as np
import pytest

from repro.core.einsum.parser import parse_program
from repro.core.fusion.fuse import fuse_region
from repro.core.fusion.orders import (
    enumerate_orders,
    order_label,
    order_space,
    program_order_space,
)
from repro.core.schedule.par import apply_parallelization, parallelized_levels
from repro.core.schedule.schedule import fully_fused, unfused
from repro.core.tables.lower import RegionLowerer
from repro.comal import run_timed
from repro.ftree import SparseTensor, csr, dense
from repro.models.gcn import gcn_on_synthetic
from repro.driver.session import default_session

# One shared session: its compile cache spans this module's tests.
run = default_session().run


@pytest.fixture
def spmm():
    prog = parse_program(
        "tensor A(10, 10): csr\ntensor X(10, 6): dense\nT(i, j) = A(i, k) * X(k, j)"
    )
    fused = fuse_region(prog, [0])
    rng = np.random.default_rng(0)
    a = (rng.random((10, 10)) < 0.4) * rng.random((10, 10))
    x = rng.random((10, 6))
    binding = {
        "A": SparseTensor.from_dense(a, csr(), "A"),
        "X": SparseTensor.from_dense(x, dense(2), "X"),
    }
    return prog, fused, binding, a @ x


class TestParallelization:
    def test_marks_nodes(self, spmm):
        prog, fused, binding, _ = spmm
        lowerer = RegionLowerer(fused, prog.decls)
        graph = lowerer.lower()
        order = lowerer.order
        affected = apply_parallelization(graph, order, order[0], 4)
        assert affected > 0
        assert parallelized_levels(graph)

    def test_functional_result_unchanged(self, spmm):
        prog, fused, binding, expected = spmm
        lowerer = RegionLowerer(fused, prog.decls)
        graph = lowerer.lower()
        apply_parallelization(graph, lowerer.order, lowerer.order[0], 8)
        result = run_timed(graph, binding)
        np.testing.assert_allclose(result.results["T"].to_dense(), expected)

    def test_speedup_monotone(self, spmm):
        prog, fused, binding, _ = spmm
        cycles = []
        for factor in (1, 4, 16):
            lowerer = RegionLowerer(fuse_region(prog, [0]), prog.decls)
            graph = lowerer.lower()
            apply_parallelization(graph, lowerer.order, lowerer.order[0], factor)
            cycles.append(run_timed(graph, binding).cycles)
        assert cycles[0] >= cycles[1] >= cycles[2]

    def test_factor_one_noop(self, spmm):
        prog, fused, _, _ = spmm
        lowerer = RegionLowerer(fused, prog.decls)
        graph = lowerer.lower()
        assert apply_parallelization(graph, lowerer.order, lowerer.order[0], 1) == 0

    def test_invalid_factor_rejected(self, spmm):
        prog, fused, _, _ = spmm
        lowerer = RegionLowerer(fused, prog.decls)
        graph = lowerer.lower()
        with pytest.raises(ValueError):
            apply_parallelization(graph, lowerer.order, lowerer.order[0], 0)

    def test_unknown_index_rejected(self, spmm):
        prog, fused, _, _ = spmm
        lowerer = RegionLowerer(fused, prog.decls)
        graph = lowerer.lower()
        with pytest.raises(ValueError):
            apply_parallelization(graph, lowerer.order, "zz", 2)

    def test_schedule_par_through_pipeline(self, spmm):
        prog, _, binding, expected = spmm
        schedule = fully_fused(prog)
        base = run(prog, binding, schedule).metrics.cycles
        fused = fuse_region(prog, [0])
        schedule_par = fully_fused(prog)
        schedule_par.par = {fused.first_order()[0]: 8}
        fast = run(prog, binding, schedule_par)
        np.testing.assert_allclose(fast.tensors["T"].to_dense(), expected)
        assert fast.metrics.cycles < base


NESTED_MATMUL = """
tensor A(8, 8): csr
tensor B(8, 6): dense
tensor C(6, 4): dense
E(i, j) = A(i, k) * B(k, j)
D(i, l) = E(i, j2) * C(j2, l)
"""

# Inner-product form with ordering freedom: both operands row-major over
# different outer indices, so i and j may be interleaved freely.
FREE_ORDER = """
tensor A(8, 6): dense
tensor Bt(4, 6): dense
T(i, j) = A(i, k) * Bt(j, k)
"""


class TestOrders:
    def test_enumerate_orders_valid(self):
        prog = parse_program(NESTED_MATMUL)
        fused = fuse_region(prog, [0, 1])
        orders = enumerate_orders(fused, limit=50)
        assert orders
        for order in orders:
            assert fused.pog.is_valid_order(order)

    def test_orders_change_cycles(self):
        """Different dataflow orders give different performance (Fig 18)."""
        prog = parse_program(FREE_ORDER)
        rng = np.random.default_rng(1)
        a = rng.random((8, 6))
        b = rng.random((4, 6))
        binding = {
            "A": SparseTensor.from_dense(a, dense(2), "A"),
            "Bt": SparseTensor.from_dense(b, dense(2), "Bt"),
        }
        fused = fuse_region(prog, [0])
        orders = enumerate_orders(fused, limit=10)
        assert len(orders) >= 2
        cycles = []
        for order in orders:
            lowerer = RegionLowerer(fuse_region(prog, [0]), prog.decls, order=order)
            result = run_timed(lowerer.lower(), binding)
            np.testing.assert_allclose(
                result.results["T"].to_dense(), a @ b.T, atol=1e-12
            )
            cycles.append(result.cycles)
        assert len(set(cycles)) > 1

    def test_order_space_counts(self):
        prog = parse_program(NESTED_MATMUL)
        fused = fuse_region(prog, [0, 1])
        space = order_space(fused)
        assert space.constrained <= space.unconstrained
        assert space.constrained == len(list(fused.pog.all_orders(10**6)))

    def test_local_constraints_shrink_space(self):
        """Table 4: per-kernel order constraints shrink the design space."""
        prog = parse_program(FREE_ORDER)
        schedule = fully_fused(prog)
        # Pin the statement to its concordant Gustavson-style order.
        best_orders = {0: ("i", "j", "k")}
        unconstrained, constrained = program_order_space(
            prog, schedule, best_order_constraints=best_orders
        )
        baseline_unc, baseline_con = program_order_space(prog, schedule)
        assert constrained < baseline_con <= baseline_unc

    def test_order_label(self):
        assert order_label(["i", "k", "j"]) == "ikj"
        assert order_label(["u0", "i"], rename={"u0": "k"}) == "ki"
