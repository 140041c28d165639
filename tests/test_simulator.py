"""Simulator tests: timing model, memory model, machines, metrics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comal import engine
from repro.comal import (
    FPGA_MACHINE,
    GPU_MACHINE,
    MACHINES,
    RDA_MACHINE,
    ProgramMetrics,
    format_table,
    run_functional,
    run_timed,
    speedup_table,
)
from repro.core.einsum.parser import parse_program
from repro.core.fusion.fuse import fuse_region
from repro.core.tables.lower import RegionLowerer
from repro.ftree import SparseTensor, csr, dense


@pytest.fixture
def spmm_graph():
    prog = parse_program(
        "tensor A(6, 6): csr\ntensor X(6, 4): dense\nT(i, j) = A(i, k) * X(k, j)"
    )
    lowerer = RegionLowerer(fuse_region(prog, [0]), prog.decls)
    graph = lowerer.lower()
    rng = np.random.default_rng(0)
    a = (rng.random((6, 6)) < 0.4) * rng.random((6, 6))
    x = rng.random((6, 4))
    binding = {
        "A": SparseTensor.from_dense(a, csr(), "A"),
        "X": SparseTensor.from_dense(x, dense(2), "X"),
    }
    return graph, binding, a, x


class TestMemoryModel:
    """DRAM pacing: ``served[k] = max(t[k], served[k-1] + bytes/bw) + latency``."""

    def test_latency_floor(self):
        assert engine._paced_times([0.0], 1.0, 100.0)[0] >= 100.0

    def test_bandwidth_serializes(self):
        t1, t2 = engine._paced_times([0.0, 0.0], 10.0, 0.0)
        assert t2 >= t1 + 10

    def test_zero_bytes_free(self):
        assert engine._paced_times([5.0, 7.0], 0.0, 0.0) == [5.0, 7.0]


def _branches(fn, *args):
    """``fn(*args)`` on the Python-loop branch and on the numpy branch."""
    out = []
    for threshold in (float("inf"), 0):
        with mock.patch.object(engine, "_VECTOR_THRESHOLD", threshold):
            out.append(np.asarray(fn(*args), dtype=np.float64))
    return out


#: Cycle timestamps as the engine produces them: non-negative, monotone.
_times = st.lists(
    st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=300
).map(sorted)
#: Dyadic values (multiples of 1/64 below 2**20): every sum is exact, as
#: for the machine tables' initiation intervals and latencies.
_dyadic = st.integers(0, 1 << 26).map(lambda v: v / 64)
_dyadic_times = st.lists(_dyadic, min_size=1, max_size=300).map(sorted)


def _ulp_bound(loop, vec, n: int, *scales: float) -> None:
    """Loop and closed form differ by at most ``n + 4`` ulps of the scale.

    The loop accumulates one rounding per step; the closed form rounds a
    constant number of times per element.
    """
    scale = max([*scales, float(np.max(np.abs(loop), initial=0.0))])
    assert np.all(np.abs(loop - vec) <= (n + 4) * np.spacing(scale))


class TestRecurrenceBranches:
    """Both branches of each timing recurrence agree on the same inputs.

    Golden traces only exercise whichever branch a stream's length picks,
    so the branch switch at ``_VECTOR_THRESHOLD`` is pinned here: exactly
    on dyadic inputs, within an ulp bound on arbitrary floats.
    """

    @given(_dyadic_times, st.integers(0, 300), _dyadic, _dyadic)
    def test_emission_schedule_exact_on_dyadic(self, driver, length, ii, start):
        loop, vec = _branches(engine._emission_schedule, driver, length, ii, start)
        assert np.array_equal(loop, vec)

    @given(
        _times,
        st.integers(0, 300),
        st.floats(0.0, 64.0, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
    )
    def test_emission_schedule_ulp_bound(self, driver, length, ii, start):
        loop, vec = _branches(engine._emission_schedule, driver, length, ii, start)
        _ulp_bound(loop, vec, length, driver[-1], start + ii * (length + 1))

    @given(_dyadic_times, _dyadic, _dyadic)
    def test_paced_times_exact_on_dyadic(self, times, step, latency):
        loop, vec = _branches(engine._paced_times, times, step, latency)
        assert np.array_equal(loop, vec)

    @given(
        _times,
        st.floats(0.0, 64.0, allow_nan=False),
        st.floats(0.0, 1e3, allow_nan=False),
    )
    def test_paced_times_ulp_bound(self, times, step, latency):
        loop, vec = _branches(engine._paced_times, times, step, latency)
        _ulp_bound(loop, vec, len(times), times[-1] + step * (len(times) + 1) + latency)

    @given(_times, st.integers(1, 64), st.floats(0.0, 1e3, allow_nan=False))
    def test_tiled_times_bit_exact(self, times, tiles, bubble):
        loop, vec = _branches(engine._tiled_times, times, tiles, bubble)
        assert np.array_equal(loop, vec)

    @given(_times, st.integers(1, 64), st.floats(0.0, 1e3, allow_nan=False))
    def test_tiling_law(self, times, tiles, bubble):
        """``tiles`` tiles move the last emission exactly (tiles - 1) bubbles."""
        if len(times) < tiles:
            times = times + [times[-1]] * (tiles - len(times))
        for tiled in _branches(engine._tiled_times, times, tiles, bubble):
            assert tiled[-1] == times[-1] + bubble * (tiles - 1)
            assert np.all(np.diff(tiled) >= 0)


class TestMachines:
    def test_registry(self):
        assert set(MACHINES) == {"rda", "fpga", "gpu"}

    def test_ii_lookup_defaults(self):
        assert RDA_MACHINE.ii_of("scan") == 1.0
        assert RDA_MACHINE.ii_of("unknown-class") == RDA_MACHINE.default_ii

    def test_scaled_copy(self):
        m = RDA_MACHINE.scaled(dram_bandwidth=8.0)
        assert m.dram_bandwidth == 8.0
        assert RDA_MACHINE.dram_bandwidth == 64.0


class TestTimedRun:
    def test_cycles_positive_and_flops_counted(self, spmm_graph):
        graph, binding, a, x = spmm_graph
        result = run_timed(graph, binding)
        assert result.cycles > 0
        # Gustavson SpMM: one fma per (nnz, column) pair.
        assert result.flops == pytest.approx(2 * np.count_nonzero(a) * x.shape[1], rel=0.5)

    def test_functional_reuse(self, spmm_graph):
        graph, binding, _, _ = spmm_graph
        func = run_functional(graph, binding)
        result = run_timed(graph, binding, functional=func)
        assert result.functional is func

    def test_bandwidth_roofline(self, spmm_graph):
        graph, binding, _, _ = spmm_graph
        starved = RDA_MACHINE.scaled(dram_bandwidth=0.25)
        fast = run_timed(graph, binding)
        slow = run_timed(graph, binding, machine=starved)
        assert slow.cycles >= slow.dram_bytes / 0.25
        assert slow.cycles > fast.cycles

    def test_fpga_machine_slower_scanners(self, spmm_graph):
        graph, binding, _, _ = spmm_graph
        rda = run_timed(graph, binding, machine=RDA_MACHINE)
        fpga = run_timed(graph, binding, machine=FPGA_MACHINE)
        assert fpga.cycles != rda.cycles

    def test_utilization_bounds(self, spmm_graph):
        graph, binding, _, _ = spmm_graph
        result = run_timed(graph, binding, machine=GPU_MACHINE)
        assert 0.0 <= result.compute_utilization(GPU_MACHINE) <= 1.0
        assert 0.0 <= result.memory_utilization(GPU_MACHINE) <= 1.0

    def test_operational_intensity(self, spmm_graph):
        graph, binding, _, _ = spmm_graph
        result = run_timed(graph, binding)
        assert result.operational_intensity() > 0


class TestProgramMetrics:
    def test_accumulation(self, spmm_graph):
        graph, binding, _, _ = spmm_graph
        r = run_timed(graph, binding)
        metrics = ProgramMetrics("test")
        metrics.add(r, "k1")
        metrics.add(r, "k2")
        assert metrics.num_kernels == 2
        assert metrics.cycles == pytest.approx(2 * r.cycles)
        assert metrics.flops == 2 * r.flops

    def test_speedup_table(self, spmm_graph):
        graph, binding, _, _ = spmm_graph
        r = run_timed(graph, binding)
        slow = ProgramMetrics("slow")
        slow.add(r)
        slow.add(r)
        fast = ProgramMetrics("fast")
        fast.add(r)
        table = speedup_table({"slow": slow, "fast": fast}, baseline="slow")
        assert table["slow"] == 1.0
        assert table["fast"] == pytest.approx(2.0)

    def test_format_table(self):
        text = format_table([["a", "1"], ["bb", "22"]], ["name", "val"])
        assert "name" in text and "bb" in text


class TestScratchpad:
    def test_small_tensor_cached(self, spmm_graph):
        graph, binding, _, _ = spmm_graph
        cached = run_timed(graph, binding, machine=RDA_MACHINE)
        uncached = run_timed(
            graph, binding, machine=RDA_MACHINE.scaled(scratchpad_bytes=0)
        )
        assert uncached.dram_bytes >= cached.dram_bytes


class TestNegativeCycleGuards:
    """Utilization must not mask simulator bugs as 0% (negative cycles)."""

    def test_sim_result_rejects_negative_cycles(self):
        from repro.comal.engine import SimResult

        broken = SimResult(cycles=-5.0, flops=10, dram_bytes=10, tokens=10)
        with pytest.raises(ValueError, match="negative cycle count"):
            broken.compute_utilization(RDA_MACHINE)
        with pytest.raises(ValueError, match="negative cycle count"):
            broken.memory_utilization(RDA_MACHINE)

    def test_sim_result_zero_cycles_is_idle(self):
        from repro.comal.engine import SimResult

        idle = SimResult(cycles=0.0, flops=0, dram_bytes=0, tokens=0)
        assert idle.compute_utilization(RDA_MACHINE) == 0.0
        assert idle.memory_utilization(RDA_MACHINE) == 0.0

    def test_program_metrics_rejects_negative_cycles(self):
        broken = ProgramMetrics(cycles=-1.0, flops=10, dram_bytes=10)
        with pytest.raises(ValueError, match="negative cycle count"):
            broken.compute_utilization(RDA_MACHINE)
        with pytest.raises(ValueError, match="negative cycle count"):
            broken.memory_utilization(RDA_MACHINE)
