"""Autoscheduler, simulation trace, and CLI tests."""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.comal import RDA_MACHINE, run_timed
from repro.comal.trace import (
    bottleneck,
    busy_by_class,
    chrome_trace,
    node_reports,
    render_report,
)
from repro.core.heuristic.model import stats_from_binding
from repro.core.schedule.autotune import (
    autotune,
    contiguous_partitions,
    enumerate_schedules,
)
from repro.core.fusion.fuse import fuse_region
from repro.core.tables.lower import RegionLowerer
from repro.core.einsum.parser import parse_program
from repro.ftree import SparseTensor, csr, dense
from repro.models.gcn import gcn_on_synthetic
from repro.driver.session import default_session

# One shared session: its compile cache spans this module's tests.
run = default_session().run


class TestContiguousPartitions:
    def test_counts(self):
        # 2^(n-1) contiguous partitions of n statements.
        assert len(contiguous_partitions(1)) == 1
        assert len(contiguous_partitions(3)) == 4
        assert len(contiguous_partitions(5)) == 16

    def test_cap(self):
        assert len(contiguous_partitions(12, max_partitions=20)) == 20

    def test_each_is_a_partition(self):
        for partition in contiguous_partitions(4):
            flat = [sid for region in partition for sid in region]
            assert flat == [0, 1, 2, 3]

    def test_coarsest_first(self):
        partitions = contiguous_partitions(3)
        assert partitions[0] == [[0, 1, 2]]


class TestAutotune:
    @pytest.fixture(scope="class")
    def bundle(self):
        return gcn_on_synthetic(nodes=30, density=0.1, seed=0)

    def test_enumerate_schedules(self, bundle):
        schedules = enumerate_schedules(bundle.program, max_candidates=8)
        assert len(schedules) == 8
        for schedule in schedules:
            schedule.validate(bundle.program)

    def test_autotune_finds_good_schedule(self, bundle):
        stats = stats_from_binding(bundle.binding)
        tuned = autotune(
            bundle.program,
            bundle.binding,
            stats,
            candidates=bundle.schedules(),
            budget=3,
        )
        # The tuned pick must match the exhaustive simulation winner.
        cycles = {
            s.name: run(bundle.program, bundle.binding, s).metrics.cycles
            for s in bundle.schedules()
        }
        assert tuned.best.name == min(cycles, key=cycles.get)
        assert tuned.measured_cycles == pytest.approx(min(cycles.values()))
        assert tuned.evaluations <= 3

    def test_autotune_enumerated_space(self, bundle):
        stats = stats_from_binding(bundle.binding)
        tuned = autotune(
            bundle.program, bundle.binding, stats,
            budget=2, max_candidates=12,
        )
        assert tuned.candidates_considered > 2
        # The winner beats (or ties) the unfused baseline.
        unfused_cycles = run(
            bundle.program, bundle.binding, bundle.schedule("unfused")
        ).metrics.cycles
        assert tuned.measured_cycles <= unfused_cycles * 1.05


@pytest.fixture
def spmm_run():
    prog = parse_program(
        "tensor A(8, 8): csr\ntensor X(8, 4): dense\nT(i, j) = A(i, k) * X(k, j)"
    )
    lowerer = RegionLowerer(fuse_region(prog, [0]), prog.decls)
    graph = lowerer.lower()
    rng = np.random.default_rng(0)
    binding = {
        "A": SparseTensor.from_dense(
            (rng.random((8, 8)) < 0.4) * rng.random((8, 8)), csr(), "A"
        ),
        "X": SparseTensor.from_dense(rng.random((8, 4)), dense(2), "X"),
    }
    return graph, run_timed(graph, binding)


class TestTrace:
    def test_node_reports_sorted(self, spmm_run):
        graph, result = spmm_run
        reports = node_reports(graph, result)
        assert len(reports) == graph.node_count()
        busy = [r.busy_cycles for r in reports]
        assert busy == sorted(busy, reverse=True)

    def test_bottleneck_is_busiest(self, spmm_run):
        graph, result = spmm_run
        top = bottleneck(graph, result)
        assert top.busy_cycles == max(result.node_busy.values())

    def test_busy_by_class(self, spmm_run):
        graph, result = spmm_run
        by_class = busy_by_class(graph, result)
        assert "scan" in by_class and by_class["scan"] > 0

    def test_chrome_trace_valid_json(self, spmm_run):
        graph, result = spmm_run
        trace = json.loads(chrome_trace(graph, result))
        assert len(trace["traceEvents"]) == graph.node_count()
        for event in trace["traceEvents"]:
            assert event["ph"] == "X" and event["dur"] > 0

    def test_render_report(self, spmm_run):
        graph, result = spmm_run
        text = render_report(graph, result, top=5)
        assert "cycles" in text and "scan" in text


class TestCLI:
    def test_run_gcn(self, capsys):
        code = cli_main(
            ["run", "--model", "gcn", "--nodes", "30", "--density", "0.1",
             "--fusion", "partial"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cycles" in out and "max |err|" in out

    def test_sweep_quick(self, capsys):
        code = cli_main(["sweep", "quick", "--model", "sae", "--nodes", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "unfused" in out and "full" in out

    def test_estimate(self, capsys):
        code = cli_main(["estimate", "--model", "gcn", "--nodes", "24"])
        out = capsys.readouterr().out
        assert code == 0
        assert "schedule" in out

    def test_compile_show_table(self, capsys):
        code = cli_main(
            ["compile", "--model", "gcn", "--nodes", "24", "--fusion",
             "partial", "--show-table"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fusion table" in out

    def test_run_with_par(self, capsys):
        code = cli_main(
            ["run", "--model", "sae", "--nodes", "16", "--fusion", "full"]
        )
        assert code == 0

    def test_gpt3(self, capsys):
        code = cli_main(
            ["run", "--model", "gpt3", "--seq-len", "16", "--d-model", "8",
             "--block", "4", "--fusion", "full"]
        )
        assert code == 0
