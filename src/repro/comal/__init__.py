"""Comal-like dataflow simulator: functional + timed execution, memory, machines."""

from .engine import SimResult, run_timed
from .functional import FunctionalResult, run_functional
from .hierarchy import (
    FLAT_HIERARCHY,
    HIERARCHIES,
    BufferLevel,
    HierarchySpec,
    resolve_hierarchy,
)
from .machines import FPGA_MACHINE, GPU_MACHINE, MACHINES, RDA_MACHINE, Machine
from .metrics import ProgramMetrics, format_table, speedup_table
from .trace import bottleneck, busy_by_class, chrome_trace, node_reports, render_report

__all__ = [
    "run_functional",
    "run_timed",
    "FunctionalResult",
    "SimResult",
    "Machine",
    "RDA_MACHINE",
    "FPGA_MACHINE",
    "GPU_MACHINE",
    "MACHINES",
    "BufferLevel",
    "HierarchySpec",
    "HIERARCHIES",
    "FLAT_HIERARCHY",
    "resolve_hierarchy",
    "ProgramMetrics",
    "speedup_table",
    "format_table",
    "node_reports",
    "bottleneck",
    "busy_by_class",
    "chrome_trace",
    "render_report",
]
