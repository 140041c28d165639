"""Aggregated program metrics across multi-kernel executions.

A compiled model is a sequence of SAMML graphs (one per fusion region); this
module accumulates their simulation results into program-level metrics and
provides the derived quantities the paper's figures report (speedups,
operational intensity, utilization percentages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .engine import SimResult, Utilization


@dataclass
class ProgramMetrics(Utilization):
    """Cycles/FLOPs/bytes accumulated over the kernels of one program.

    ``dram_bytes`` counts off-chip traffic only; ``sram_bytes`` counts
    traffic absorbed by the on-chip buffer level, and
    ``spill_bytes``/``fill_bytes`` classify the DRAM share caused by
    cross-region intermediates (see :mod:`repro.comal.hierarchy`).  Under
    the flat hierarchy ``sram_bytes`` is zero and ``dram_bytes`` matches
    the pre-hierarchy accounting exactly.
    """

    label: str = "program"
    cycles: float = 0.0
    flops: int = 0
    dram_bytes: int = 0
    tokens: int = 0
    sram_bytes: int = 0
    spill_bytes: int = 0
    fill_bytes: int = 0
    kernel_cycles: List[float] = field(default_factory=list)

    def add(self, result: SimResult) -> None:
        """Accumulate one kernel's :class:`SimResult` into this program."""
        self.cycles += result.cycles
        self.flops += result.flops
        self.dram_bytes += result.dram_bytes
        self.tokens += result.tokens
        self.sram_bytes += result.sram_bytes
        self.spill_bytes += result.spill_bytes
        self.fill_bytes += result.fill_bytes
        self.kernel_cycles.append(result.cycles)

    @property
    def num_kernels(self) -> int:
        return len(self.kernel_cycles)

    def traffic_by_level(self) -> Dict[str, int]:
        """Byte traffic per memory level, plus the spill/fill breakdown.

        Returns
        -------
        dict
            ``{"dram": ..., "sram": ..., "spill": ..., "fill": ...}`` where
            spill/fill are subsets of the DRAM total, not extra traffic.
        """
        return {
            "dram": self.dram_bytes,
            "sram": self.sram_bytes,
            "spill": self.spill_bytes,
            "fill": self.fill_bytes,
        }


def format_table(rows: List[List[str]], header: List[str]) -> str:
    """Render a fixed-width text table (used by benchmark reports)."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: List[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
