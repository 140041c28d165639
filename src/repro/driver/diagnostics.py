"""Structured compile diagnostics.

The monolithic seed pipeline was opaque: order fallback happened silently,
mask folding was skipped without a trace, and the only observable output
was the final graph.  The driver records what each pass actually did —
per-pass wall time, per-region statistics, which passes were skipped and
why, and how many dataflow orders the lowerer had to try before one was
stream-compatible (the paper's Section 7 order enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class RegionDiagnostics:
    """What the compile flow did to one fusion region."""

    name: str
    position: int
    sids: List[int]
    # Fused statement count (after cloning/recomputation during fusion).
    statements: int = 0
    # Lowering attempts; 1 means the first candidate order worked.
    order_attempts: int = 0
    # The dataflow orders tried, in attempt order (last one succeeded).
    orders_tried: List[Tuple[str, ...]] = field(default_factory=list)
    # True when the schedule pinned this region's order (no fallback runs).
    pinned_order: bool = False
    node_count: int = 0
    # Views resolved by materializing a permuted copy (POG cycle breaks).
    transposed_views: int = 0
    # Index splits applied to this region (split-indices pass): index
    # variable -> tile count, after filtering to indices the region
    # actually iterates.
    split_indices: Dict[str, int] = field(default_factory=dict)
    # Memory placement (place-memory pass): nodes served by the on-chip
    # buffer, region outputs that spilled to DRAM, and the cumulative
    # on-chip bytes reserved after this region compiled.
    sram_placed: int = 0
    spilled_outputs: int = 0
    sram_reserved: int = 0
    # Passes that ran but decided they did not apply, with a reason.
    skipped_passes: Dict[str, str] = field(default_factory=dict)
    # Kernel lines emitted for this region.  Nothing is emitted any more,
    # so it reads 0; kept for frozen ``bench/``, which sums it.
    codegen_loc: int = 0

    @property
    def order_fallbacks(self) -> int:
        """Orders rejected before one lowered (0 = first order worked)."""
        return max(0, self.order_attempts - 1)


@dataclass
class CompileDiagnostics:
    """Everything one :meth:`PassPipeline.run` observed."""

    program: str = ""
    schedule: str = ""
    pass_names: List[str] = field(default_factory=list)
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    regions: List[RegionDiagnostics] = field(default_factory=list)
    compile_seconds: float = 0.0

    def order_fallbacks(self) -> int:
        """Total rejected dataflow orders across all regions."""
        return sum(region.order_fallbacks for region in self.regions)

    def skipped(self) -> Dict[str, List[str]]:
        """Pass name -> region names where the pass did not apply."""
        out: Dict[str, List[str]] = {}
        for region in self.regions:
            for name in region.skipped_passes:
                out.setdefault(name, []).append(region.name)
        return out

    def describe(self) -> str:
        """Multi-line rendering: per-pass timings, then per-region stats."""
        lines = [
            f"compile diagnostics for {self.program} under {self.schedule}: "
            f"{len(self.regions)} region(s), {self.compile_seconds * 1e3:.1f} ms"
        ]
        for name in self.pass_names:
            seconds = self.pass_seconds.get(name, 0.0)
            lines.append(f"  pass {name:20s} {seconds * 1e3:8.2f} ms")
        for region in self.regions:
            bits = [
                f"{region.statements} stmt(s)",
                f"{region.node_count} nodes",
                f"{region.order_attempts} order attempt(s)",
            ]
            if region.pinned_order:
                bits.append("pinned order")
            if region.transposed_views:
                bits.append(f"{region.transposed_views} permuted copy(ies)")
            if region.split_indices:
                bits.append(
                    "split "
                    + ",".join(
                        f"{idx}/{t}" for idx, t in region.split_indices.items()
                    )
                )
            if region.sram_placed:
                bits.append(
                    f"{region.sram_placed} node(s) on-chip "
                    f"({region.sram_reserved} B reserved)"
                )
            if region.spilled_outputs:
                bits.append(f"{region.spilled_outputs} output(s) spilled")
            if region.skipped_passes:
                bits.append(f"skipped {sorted(region.skipped_passes)}")
            lines.append(f"  region {region.name}: " + ", ".join(bits))
        return "\n".join(lines)
