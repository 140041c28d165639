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
    # Codegen backend (filled only when the session compiles under
    # backend="codegen"): emitted lines of code, emission + compile wall
    # time, and where the code object came from — "compiled" (a real
    # compile()), "memory" (the cross-graph source cache: an earlier,
    # structurally identical region already obtained it) or "disk" (the
    # disk cache's kernel file; the time is then emission + load).
    codegen_loc: int = 0
    codegen_seconds: float = 0.0
    codegen_origin: str = ""
    # Emission tier the region's kernel was generated with: the tier the
    # declarations say it will run under ("token" for blocked formats,
    # else "columnar").
    codegen_tier: str = ""
    # First 12 hex digits of the emitted source's SHA-256.  Emission is
    # name-free, so regions with equal digests share one code object.
    codegen_sha: str = ""

    @property
    def codegen_cached(self) -> bool:
        """True when another region had already obtained this kernel."""
        return self.codegen_origin == "memory"

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
    # The resolved execution backend name ("interp"/"columnar"/"codegen")
    # of the session that compiled this program.
    backend: str = ""

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

    def codegen_summary(self) -> str:
        """``N regions, M distinct kernels, K shared, D from disk``.

        Empty off codegen.  A *shared* region found its code object
        already in memory — obtained by an earlier, structurally identical
        region — and so reports emission time only; that is why its
        compile cost reads as zero.  A region *from disk* loaded its
        kernel from the disk cache instead of calling ``compile()``; the
        rest (N - K - D) compiled theirs.
        """
        kernels = [r for r in self.regions if r.codegen_loc]
        if not kernels:
            return ""
        return (
            f"{len(kernels)} region(s), "
            f"{len({r.codegen_sha for r in kernels})} distinct kernel(s), "
            f"{sum(r.codegen_cached for r in kernels)} shared, "
            f"{sum(r.codegen_origin == 'disk' for r in kernels)} from disk"
        )

    def describe(self) -> str:
        """Multi-line rendering: per-pass timings, then per-region stats."""
        lines = [
            f"compile diagnostics for {self.program} under {self.schedule}: "
            f"{len(self.regions)} region(s), {self.compile_seconds * 1e3:.1f} ms"
            + (f", backend {self.backend}" if self.backend else "")
        ]
        for name in self.pass_names:
            seconds = self.pass_seconds.get(name, 0.0)
            lines.append(f"  pass {name:20s} {seconds * 1e3:8.2f} ms")
        kernels = self.codegen_summary()
        if kernels:
            lines.append(f"  codegen: {kernels}")
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
            if region.codegen_loc:
                tier = f" {region.codegen_tier}" if region.codegen_tier else ""
                bits.append(
                    f"codegen{tier} {region.codegen_loc} LoC in "
                    f"{region.codegen_seconds * 1e3:.2f} ms"
                    + {
                        "memory": f" (shared kernel {region.codegen_sha})",
                        "disk": f" (kernel {region.codegen_sha} from disk)",
                    }.get(region.codegen_origin, "")
                )
            lines.append(f"  region {region.name}: " + ", ".join(bits))
        return "\n".join(lines)
