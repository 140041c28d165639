"""Compiled artifacts and the region-chaining executor.

These dataclasses are the driver's output format: a
:class:`CompiledProgram` is a list of per-region SAMML graphs plus the
declaration registry grown during lowering, and :func:`execute_compiled`
runs the region graphs in order (:func:`functional_stage`), materializing
region outputs and binding them as inputs of later regions, then times
that run on a machine (:func:`time_stage`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from ..comal.engine import SimResult, run_timed
from ..comal.functional import FunctionalResult, default_debug_streams, run_functional
from ..comal.machines import Machine, RDA_MACHINE
from ..comal.metrics import ProgramMetrics
from ..core.einsum.ast import EinsumProgram, TensorDecl
from ..core.fusion.fuse import FusedEinsum
from ..core.schedule.schedule import Schedule
from ..core.tables.lower import OutputSpec
from ..ftree.tensor import SparseTensor
from ..sam.graph import SAMGraph


@dataclass
class CompiledRegion:
    """One fused region's compiled form."""

    graph: SAMGraph
    fused: FusedEinsum
    order: List[str]
    output_specs: List[OutputSpec]
    table_text: str
    # Permuted copies to materialize: (original tensor, new name, mode order).
    transposes: List[Tuple[str, str, Tuple[int, ...]]] = field(default_factory=list)


@dataclass
class CompiledProgram:
    """A compiled model: region graphs plus declaration registry."""

    program: EinsumProgram
    schedule: Schedule
    regions: List[CompiledRegion]
    decls: Dict[str, TensorDecl]
    compile_seconds: float = 0.0

    @cached_property
    def signature(self) -> Tuple:
        """Per region, its name and each node's (id, kind) in topological
        order (once: regions are fixed after compile).  A
        :class:`FunctionalRun` times only a compile of equal signature."""
        return tuple(
            (
                r.graph.name,
                tuple(
                    (nid, r.graph.nodes[nid].prim.kind)
                    for nid in r.graph.topological_order()
                ),
            )
            for r in self.regions
        )

    def total_nodes(self) -> int:
        """Total SAMML node count across all lowered regions."""
        return sum(r.graph.node_count() for r in self.regions)

    def describe(self) -> str:
        """Multi-line summary: per-region orders, node counts, outputs."""
        lines = [
            f"compiled {self.program.name} under {self.schedule.name}: "
            f"{len(self.regions)} region(s), {self.total_nodes()} nodes, "
            f"{self.compile_seconds * 1e3:.1f} ms"
        ]
        for region in self.regions:
            lines.append(
                f"  {region.graph.name}: order {region.order}, "
                f"{region.graph.node_count()} nodes, outputs "
                f"{[s.name for s in region.output_specs]}"
            )
        return "\n".join(lines)


@dataclass
class ProgramResult:
    """Outcome of executing a compiled program.

    Attributes
    ----------
    metrics:
        Program-level accumulation (cycles, FLOPs, per-level bytes).
    tensors:
        Every tensor materialized during execution, by name.
    region_results:
        One :class:`~repro.comal.engine.SimResult` per region, in order.
    """

    metrics: ProgramMetrics
    tensors: Dict[str, SparseTensor]
    region_results: List[SimResult] = field(default_factory=list)

    def output(self, name: str) -> SparseTensor:
        """The materialized tensor called ``name`` (KeyError if absent)."""
        return self.tensors[name]


@dataclass
class FunctionalRun:
    """The machine-free stage of one execution: per region, its functional
    result (operand reads pending, streams only under ``debug_streams``)
    and its permuted copies' DRAM bytes.  ``signature`` is the compile's
    :attr:`CompiledProgram.signature`."""

    signature: Tuple
    regions: List[FunctionalResult] = field(default_factory=list)
    transposes: List[Tuple[int, ...]] = field(default_factory=list)


def functional_stage(
    compiled: CompiledProgram,
    binding: Dict[str, SparseTensor],
    *,
    tier: Optional[str] = None,
    debug_streams: Optional[bool] = None,
) -> FunctionalRun:
    """Run every region with no machine, chaining materialized outputs:
    permuted copies and each region's results bind as later regions'
    inputs.  Without ``debug_streams`` each region keeps its port lengths
    in place of its streams.  ``tier`` forces every region onto one tier
    (tests only; see :func:`~repro.comal.functional.run_functional`)."""
    if debug_streams is None:
        debug_streams = default_debug_streams()
    bind: Dict[str, Any] = dict(binding)
    run = FunctionalRun(compiled.signature)
    for region in compiled.regions:
        extras = []
        for orig, new_name, mode_order in region.transposes:
            if new_name not in bind:
                source = bind[orig]
                bind[new_name] = source.permuted_copy(mode_order, name=new_name)
                # A permuted copy is a DRAM round trip of the whole tensor.
                extras.append(2 * source.bytes_total())
        func = run_functional(
            region.graph, bind, None, tier=tier, debug_streams=debug_streams
        )
        if not debug_streams:
            func.lengths, func.streams = func.port_lengths(), {}
        run.regions.append(func)
        run.transposes.append(tuple(extras))
        bind.update(func.results)
    return run


def time_stage(
    compiled: CompiledProgram, run: FunctionalRun, machine: Machine
) -> ProgramResult:
    """Time a :func:`functional_stage` run of ``compiled`` region by region
    on ``machine``, charging each permuted copy's DRAM round trip."""
    metrics = ProgramMetrics(label=compiled.schedule.name)
    produced: Dict[str, SparseTensor] = {}
    region_results: List[SimResult] = []
    for region, func, extras in zip(compiled.regions, run.regions, run.transposes):
        for extra in extras:
            metrics.dram_bytes += extra
            metrics.cycles += extra / machine.dram_bandwidth
        result = run_timed(region.graph, {}, machine, func)
        metrics.add(result, region.graph.name)
        region_results.append(result)
        produced.update(result.results)
    return ProgramResult(metrics, produced, region_results)


def execute_compiled(
    compiled: CompiledProgram,
    binding: Dict[str, SparseTensor],
    machine: Machine = RDA_MACHINE,
    *,
    debug_streams: Optional[bool] = None,
) -> ProgramResult:
    """Run ``compiled`` on ``binding`` (:func:`functional_stage`) and time
    it on ``machine`` (:func:`time_stage`)."""
    run = functional_stage(compiled, binding, debug_streams=debug_streams)
    return time_stage(compiled, run, machine)
