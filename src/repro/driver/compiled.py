"""Compiled artifacts and the region-chaining executor.

These dataclasses are the driver's output format: a
:class:`CompiledProgram` is a list of per-region SAMML graphs plus the
declaration registry grown during lowering, and :func:`execute_compiled`
runs the region graphs in order on a machine, materializing region outputs
and binding them as inputs of later regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..comal.engine import SimResult, run_timed
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
    # Materialized transposed views, keyed by (source tensor id, new name).
    # Reusing them keeps binding identities stable across executions (the
    # simulator memo keys on them); the DRAM/cycle cost of the permuted
    # copy is still charged on every execution, as the timing model demands.
    transpose_cache: Dict[Tuple[int, str], Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __getstate__(self):
        # The transpose cache is keyed by live object ids; serialized (the
        # persistent compile cache pickles CompiledPrograms to disk) those
        # keys are dangling, so the cache travels empty and refills on use.
        state = dict(self.__dict__)
        state["transpose_cache"] = {}
        return state

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


def execute_compiled(
    compiled: CompiledProgram,
    binding: Dict[str, SparseTensor],
    machine: Machine = RDA_MACHINE,
    *,
    backend: Optional[str] = None,
    debug_streams: Optional[bool] = None,
    cache: bool = True,
) -> ProgramResult:
    """Run all region graphs in order, chaining materialized outputs.

    Parameters
    ----------
    compiled:
        The compiled program.
    binding:
        Tensor name -> tensor for the program's inputs; region outputs
        are bound as they materialize.
    machine:
        Timing model (and memory hierarchy) the regions simulate on.
    backend, debug_streams, cache:
        Execution backend, per-stream protocol checking, and result
        memoization of the underlying simulations (see
        :func:`repro.comal.functional.run_functional`).

    Returns
    -------
    ProgramResult
    """
    bind: Dict[str, Any] = dict(binding)
    metrics = ProgramMetrics(label=compiled.schedule.name)
    produced: Dict[str, SparseTensor] = {}
    region_results: List[SimResult] = []
    for region in compiled.regions:
        for orig, new_name, mode_order in region.transposes:
            if new_name not in bind:
                source = bind[orig]
                tkey = (id(source), new_name)
                copy = compiled.transpose_cache.get(tkey)
                if copy is None:
                    if len(compiled.transpose_cache) > 32:
                        compiled.transpose_cache.clear()
                    copy = source.permuted_copy(mode_order, name=new_name)
                    compiled.transpose_cache[tkey] = copy
                    # Keep the source pinned so its id stays valid.
                    compiled.transpose_cache[(id(source), f"{new_name}#src")] = source
                bind[new_name] = copy
                # A permuted copy is a DRAM round trip of the whole tensor.
                extra = 2 * source.bytes_total()
                metrics.dram_bytes += extra
                metrics.cycles += extra / machine.dram_bandwidth
        result = run_timed(
            region.graph,
            bind,
            machine,
            backend=backend,
            debug_streams=debug_streams,
            cache=cache,
        )
        metrics.add(result, region.graph.name)
        for name, tensor in result.results.items():
            bind[name] = tensor
            produced[name] = tensor
        region_results.append(result)
    return ProgramResult(metrics=metrics, tensors=produced, region_results=region_results)
