"""Machine models: per-primitive timing tables for the simulator backends.

A :class:`Machine` assigns each primitive timing class an initiation interval
(cycles per token at steady state) and a pipeline latency, plus DRAM
parameters.  Three machines are provided:

``RDA_MACHINE``
    The default reconfigurable-dataflow-accelerator model used for the main
    evaluation (the Comal configuration of the paper).
``FPGA_MACHINE``
    An independently parameterized model standing in for the paper's
    post-synthesis Xilinx VU9P RTL simulation (Section 8.2): slower
    clock-normalized scanners/joiners and BRAM-like memory.  Used only for
    the Figure 13 correlation study.
``GPU_MACHINE``
    A throughput-oriented model with wide vector lanes and high-latency
    memory, used by the Figure 1 utilization motivation experiment.

:data:`MACHINES` also names two scaled copies of ``RDA_MACHINE`` that the
scorecard's fusion sweeps run on, ``rda-membound`` and ``rda-balanced``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Union

from .hierarchy import (
    FLAT_HIERARCHY,
    HIERARCHIES,
    HierarchySpec,
    resolve_hierarchy,
)


@dataclass(frozen=True)
class Machine:
    """Timing parameterization of one dataflow backend."""

    name: str
    ii: Dict[str, float] = field(default_factory=dict)
    latency: Dict[str, float] = field(default_factory=dict)
    default_ii: float = 1.0
    default_latency: float = 1.0
    dram_bandwidth: float = 64.0
    dram_latency: float = 100.0
    vector_width: int = 16
    # Peak ALU throughput (FLOPs/cycle) used for utilization reporting.
    peak_flops_per_cycle: float = 64.0
    # On-chip scratchpad capacity for operand residency.
    scratchpad_bytes: int = 1 << 16
    # Memory hierarchy: the flat default is the pre-hierarchy DRAM-only
    # model; named presets add an on-chip buffer level (see
    # repro.comal.hierarchy.HIERARCHIES and Machine.with_hierarchy).
    hierarchy: HierarchySpec = FLAT_HIERARCHY

    def ii_of(self, timing_class: str) -> float:
        return self.ii.get(timing_class, self.default_ii)

    def latency_of(self, timing_class: str) -> float:
        return self.latency.get(timing_class, self.default_latency)

    def scaled(self, **overrides) -> "Machine":
        """Return a copy with selected fields replaced."""
        return replace(self, **overrides)

    def with_hierarchy(self, hierarchy: Union[str, HierarchySpec]) -> "Machine":
        """A copy of this machine running a named (or explicit) hierarchy.

        Accepts everything :func:`~repro.comal.hierarchy.resolve_hierarchy`
        does: a preset name (``"fpga-small"``), a capacity-overridden preset
        (``"fpga-small@16384"``), or a :class:`HierarchySpec`.

        A hierarchy with an SRAM level also pins ``scratchpad_bytes`` (the
        functional layer's operand-residency budget) to the same capacity:
        the machine has exactly one on-chip storage size, so a machine
        modeled with 8 KiB of SRAM must not keep a 64 KiB operand-staging
        discount.  Operand staging and intermediate residency share the
        budget rather than being jointly accounted — a documented
        approximation (see ``docs/memory.md``).
        """
        spec = resolve_hierarchy(hierarchy)
        if spec.has_sram:
            return replace(
                self, hierarchy=spec, scratchpad_bytes=spec.sram.capacity_bytes
            )
        if (
            self.hierarchy.has_sram
            and self.scratchpad_bytes == self.hierarchy.sram.capacity_bytes
        ):
            # Moving back to flat un-pins a scratchpad a previous
            # with_hierarchy pinned, so flat-vs-flat comparisons stay
            # bit-identical.  (A custom scratchpad set before pinning is
            # not recoverable; the field default is the flat baseline.)
            default = type(self).__dataclass_fields__["scratchpad_bytes"].default
            return replace(self, hierarchy=spec, scratchpad_bytes=default)
        return replace(self, hierarchy=spec)


RDA_MACHINE = Machine(
    name="rda",
    ii={
        "scan": 1.0,
        "locate": 2.0,
        "intersect": 1.0,
        "union": 1.0,
        "repeat": 1.0,
        "alu": 1.0,
        "ualu": 1.0,
        "array": 1.0,
        "reduce": 1.0,
        "vreduce": 1.0,
        "aligncheck": 1.0,
        "write": 1.0,
        "softmax": 2.0,
        "layernorm": 2.0,
        "root": 1.0,
        "source": 1.0,
    },
    latency={
        "scan": 2.0,
        "locate": 4.0,
        "intersect": 2.0,
        "union": 2.0,
        "repeat": 1.0,
        "alu": 2.0,
        "ualu": 2.0,
        "array": 4.0,
        "reduce": 2.0,
        "vreduce": 4.0,
        "write": 2.0,
        "softmax": 8.0,
        "layernorm": 8.0,
    },
    dram_bandwidth=64.0,
    dram_latency=100.0,
    vector_width=16,
    peak_flops_per_cycle=64.0,
)

FPGA_MACHINE = Machine(
    name="fpga",
    ii={
        "scan": 2.0,
        "locate": 3.0,
        "intersect": 2.0,
        "union": 2.0,
        "repeat": 1.0,
        "alu": 1.0,
        "ualu": 2.0,
        "array": 2.0,
        "reduce": 1.0,
        "vreduce": 2.0,
        "aligncheck": 1.0,
        "write": 2.0,
        "softmax": 4.0,
        "layernorm": 4.0,
    },
    latency={
        "scan": 4.0,
        "locate": 8.0,
        "intersect": 5.0,
        "union": 5.0,
        "repeat": 2.0,
        "alu": 5.0,
        "ualu": 6.0,
        "array": 2.0,
        "reduce": 4.0,
        "vreduce": 8.0,
        "write": 4.0,
        "softmax": 16.0,
        "layernorm": 16.0,
    },
    # Kernels chosen for validation fit in on-chip BRAM (paper Section 8.2).
    dram_bandwidth=32.0,
    dram_latency=4.0,
    vector_width=8,
    peak_flops_per_cycle=32.0,
)

GPU_MACHINE = Machine(
    name="gpu",
    default_ii=1.0,
    default_latency=4.0,
    dram_bandwidth=512.0,
    dram_latency=400.0,
    vector_width=32,
    peak_flops_per_cycle=1024.0,
)

MACHINES = {m.name: m for m in (RDA_MACHINE, FPGA_MACHINE, GPU_MACHINE)}
# Scaled RDA configurations: bandwidth-dominated (large graphs against fixed
# HBM: 16x vector compute, 4 B/cycle DRAM) and balanced (8x compute against
# 8 B/cycle, so both recomputation FLOPs and data movement matter).
for _name, _lanes, _bandwidth in (("rda-membound", 16, 4.0), ("rda-balanced", 8, 8.0)):
    MACHINES[_name] = RDA_MACHINE.scaled(
        name=_name,
        dram_bandwidth=_bandwidth,
        default_ii=1 / _lanes,
        ii={k: v / _lanes for k, v in RDA_MACHINE.ii.items()},
    )

#: Re-exported hierarchy presets so machine configuration is one import:
#: ``MACHINES["rda"].with_hierarchy("fpga-small")``.
__all__ = [
    "Machine",
    "MACHINES",
    "RDA_MACHINE",
    "FPGA_MACHINE",
    "GPU_MACHINE",
    "HIERARCHIES",
    "HierarchySpec",
    "resolve_hierarchy",
]
