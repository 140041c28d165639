"""Two-level memory hierarchy: on-chip SRAM buffers over the HBM port.

A DRAM-only machine (bandwidth and latency on
:class:`~repro.comal.machines.Machine`) makes every materialized tensor a
DRAM round trip, so fused and unfused schedules differ only in
*how much* traffic they generate — capacity effects are invisible.  This
module adds the missing level: a configurable on-chip buffer
(:class:`BufferLevel`) with a byte capacity, a bank count, and per-bank
bandwidth/latency, combined with the existing DRAM parameters into a
:class:`HierarchySpec`.

Placement is decided at compile time by the ``place-memory`` pass
(:func:`repro.driver.passes.place_memory`): intermediates that cross fusion
regions are kept in the on-chip buffer while capacity lasts, and *spill* to
DRAM once it runs out; reads of a spilled intermediate are *fills*.  The
pass writes one :class:`Placement` per memory-touching node into the
compiled region's placement map (never into the graph, which compiles of
other hierarchies share); the timed engine (:mod:`repro.comal.engine`)
paces each node's traffic through the level it was placed in and reports
per-level byte counts in :class:`~repro.comal.engine.SimResult`.

The ``flat`` hierarchy (no SRAM level) reproduces the pre-hierarchy
simulator bit for bit: every placement request falls through to DRAM, and
the only new information is the spill/fill classification of cross-region
traffic.

Examples
--------
>>> spec = resolve_hierarchy("fpga-small")
>>> spec.sram.capacity_bytes
8192
>>> resolve_hierarchy("fpga-small@65536").sram.capacity_bytes
65536
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Optional, Tuple, Union


class Placement(NamedTuple):
    """Where ``place-memory`` put one node's memory traffic.

    ``level`` is ``"sram"`` or ``"dram"``; ``role`` is ``"input"``,
    ``"output"``, ``"intermediate"``, ``"spill"`` or ``"fill"``; ``bank``
    is the on-chip bank (0 off-chip); ``tile_scale`` is the split divisor
    the capacity check applied to a cross-region intermediate (1 when it
    did not enter the decision).
    """

    level: str
    role: str
    bank: int = 0
    tile_scale: int = 1


#: What a node with no placement (hand-built graphs) is served as.
UNPLACED = Placement("dram", "io")


@dataclass(frozen=True)
class BufferLevel:
    """One on-chip buffer level: capacity, banking, and port timing.

    Parameters
    ----------
    capacity_bytes:
        Total bytes of on-chip storage available to resident tensors.
        Placement stops admitting intermediates once their (dense-estimate)
        footprints exhaust this budget.
    banks:
        Number of independently ported banks.  Tensors map to banks by a
        stable hash of their name; traffic within one bank serializes
        against that bank's bandwidth while different banks proceed in
        parallel.
    bandwidth:
        Sustained bytes per cycle *per bank*.
    latency:
        Cycles from request to data for an on-chip access (pipeline fill,
        not per-beat).
    """

    capacity_bytes: int
    banks: int = 1
    bandwidth: float = 32.0
    latency: float = 2.0

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        if self.banks < 1:
            raise ValueError("banks must be >= 1")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")

    def bank_of(self, tensor_name: str) -> int:
        """Stable bank assignment for ``tensor_name`` (crc32, not ``hash``)."""
        return zlib.crc32(tensor_name.encode("utf-8")) % self.banks


@dataclass(frozen=True)
class HierarchySpec:
    """A named memory hierarchy: optional SRAM buffer level over DRAM.

    Parameters
    ----------
    name:
        Registry name (``flat``, ``fpga-small``, ...); surfaced in
        ``SimResult.hierarchy`` and sweep labels.
    sram:
        The on-chip buffer level, or ``None`` for a flat (DRAM-only)
        hierarchy.  DRAM parameters stay on the
        :class:`~repro.comal.machines.Machine` so existing machine
        configurations keep their meaning.
    """

    name: str = "flat"
    sram: Optional[BufferLevel] = None

    @property
    def has_sram(self) -> bool:
        """True when this hierarchy has a usable on-chip level."""
        return self.sram is not None and self.sram.capacity_bytes > 0

    def config(self) -> Tuple:
        """Hashable parameterization, folded into compile-flow fingerprints."""
        if self.sram is None:
            return (self.name,)
        return (
            self.name,
            self.sram.capacity_bytes,
            self.sram.banks,
            self.sram.bandwidth,
            self.sram.latency,
        )

    def scaled(self, **overrides) -> "HierarchySpec":
        """A copy with selected :class:`BufferLevel` fields replaced.

        Parameters
        ----------
        **overrides:
            ``BufferLevel`` field overrides (``capacity_bytes``, ``banks``,
            ``bandwidth``, ``latency``).  The name gains a ``@capacity``
            suffix when the capacity changes, so sweep labels stay unique.

        Returns
        -------
        HierarchySpec
            The derived hierarchy.

        Raises
        ------
        ValueError
            If called on a flat hierarchy (there is no level to scale).
        """
        if self.sram is None:
            raise ValueError(f"hierarchy {self.name!r} has no SRAM level to scale")
        sram = replace(self.sram, **overrides)
        name = self.name
        if sram.capacity_bytes != self.sram.capacity_bytes:
            base = name.split("@", 1)[0]
            name = f"{base}@{sram.capacity_bytes}"
        return HierarchySpec(name=name, sram=sram)

    def describe(self) -> str:
        """One-line human-readable summary."""
        if not self.has_sram:
            return f"{self.name}: DRAM only"
        s = self.sram
        return (
            f"{self.name}: {s.capacity_bytes} B SRAM, {s.banks} bank(s) x "
            f"{s.bandwidth:g} B/cyc, {s.latency:g} cyc latency, over DRAM"
        )


#: The no-on-chip-level hierarchy: bit-identical to the pre-hierarchy
#: simulator.  Every intermediate "spills", which is exactly what the flat
#: DRAM model always charged.
FLAT_HIERARCHY = HierarchySpec(name="flat", sram=None)

#: Named presets.  Capacities are clock-normalized stand-ins sized against
#: this reproduction's synthetic workloads (KB-scale tensors), not absolute
#: device numbers: ``fpga-*`` model BRAM-like buffers (few banks, modest
#: per-bank bandwidth, a few cycles of access latency), ``asic-*`` model
#: wider banked scratchpads with single-cycle access.
HIERARCHIES: Dict[str, HierarchySpec] = {
    "flat": FLAT_HIERARCHY,
    "fpga-small": HierarchySpec(
        "fpga-small", BufferLevel(capacity_bytes=8 << 10, banks=2, bandwidth=16.0, latency=3.0)
    ),
    "fpga-large": HierarchySpec(
        "fpga-large", BufferLevel(capacity_bytes=64 << 10, banks=4, bandwidth=32.0, latency=3.0)
    ),
    "asic-small": HierarchySpec(
        "asic-small", BufferLevel(capacity_bytes=32 << 10, banks=4, bandwidth=64.0, latency=1.0)
    ),
    "asic-large": HierarchySpec(
        "asic-large", BufferLevel(capacity_bytes=256 << 10, banks=8, bandwidth=64.0, latency=1.0)
    ),
}


def resolve_hierarchy(
    value: Union[str, HierarchySpec, None],
) -> HierarchySpec:
    """Resolve a hierarchy argument to a :class:`HierarchySpec`.

    Parameters
    ----------
    value:
        ``None`` (the flat hierarchy), an existing spec (returned as-is), a
        preset name from :data:`HIERARCHIES`, or ``"preset@bytes"`` — a
        preset with its SRAM capacity overridden, which is how sweeps grid
        over buffer sizes (e.g. ``fpga-small@16384``).

    Returns
    -------
    HierarchySpec

    Raises
    ------
    ValueError
        For unknown preset names or malformed capacity overrides.
    """
    if value is None:
        return FLAT_HIERARCHY
    if isinstance(value, HierarchySpec):
        return value
    name, sep, cap = value.partition("@")
    spec = HIERARCHIES.get(name)
    if spec is None:
        raise ValueError(
            f"unknown hierarchy {name!r}; known: {sorted(HIERARCHIES)} "
            "(optionally with @capacity_bytes, e.g. 'fpga-small@16384')"
        )
    if not sep:
        return spec
    try:
        capacity = int(cap)
    except ValueError:
        raise ValueError(
            f"bad capacity override in {value!r}: {cap!r} is not an integer"
        ) from None
    if spec.sram is None:
        raise ValueError(f"hierarchy {name!r} is flat; cannot override capacity")
    return spec.scaled(capacity_bytes=capacity)


def dense_estimate_bytes(shape: Tuple[int, ...], fmt=None) -> int:
    """Compile-time footprint estimate for placement decisions.

    The placement pass cannot see runtime sparsity, so it budgets the
    worst case: 8 bytes per (possibly blocked) element of the dense shape.
    Conservative by design — a tensor admitted on-chip is guaranteed to
    fit, while an over-estimate only costs a spill that the flat model
    would have charged anyway.

    Parameters
    ----------
    shape:
        Level shape of the tensor (blocked tensors: blocks per mode).
    fmt:
        Optional :class:`~repro.ftree.format.Format`; blocked formats
        multiply in the block element count.

    Returns
    -------
    int
        Estimated bytes.
    """
    total = 8
    for extent in shape:
        total *= int(extent)
    if fmt is not None and getattr(fmt, "is_blocked", False):
        for extent in fmt.block_shape:
            total *= int(extent)
    return total
