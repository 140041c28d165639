"""The compile flow's passes over fusion regions.

The flow is fixed (:data:`~repro.driver.pipeline.DEFAULT_PASS_ORDER`); what
each pass does to a region is the schedule's or the hierarchy's say.  The
front end (``fuse-regions``, ``fold-masks``, ``merge-contractions``) is
:func:`~repro.core.fusion.fuse.front_end`, which the fusion heuristic
shares; the back-end passes here are plain ``(ctx, region)`` functions,
listed in :data:`BACK_END`.

Passes are *region-scoped*: the flow feeds every region through the
passes in schedule order, because lowering region *i* registers the
declarations (materialized outputs) that constrain the fusion of region
*i + 1* — the stages cannot be globally barriered without losing that
dataflow.  A pass mutates the :class:`RegionState` it is given and records
what it did in the region's diagnostics.

Every pass but ``place-memory`` is a function of the region's lowering
context alone, never of the hierarchy, so its graph can be shared by the
compiles of every hierarchy and schedule
(:class:`~repro.driver.pipeline.RegionStore`): ``place-memory`` writes its
decisions into the region's placement map, never into the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..comal.hierarchy import (
    FLAT_HIERARCHY,
    HierarchySpec,
    Placement,
    dense_estimate_bytes,
)
from ..core.einsum.ast import EinsumProgram, TensorDecl
from ..core.fusion.fuse import FusedEinsum, ProgramUses
from ..core.schedule.par import apply_parallelization
from ..core.schedule.schedule import Schedule
from ..core.schedule.split import (
    apply_split,
    is_tile_index,
    split_footprint_scale,
    tile_index_name,
)
from ..core.tables.lower import LoweringError, OutputSpec, RegionLowerer
from ..sam.graph import SAMGraph
from .diagnostics import RegionDiagnostics


@dataclass
class RegionState:
    """Mutable per-region state threaded through the pass list."""

    position: int
    sids: List[int]
    name: str
    diag: RegionDiagnostics
    fused: Optional[FusedEinsum] = None
    graph: Optional[SAMGraph] = None
    order: Optional[List[str]] = None
    # Index splits that apply to this region (split_indices), in the
    # schedule's declaration order; lower-region materializes them as an
    # outer tile index + node tile factors, place-memory scales footprints.
    splits: Dict[str, int] = field(default_factory=dict)
    output_specs: List[OutputSpec] = field(default_factory=list)
    table_text: str = ""
    transposes: List[Tuple[str, str, Tuple[int, ...]]] = field(default_factory=list)
    # Node id -> where place-memory put its traffic.
    placement: Dict[str, Placement] = field(default_factory=dict)


@dataclass
class PassContext:
    """Shared state: the program, schedule, hierarchy, and declarations.

    Attributes
    ----------
    program:
        The Einsum program being compiled.
    schedule:
        The schedule driving fusion/ordering/parallelization decisions.
    hierarchy:
        The memory hierarchy ``place-memory`` places region outputs in.
    decls:
        Starts as the program's declarations; lowering appends materialized
        region outputs so later regions see their shapes and formats.
    placements:
        Tensor name -> memory level (``"sram"``/``"dram"``) decided by the
        ``place-memory`` pass when the producing region was compiled;
        consuming regions look their operands up here.
    sram_reserved:
        Bytes of on-chip buffer capacity already granted to resident
        intermediates (the allocation is program-lifetime: regions execute
        back to back and resident tensors persist across the boundary).
    uses, last_read:
        The program's readers and outputs (scanned once per program, see
        :class:`~repro.driver.pipeline.RegionStore`), and per tensor the
        last region position that reads it: fusing and placing a region
        never rescan the whole program.
    """

    program: EinsumProgram
    schedule: Schedule
    uses: ProgramUses
    hierarchy: HierarchySpec = FLAT_HIERARCHY
    # Starts as the program's declarations; lowering appends materialized
    # region outputs so later regions see their shapes and formats.
    decls: Dict[str, TensorDecl] = field(default_factory=dict)
    placements: Dict[str, str] = field(default_factory=dict)
    sram_reserved: int = 0
    last_read: Dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.last_read = {}
        for position, sids in enumerate(self.schedule.regions):
            for sid in sids:
                for acc in self.program.statements[sid].operands:
                    self.last_read[acc.tensor] = position


#: The orders ``lower-region`` tries per region before giving up.
MAX_ORDER_ATTEMPTS = 200

#: How the error of a region no order lowers begins; the fused region's
#: name follows.
NO_ORDER_LOWERS = "no valid dataflow order lowers region "


def split_indices(ctx: PassContext, region: RegionState) -> None:
    """``split-indices``: record the schedule splits this region iterates.

    The classic third axis of spatial-accelerator scheduling next to fusion
    granularity and parallelization: ``Schedule.splits`` maps an index
    variable to a tile count, and the region then iterates an outer tile
    index, streaming one tile of the split dimension at a time.

    This pass runs *before* ``lower-region``: it decides which of the
    schedule's splits the region actually iterates (names live in the
    unified per-region index namespace, exactly like ``Schedule.par``) and
    records them on the region state.  Lowering then materializes the
    decision — prepending the synthetic outer tile index to the dataflow
    order and annotating every node inside the tiled loop with its tile
    factor (via :func:`~repro.core.schedule.split.apply_split`) — and
    ``place-memory`` divides the dense-estimate footprint of each tiled
    region output by its tile scale, which is what lets a split convert
    DRAM spill traffic into on-chip traffic.

    The functional results are untouched: tiling iterates the same
    coordinates in the same order, just in ``T`` contiguous chunks, so a
    split schedule is bit-exact against its unsplit counterpart.
    """
    if not ctx.schedule.splits:
        region.diag.skipped_passes["split-indices"] = "schedule has no splits"
        return
    region_indices = {
        idx for stmt in region.fused.statements for idx in stmt.all_indices()
    }
    applied = {
        index_var: tiles
        for index_var, tiles in ctx.schedule.splits.items()
        if tiles > 1 and index_var in region_indices
    }
    if not applied:
        region.diag.skipped_passes["split-indices"] = (
            "no split index iterated by this region"
        )
        return
    region.splits = applied
    region.diag.split_indices = dict(applied)


def lower_region(ctx: PassContext, region: RegionState) -> None:
    """``lower-region``: lower through fusion tables, walking valid orders.

    The first topological sort is usually lowerable, but transposed views or
    unusual POGs can leave it stream-incompatible; FuseFlow then walks other
    valid orders (it "enumerates valid dataflow orders that do not break
    fusion", Section 7) until one lowers, at most
    :data:`MAX_ORDER_ATTEMPTS`.  A pinned order from the schedule is never
    overridden — its failure is the user's to resolve.  Every attempt lands
    in the region diagnostics.
    """
    pinned = ctx.schedule.orders.get(region.position)
    lowerer, graph, order = _lower_with_fallback(region, ctx.decls, pinned)
    region.graph = graph
    region.order = list(order)
    if region.splits:
        _materialize_splits(region)
    region.output_specs = list(lowerer.output_specs)
    region.table_text = lowerer.table.render()
    region.transposes = [
        (_original_tensor(region.fused, key), name, mode_order)
        for key, (name, mode_order) in lowerer.transpose_requests.items()
    ]
    region.diag.node_count = graph.node_count()
    region.diag.transposed_views = len(region.fused.transposed_views)


def _candidate_orders(fused: FusedEinsum):
    first = fused.first_order()
    yield first
    seen = {tuple(first)}
    for order in fused.pog.all_orders(limit=MAX_ORDER_ATTEMPTS):
        if tuple(order) not in seen:
            seen.add(tuple(order))
            yield order


def _lower_with_fallback(
    region: RegionState,
    decls: Dict[str, TensorDecl],
    pinned: Optional[List[str]],
):
    fused = region.fused
    diag = region.diag
    if pinned is not None:
        diag.pinned_order = True
        diag.order_attempts = 1
        diag.orders_tried.append(tuple(pinned))
        lowerer = RegionLowerer(fused, decls, order=pinned)
        return lowerer, lowerer.lower(), list(pinned)
    errors: List[str] = []
    for attempt, order in enumerate(_candidate_orders(fused), start=1):
        if attempt > MAX_ORDER_ATTEMPTS:
            break
        diag.order_attempts = attempt
        diag.orders_tried.append(tuple(order))
        try:
            lowerer = RegionLowerer(fused, decls, order=order)
            return lowerer, lowerer.lower(), list(order)
        except LoweringError as exc:
            errors.append(str(exc))
    raise LoweringError(
        f"{NO_ORDER_LOWERS}{fused.name}; "
        f"last error: {errors[-1] if errors else 'none'}"
    )


def _materialize_splits(region: RegionState) -> None:
    """Realize the splits :func:`split_indices` scheduled.

    Splitting is decided before lowering (footprint scaling and order
    rewriting both depend on it) but can only be materialized once the
    graph exists: each applicable split tiles the nodes inside its
    loop (``apply_split``) and the dataflow order gains the synthetic
    outer tile index, outermost first — ``['k.t8', 'x1', 'k', ...]``
    reads as "iterate 8 tiles of k, streaming each through the region".
    A decided index the final order does not iterate (the lowerer fell
    back to an order that dropped it) is discarded so placement
    scaling and node annotation always agree.
    """
    lowered_order = list(region.order)
    applied: Dict[str, int] = {}
    dropped: List[str] = []
    for index_var, tiles in region.splits.items():
        if index_var not in lowered_order:
            dropped.append(index_var)
            continue
        apply_split(region.graph, lowered_order, index_var, tiles)
        applied[index_var] = tiles
    if dropped:
        region.diag.skipped_passes["split-indices"] = (
            f"index(es) {dropped} not in lowered order {lowered_order}"
        )
    region.splits = applied
    region.diag.split_indices = dict(applied)
    # Prefix in the loop-nest's own order (position in the lowered
    # order), not schedule-declaration order: splits={'x4':2,'x1':4}
    # on order ['x1','x4',...] must read ['x1.t4','x4.t2',...].
    prefix = [
        tile_index_name(idx, applied[idx])
        for idx in sorted(applied, key=lowered_order.index)
    ]
    region.order = prefix + lowered_order


def _original_tensor(fused: FusedEinsum, key: Tuple[int, int]) -> str:
    """Original tensor name behind a transpose request key."""
    sid, pos = key
    for view in fused.transposed_views:
        if view.sid == sid and view.operand_pos == pos:
            return view.tensor
    raise KeyError(key)


def register_outputs(ctx: PassContext, region: RegionState) -> None:
    """Declare the region's materialized outputs for the regions after it."""
    for spec in region.output_specs:
        ctx.decls[spec.name] = TensorDecl(
            spec.name, spec.shape, spec.fmt, is_input=False
        )


def place_memory(ctx: PassContext, region: RegionState) -> None:
    """``place-memory``: decide which hierarchy level serves each node.

    Runs after ``lower-region``: the region's SAMML graph exists, so every
    scanner/locate/array/writer node gets a
    :class:`~repro.comal.hierarchy.Placement` in ``region.placement``: the
    level of the tensor it touches, its traffic role, and — for on-chip
    placements — a bank.  The timed engine reads the map to pace each
    node's traffic through the right level (see
    :mod:`repro.comal.hierarchy`).  The graph itself is left untouched.

    Placement policy (the paper's fused-vs-unfused story made explicit):

    * Streams inside a fused region never materialize — nothing to place.
    * A region output consumed by a *later* region is a cross-region
      intermediate: it stays in the on-chip buffer of ``ctx.hierarchy`` if
      its dense-estimate footprint still fits in the remaining capacity,
      and **spills** to DRAM otherwise.  Reads of a spilled intermediate
      are **fills**.
    * Program inputs and final outputs always live in DRAM (they must
      cross the chip boundary regardless of fusion).

    The flat hierarchy reproduces the pre-hierarchy simulator (everything
    spills), while still labelling cross-region traffic as spill/fill for
    reporting.
    """
    hier = ctx.hierarchy
    placement = region.placement
    placed_sram = 0
    spilled = 0
    for node_id, node in region.graph.nodes.items():
        prim = node.prim
        if not prim.touches_dram():
            continue
        tensor_name = getattr(prim, "tensor_name", None)
        if tensor_name is None:
            continue
        tile_scale = 1
        if prim.kind == "write":
            level, role, tile_scale = _place_output(ctx, prim, tensor_name, region)
            if role == "spill":
                spilled += 1
        else:
            # Readers inherit the level their tensor was placed in when
            # its producer region compiled; unplaced names are program
            # inputs living in DRAM.
            src = ctx.placements.get(tensor_name)
            if src == "sram":
                level, role = "sram", "intermediate"
            elif src == "dram":
                level, role = "dram", "fill"
            else:
                level, role = "dram", "input"
        bank = 0
        if level == "sram":
            bank = hier.sram.bank_of(tensor_name)
            placed_sram += 1
        placement[node_id] = Placement(level, role, bank, tile_scale)
    region.diag.sram_placed = placed_sram
    region.diag.spilled_outputs = spilled
    region.diag.sram_reserved = ctx.sram_reserved
    if not hier.has_sram:
        region.diag.skipped_passes["place-memory"] = (
            "flat hierarchy: no on-chip level, all placements DRAM"
        )


def _place_output(
    ctx: PassContext, prim, tensor_name: str, region: RegionState
) -> Tuple[str, str, int]:
    """Place one writer's tensor; returns (level, role, tile scale).

    The tile scale is the resident-footprint divisor the capacity
    check used; 1 for program outputs, whose DRAM placement never
    consults the estimate.
    """
    if (
        tensor_name in ctx.uses.outputs
        or ctx.last_read.get(tensor_name, -1) <= region.position
    ):
        return "dram", "output", 1
    estimate = dense_estimate_bytes(prim.shape, getattr(prim, "fmt", None))
    # Index splitting shrinks the *resident* footprint: with a mode of
    # this tensor split T ways, only one of its T tiles occupies the
    # buffer at a time (the region streams tile-by-tile), so the
    # reservation divides by the tile scale.  Total traffic through
    # the level is unchanged — capacity is what tiling buys.
    scale = split_footprint_scale(
        region.splits, _output_indices(region, tensor_name)
    )
    if scale > 1:
        estimate = max(8, -(-estimate // scale))
    hier = ctx.hierarchy
    if hier.has_sram and ctx.sram_reserved + estimate <= hier.sram.capacity_bytes:
        ctx.sram_reserved += estimate
        ctx.placements[tensor_name] = "sram"
        return "sram", "intermediate", scale
    ctx.placements[tensor_name] = "dram"
    return "dram", "spill", scale


def _output_indices(region: RegionState, tensor_name: str) -> Tuple[str, ...]:
    """The logical index variables (modes) of a region output tensor."""
    for spec in region.output_specs:
        if spec.name == tensor_name:
            return tuple(spec.logical_indices)
    return ()


def parallelize(ctx: PassContext, region: RegionState) -> None:
    """``parallelize``: duplicate compute lanes per the schedule's ``par``."""
    # Parallelization targets real loop levels only: the synthetic
    # outer tile indices a split prepends (``x1.t8``) are sequential
    # time-multiplexing, so duplicating lanes across one is
    # meaningless — they are filtered out, and a par factor naming one
    # is skipped like any other non-iterated index.
    real_order = [idx for idx in region.order if not is_tile_index(idx)]
    applied = False
    for index_var, factor in ctx.schedule.par.items():
        if index_var in real_order:
            apply_parallelization(region.graph, real_order, index_var, factor)
            applied = True
    if not applied:
        region.diag.skipped_passes["parallelize"] = (
            "no parallelized index in region order"
            if ctx.schedule.par
            else "schedule has no parallelization"
        )


#: The back-end passes, in flow order, after the front end's three.  All
#: but ``place-memory`` can be shared by compiles that give a region the
#: same lowering context; the flow runs ``place-memory`` on every compile
#: (see :class:`~repro.driver.pipeline.RegionStore`).
BACK_END: Tuple[Tuple[str, Callable[[PassContext, RegionState], None]], ...] = (
    ("split-indices", split_indices),
    ("lower-region", lower_region),
    ("place-memory", place_memory),
    ("parallelize", parallelize),
)
