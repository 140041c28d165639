"""Index splitting (tiling) of SAMML graphs — the third classic schedule axis.

FuseFlow's scheduling language (paper Sections 4.2 and 7) exposes fusion
granularity, dataflow ordering, and parallelization; this module adds the
remaining knob of spatial-accelerator scheduling: *index splitting*.  A
split ``{i: T}`` partitions index ``i``'s coordinate space into ``T``
contiguous tiles and rewrites the region's dataflow order to iterate an
outer tile index — the region streams one tile of ``i`` at a time instead
of the whole dimension at once.

Two observable effects, mirroring how :func:`~repro.core.schedule.par.apply_parallelization`
models lane duplication without restructuring the graph:

* **Timing** — every node inside the tiled loop executes as ``T``
  tile-sequential passes over its token stream; each tile boundary costs
  one extra pipeline fill/drain (the timed engine charges ``latency + II``
  per boundary).  Splitting is therefore never free in cycles.
* **Footprint** — a materialized region output whose modes include a split
  index only ever has *one tile* resident at a time, so the
  ``place-memory`` pass divides its dense-estimate footprint by the tile
  count.  That is precisely what lets an intermediate that used to spill
  to DRAM fit in the on-chip buffer: tiling converts spill/fill traffic
  into SRAM traffic in ``SimResult.traffic_by_level()``.

The functional semantics are untouched: iterating a dimension in ``T``
contiguous chunks computes exactly the same values in exactly the same
order as iterating it whole, so split and unsplit schedules are bit-exact
on results (enforced by ``tests/test_split_differential.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ...sam.graph import SAMGraph
from .par import scale_subgraph_factor, scaled_levels

#: Synthetic order-entry suffix marking the outer tile index of a split
#: (``k`` split 8 ways shows up as ``k.t8`` at the front of the region's
#: dataflow order).  Never collides with real index names, which the
#: fusion renamer draws from ``x<n>``/``u<n>``.
TILE_ORDER_SUFFIX = ".t"


def tile_index_name(index_var: str, tiles: int) -> str:
    """The synthetic outer tile index for ``index_var`` split ``tiles`` ways."""
    return f"{index_var}{TILE_ORDER_SUFFIX}{tiles}"


def _validate_factor(index_var: object, value: object, kind: str, noun: str) -> None:
    if not isinstance(index_var, str) or not index_var:
        raise ValueError(
            f"{kind} index names must be non-empty strings, got {index_var!r}"
        )
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(
            f"{noun} for {index_var!r} must be an int >= 1, got {value!r}"
        )


def validate_split_item(index_var: object, tiles: object) -> None:
    """The one shared validation rule for a ``splits`` entry.

    Raises :class:`ValueError` unless ``index_var`` is a non-empty string
    and ``tiles`` a plain int >= 1 (bool excluded: ``True`` would pass an
    ``isinstance(int)`` check but round-trip through JSON as ``1``,
    churning fingerprints).  ``Schedule.validate``, ``SweepPoint.validate``
    and the autotuner all wrap this — keeping four layers from drifting
    apart on what a legal split is.
    """
    _validate_factor(index_var, tiles, "split", "split tile count")


def validate_par_item(index_var: object, factor: object) -> None:
    """The same rule for a ``par`` entry (index variable -> lane factor)."""
    _validate_factor(index_var, factor, "parallelization", "parallelization factor")


def is_tile_index(name: str) -> bool:
    """True for synthetic tile-index order entries (``"x1.t8"``).

    Consumers of a region's dataflow order that operate on *real* loop
    levels (parallelization, order pinning) must filter these out — a
    tile index is time-multiplexed, not a spatial level.
    """
    head, sep, tail = name.rpartition(TILE_ORDER_SUFFIX)
    return bool(head) and bool(sep) and tail.isdigit()


def apply_split(
    graph: SAMGraph,
    order: Sequence[str],
    index_var: str,
    tiles: int,
) -> int:
    """Tile ``index_var`` into ``tiles`` sequential passes across ``graph``.

    Shares :func:`~repro.core.schedule.par.scale_subgraph_factor` with
    parallelization: every node iterating ``index_var`` or any deeper
    index (per ``order``), and every compute-region node, has its tile
    factor multiplied — those are the nodes re-paced per tile by the timed
    engine.  Tensor-construction nodes stay un-tiled: the merging
    serializer drains continuously across tile boundaries, exactly as it
    stays serial under parallelization.  Returns the number of nodes
    affected.

    Parameters
    ----------
    graph:
        The lowered region graph to annotate.
    order:
        The region's dataflow order (real index names; synthetic tile
        entries are ignored if present).
    index_var:
        The index being split; must be iterated by this region.
    tiles:
        Tile count; ``1`` is a no-op.

    Raises
    ------
    ValueError
        For a tile count < 1 or an index the region does not iterate.
    """
    return scale_subgraph_factor(
        graph, order, index_var, tiles, "tile_factor", "split tile count"
    )


def tiled_levels(graph: SAMGraph) -> List[str]:
    """Index variables whose nodes carry a tile factor > 1."""
    return scaled_levels(graph, "tile_factor")


def split_footprint_scale(
    splits: Dict[str, int], tensor_indices: Sequence[str]
) -> int:
    """Resident-footprint divisor of a tensor under the region's splits.

    The product of tile counts over split indices that are modes of the
    tensor: with index ``i`` split ``T`` ways, only one of the ``T`` tiles
    of every ``i``-indexed tensor is resident at a time.  Indices the
    tensor does not carry contribute nothing (tiling ``k`` does not shrink
    a ``(i, j)`` output).
    """
    scale = 1
    for idx in tensor_indices:
        scale *= splits.get(idx, 1)
    return scale


def intermediate_row_splits(compiled, tiles: int) -> Dict[str, int]:
    """Splits dict tiling the outer row of every cross-region intermediate.

    The standard recipe for shrinking spill traffic: split the outermost
    emission index of each materialized region output that a later region
    consumes, so each intermediate streams tile-by-tile through the
    on-chip buffer instead of materializing whole.

    Parameters
    ----------
    compiled:
        A compiled program (anything with ``regions`` carrying
        ``output_specs`` and a ``program`` with ``outputs()`` — duck-typed
        so this module needs no driver import).
    tiles:
        Tile count applied to every discovered row index.

    Returns
    -------
    dict
        Index variable -> ``tiles``, ready to assign to
        :attr:`Schedule.splits <repro.core.schedule.schedule.Schedule.splits>`.
    """
    if tiles < 1:
        raise ValueError(f"split tile count must be >= 1, got {tiles}")
    program_outputs = set(compiled.program.outputs())
    splits: Dict[str, int] = {}
    for region in compiled.regions:
        for spec in region.output_specs:
            if spec.name in program_outputs or not spec.emission_indices:
                continue
            splits[spec.emission_indices[0]] = tiles
    return splits
