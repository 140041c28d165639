"""Parallelization of SAMML graphs (paper Section 7, evaluated in 8.6).

FuseFlow parallelizes by selecting an index variable and a factor: the
compiler partitions the variable's coordinate space and duplicates the
downstream compute subgraph, merging results on completion.  The simulator
models the duplicated subgraph by dividing each affected node's initiation
interval by the factor (perfect coordinate partitioning), while leaving
nodes *outside* the parallelized loop — outer scanners and the final
serializing writer — at their original rate.  Those un-parallelized stages
plus DRAM bandwidth are exactly what bounds scaling at large factors
(Figure 16a's saturation).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ...sam.graph import SAMGraph


def scale_subgraph_factor(
    graph: SAMGraph,
    order: Sequence[str],
    index_var: str,
    factor: int,
    attr: str,
    noun: str,
) -> int:
    """Multiply a per-node timing factor across the loop of ``index_var``.

    The traversal both parallelization and index splitting share: every
    node iterating ``index_var`` or any deeper index (per ``order``), and
    every compute-region node (which sits inside the innermost loops), has
    ``attr`` (``par_factor`` or ``tile_factor``) multiplied by ``factor``.
    Tensor-construction nodes are exempt — the merging serializer stays
    serial under parallelization and drains continuously across tile
    boundaries under splitting.  Timed-result memos are invalidated.
    Returns the number of nodes affected.

    Raises
    ------
    ValueError
        For a factor < 1 (message names ``noun``) or an index the region
        does not iterate.
    """
    if factor < 1:
        raise ValueError(f"{noun} must be >= 1, got {factor}")
    if factor == 1:
        return 0
    positions: Dict[str, int] = {idx: i for i, idx in enumerate(order)}
    if index_var not in positions:
        raise ValueError(
            f"index {index_var!r} is not iterated by this region (order {list(order)})"
        )
    cut = positions[index_var]
    affected = 0
    for node in graph.nodes.values():
        if node.region == "construct":
            continue
        if node.index_var is not None:
            if positions.get(node.index_var, -1) >= cut:
                setattr(node, attr, getattr(node, attr) * factor)
                affected += 1
        elif node.region == "compute":
            setattr(node, attr, getattr(node, attr) * factor)
            affected += 1
    return affected


def scaled_levels(graph: SAMGraph, attr: str) -> List[str]:
    """Index variables whose nodes carry ``attr`` > 1."""
    out: List[str] = []
    for node in graph.nodes.values():
        if getattr(node, attr) > 1 and node.index_var and node.index_var not in out:
            out.append(node.index_var)
    return out


def apply_parallelization(
    graph: SAMGraph,
    order: Sequence[str],
    index_var: str,
    factor: int,
) -> int:
    """Parallelize ``index_var`` by ``factor`` across ``graph``.

    See :func:`scale_subgraph_factor` for the node-selection rule (the
    exempt construct nodes model the merging serializer).  Returns the
    number of nodes affected.
    """
    return scale_subgraph_factor(
        graph, order, index_var, factor, "par_factor", "parallelization factor"
    )


def parallelized_levels(graph: SAMGraph) -> List[str]:
    """Index variables whose nodes carry a parallel factor > 1."""
    return scaled_levels(graph, "par_factor")
