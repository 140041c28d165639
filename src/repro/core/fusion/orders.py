"""Dataflow-order exploration (paper Sections 7 and 8.8, Table 4).

FuseFlow enumerates the valid dataflow orders of a fused region — the
topological sorts of its POG — and lets users or autotuners pick one.  This
module provides the order-space utilities behind Figure 18 (sweeping nested
matmul orders) and Table 4 (design-space sizes with and without per-kernel
local order constraints).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..einsum.ast import EinsumProgram
from ..schedule.schedule import Schedule
from .fuse import FusedEinsum, fuse_region
from .pog import PartialOrderGraph


@dataclass
class OrderSpace:
    """Size of a region's dataflow-order space."""

    region: str
    indices: int
    unconstrained: int
    constrained: int


def order_space(
    fused: FusedEinsum,
    cap: int = 2 * 10**8,
) -> OrderSpace:
    """Count valid orders with and without the POG's constraints.

    The unconstrained count is the number of permutations of the fused index
    space (capped, like the paper caps its search at 2x10^8); the
    constrained count is the number of POG linear extensions.
    """
    n = len(fused.pog.indices)
    unconstrained = 1
    for i in range(2, n + 1):
        unconstrained *= i
        if unconstrained > cap:
            unconstrained = cap
            break
    constrained = fused.pog.count_orders(cap=cap)
    return OrderSpace(
        region=fused.name,
        indices=n,
        unconstrained=unconstrained,
        constrained=constrained,
    )


def program_order_space(
    program: EinsumProgram,
    schedule: Schedule,
    cap: int = 2 * 10**8,
    best_order_constraints: Dict[int, Sequence[str]] | None = None,
) -> Tuple[int, int]:
    """(unconstrained, constrained) products across a schedule's regions.

    ``best_order_constraints`` optionally adds per-statement local dataflow
    orders (the "Constr." column of Table 4: each matmul pinned to its best
    local order).
    """
    total_unconstrained = 1
    total_constrained = 1
    for pos, sids in enumerate(schedule.regions):
        fused = fuse_region(program, sids, name=f"os-r{pos}")
        space = order_space(fused, cap)
        total_unconstrained = min(total_unconstrained * space.unconstrained, cap)
        if best_order_constraints:
            constrained_fused = fuse_region(
                program,
                sids,
                name=f"os-r{pos}-c",
                extra_orders={
                    sid: order
                    for sid, order in best_order_constraints.items()
                    if sid in sids
                },
            )
            constrained_count = constrained_fused.pog.count_orders(cap=cap)
        else:
            constrained_count = space.constrained
        total_constrained = min(total_constrained * constrained_count, cap)
    return total_unconstrained, total_constrained


def enumerate_orders(
    fused: FusedEinsum, limit: int = 64
) -> List[List[str]]:
    """List up to ``limit`` valid dataflow orders of a fused region."""
    return fused.valid_orders(limit)


def order_label(order: Sequence[str], rename: Dict[str, str] | None = None) -> str:
    """Compact label like ``ikjl`` for an order (for Figure 18 axes)."""
    rename = rename or {}
    return "".join(rename.get(idx, idx)[:1] for idx in order)
